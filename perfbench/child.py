"""One benchmark child process: `python child.py MODE CONFIG OUT_DIR RESULT_JSON`.

MODE is
  setup   import weylab.cli and validate the config, then stop;
  batch   the same, then run the batch through `weylab.cli.run`;
  traced  as batch, with the span tracer installed after set-up; the spans
          go next to RESULT_JSON (`*_spans.tsv`), the layer metrics into it.

RESULT_JSON receives the monotonic time at which set-up finished (`ready`),
the times around `cli.run` (`start`, `end`) and its exit code.  The parent
takes set-up time as `ready` minus the moment it spawned this process.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time


def _blas() -> dict:
    """OpenBLAS build and thread count, read from numpy's bundled library."""
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"library": get_config().decode(), "threads": get_threads()}
    return {"library": None, "threads": None}


def main(argv: list[str]) -> int:
    mode, config_path, out_dir, result_path = argv
    import weylab.cli as cli

    with open(config_path) as fh:
        config = json.load(fh)
    validate = getattr(cli, "_validate_config", None)
    if validate is not None:
        validate(config)
    result = {"ready": time.monotonic(), "validated": validate is not None}

    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.monotonic()
        exit_code = cli.run(config_path, out_dir=out_dir)
        result.update(start=start, end=time.monotonic(), exit_code=exit_code)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["missing_targets"] = tracer.missing
            result["spans"] = len(tracer.spans)
            tracer.write(os.path.splitext(result_path)[0] + "_spans.tsv")
    result["blas"] = _blas()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
