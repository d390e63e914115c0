"""One benchmark op: a fresh interpreter that runs one `ffdist` subcommand.

Usage: python child.py <src-dir> <job.json>

The job file names the argv, whether to trace, and where to write the
result.  The result records, on the `time.perf_counter` clock (system-wide
CLOCK_MONOTONIC on Linux, so the parent can compare it with its own
readings), when `import ffdist.cli` returned and when `cli.main` was
entered and left.  Nothing is imported before `ffdist` beyond `sys` and
`time`, so the parent's spawn-to-import interval is the start-up cost of
the `ffdist` entry point.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import ffdist.cli  # noqa: E402  (what the `ffdist` entry point imports)

IMPORTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    src, job_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"imported": IMPORTED, "ffdist_file": ffdist.__file__}
    if not os.path.abspath(ffdist.__file__).startswith(os.path.abspath(src) + os.sep):
        result["error"] = f"imported ffdist from {ffdist.__file__}, not from {src}"
        _write(job["result"], result)
        return 70
    recorder = None
    if job["trace"]:
        import tracer

        recorder = tracer.install()
    code, error = 70, None
    result["main_start"] = time.perf_counter()
    try:
        code = ffdist.cli.main(job["argv"])
    except Exception:  # the op fails; the benchmark keeps running
        error = traceback.format_exc()
    result["main_end"] = time.perf_counter()
    result["exit"] = code
    result["error"] = error
    if recorder is not None:
        import numpy as np

        info = ffdist.varieties.value_grid.__wrapped__.cache_info()
        result["value_grid_cache"] = [info.hits, info.misses]
        result["names"] = recorder.names
        np.save(job["spans"], recorder.array())
    _write(job["result"], result)
    return code


def _write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
