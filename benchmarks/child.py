"""Run one ``dualbayes`` CLI command and time it from inside the process.

Usage: ``python child.py SPEC.json`` with ``src`` on ``PYTHONPATH``.  The
spec holds ``argv`` (passed to ``dualbayes.cli.main`` through this file, so
a long ``--obs`` string never meets the operating system's argument
limit), ``result`` (where to write the timings) and ``trace``.

The result records the clock reading just after ``import dualbayes.cli``
(the parent subtracts its own reading taken before it started this process,
which gives the set-up time), the time spent inside ``main``, the peak RSS
and, when tracing, the per-function statistics and spans.

The peak RSS is ``VmHWM``, the high-water mark of this process image.  The
``ru_maxrss`` that ``wait4`` reports is no use here: Linux carries the
high-water mark of the image replaced by ``exec`` into it, and a child
started with ``vfork`` replaces the parent's image, so it reads at least the
parent's own peak.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    import dualbayes.cli as cli

    imported = time.perf_counter()
    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.install()
    result = {"imported": imported}
    start = time.perf_counter()
    try:
        return cli.main(spec["argv"])
    finally:
        sys.stdout.flush()
        result["main_s"] = time.perf_counter() - start
        with open("/proc/self/status", encoding="ascii") as status:
            result["peak_rss_kb"] = next(int(line.split()[1]) for line in status
                                         if line.startswith("VmHWM:"))
        if recorder is not None:
            result["stats"] = recorder.stats
            result["spans"] = recorder.spans
        with open(spec["result"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())
