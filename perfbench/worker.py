"""One workload process: import the program, run the items, report verdicts.

    python3 perfbench/worker.py SPEC.json RESULT.json
    python3 perfbench/worker.py --probe

Before the clock is read, the process does nothing but start the interpreter
and import ``jetcocycles`` from the checkout's ``src``; that reading
(CLOCK_MONOTONIC, shared with the parent) ends the set-up time.  ``--probe``
stops there and prints that reading, with the core speed read right after it.  A run writes the reading taken after
its last verdict, so the parent's wall time excludes interpreter teardown and
the result bookkeeping.  An untraced run also times its items on a
``SpeedClock`` (see speedclock.py), which scales them to a fixed core speed.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import jetcocycles  # noqa: E402

T_IMPORT = time.monotonic()

import json  # noqa: E402
import traceback  # noqa: E402

import jetcocycles.cli  # noqa: E402,F401
from speedclock import SpeedClock, kernel_duration  # noqa: E402
from workloads import post_checks, run_item  # noqa: E402


def main(argv) -> int:
    if not os.path.abspath(jetcocycles.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"jetcocycles was imported from {jetcocycles.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    setup_kernel_s = kernel_duration()
    if argv[1:] == ["--probe"]:
        print(repr(T_IMPORT), repr(setup_kernel_s))
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = clock = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    else:
        clock = SpeedClock()
        clock.start()

    verdicts, errors = {}, {}
    for index, item in enumerate(spec["items"]):
        if tracer is not None:
            tracer.item = index
            token = tracer.enter()
        try:
            verdicts[item["id"]] = run_item(item, spec["outdir"])
        except Exception:  # the item counts as failed; the run goes on
            errors[item["id"]] = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.exit("bench." + item["phase"], token)
    t_done = time.monotonic()

    result = {"t_import": T_IMPORT, "setup_kernel_s": setup_kernel_s,
              "t_done": t_done, "verdicts": verdicts,
              "errors": errors}
    if clock is not None:
        clock.stop()
        result["clock"] = {"scaled_s": clock.scaled_s, "raw_s": clock.raw_s,
                           "samples": clock.samples, "kernel_s": clock.kernel_s}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write(spec["spans_path"])
    result["checks"] = {}
    if spec["checks"]:
        try:
            result["checks"] = post_checks(verdicts)
        except Exception:
            errors["post_checks"] = traceback.format_exc()
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
