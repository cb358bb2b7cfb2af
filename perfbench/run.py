"""The repository's benchmark: fit, stream and serve ZeroED on Tax data.

Run from the repository root::

    python3 perfbench/run.py --workload fit-stream-tax --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # every workload
    python3 perfbench/run.py --workload serve-tax --trace 1   # per-layer

Workloads (see ``workloads.py`` for why each exists):
``fit-stream-tax``, ``serve-tax``.  ``--trace 0`` prints the end-to-end
metrics declared in ``BENCHMARK.json``; ``--trace 1`` installs span
probes around the program's public functions and prints the per-layer
metrics instead, writing the spans as Chrome trace-event JSON to
``perfbench/out/<workload>-seed<seed>.trace.json``.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is 1 when an output check
failed and 2 when the program cannot be imported.  ``--smoke`` shrinks
every input for a quick functional run.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAMES = ("fit-stream-tax", "serve-tax")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the plumbing, not speed")
    args = parser.parse_args(argv)

    # One BLAS thread, like n_jobs=1: the box's second core stays with
    # the load generator and the child processes (which inherit this).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        if not Path(repro.__file__).resolve().is_relative_to(src):
            raise ImportError(f"repro imported from {repro.__file__}, "
                              f"not from this checkout")
        import report
        import workloads
        declared = report.declared()
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program or BENCHMARK.json from "
              f"{ROOT}: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds or declared["run_seconds"]
    names = NAMES if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        work = BENCH_DIR / "out" / f"work-{name}-{args.seed}-{args.trace}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = workloads.Run(
            seed=args.seed, seconds=seconds, trace=bool(args.trace),
            sizes=workloads.SMOKE if args.smoke else workloads.FULL,
            work=work,
        )
        t0 = time.perf_counter()
        try:
            result = workloads.WORKLOADS[name](run)
        except Exception:
            traceback.print_exc()
            print(f"error: workload {name} crashed", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for line in result.human(run.trace):
            print(line)
        print(f"  run wall time {time.perf_counter() - t0:.1f} s")
        print(result.line(run.trace), flush=True)
        if not result.correct:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
