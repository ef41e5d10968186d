"""End-to-end benchmark of the documented workflow (see README.md here).

    python3 e2ebench/run.py --workload analyze_empirical --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced per-layer decomposition instead.  The last stdout line is the
result object; the line before it carries the environment stamp.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from harness import BenchError, Workdir, emit, env_stamp, log, require_program
from workloads import analyze_empirical, serve_mixed, static_gate

WORKLOADS = {
    "analyze_empirical": analyze_empirical,
    "static_gate": static_gate,
    "serve_mixed": serve_mixed,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        require_program()
    except BenchError as exc:
        log(str(exc))
        return 2
    # A termination signal unwinds like an error, so the work directory,
    # the daemon and any running child are still cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Workdir(f"{args.workload}-s{args.seed}")
    t0 = time.perf_counter()
    try:
        tally, metrics, sizes = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work
        )
    except BenchError as exc:
        log(f"benchmark could not run: {exc}")
        return 1
    finally:
        work.cleanup()
    log(f"{args.workload} seed {args.seed}: {time.perf_counter() - t0:.1f} s, "
        f"{tally.attempted} operations, {tally.failed} failed")
    emit(tally, metrics, env_stamp(args.seed, sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
