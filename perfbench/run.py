"""One-command benchmark of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload detail-branchy --seed 0 \\
        --seconds 20 --trace 0

Each invocation runs one workload (see ``inputs.WORKLOADS``) in this
process for whole rounds until ``--seconds`` have passed (two rounds at
least, so that they can be compared), checks every
operation against computations made apart from the simulator, prints
human-readable lines prefixed with ``#`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs untraced rounds, then traced
ones, and reports the per-layer metrics (spans go to
``.perfbench/trace-<workload>-seed<n>.jsonl``).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: ``REPRO_*`` variables that change what runs, pinned for every run.
#: ``REPRO_CKPT_DIR`` is re-pointed at a fresh store for every round.
PINNED_ENV = {
    "REPRO_CACHE_DIR": "off",
    "REPRO_CKPT_DIR": "off",
    "REPRO_JOBS": "1",
    "REPRO_SUPERBLOCK": "0",
    "REPRO_SLOWPATH": "0",
    "REPRO_TRACE": "",
    "REPRO_CONFIG": "",
    "REPRO_JOB_TIMEOUT": "0",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="detail-branchy, detail-membound or sampled")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 runs the registered programs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser, parser.parse_args(argv)


#: Fresh interpreters timed from start to a simulator ready to run jobs.
IMPORT_REPS = 3


def import_seconds(reps=IMPORT_REPS):
    """Median ``(seconds at reference speed, raw seconds)`` for a fresh
    interpreter to import the simulator and hash its sources (what the
    first job of a process waits for), each between two spin samples."""
    from calib import timed
    code = ("import sys; sys.path[:0] = %r; import bench; "
            "from repro.harness.cache import code_fingerprint; "
            "code_fingerprint()" % [SRC, HERE])
    samples = [timed(subprocess.run, [sys.executable, "-c", code])
               for _ in range(reps)]
    for done, _seconds, _factor in samples:
        done.check_returncode()
    return (statistics.median(seconds * speed
                              for _done, seconds, speed in samples),
            statistics.median(seconds for _done, seconds, _ in samples))


def _fmt(value):
    return "%.6g" % value


def main(argv=None):
    parser, args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [SRC, HERE]

    import bench
    if args.workload not in bench.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(bench.WORKLOADS)))

    import_s = import_seconds() if not args.trace else (0.0, 0.0)
    scratch = os.path.join(OUT, "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        rounds, references, metrics, raw, consistent = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = [res for per_round in rounds for res in per_round]
    failed = [res for res in results if not res.ok]
    print("# %s seed=%d trace=%d rounds=%d operations=%d failed=%d"
          % (args.workload, args.seed, args.trace, len(rounds),
             len(results), len(failed)))
    for res in failed:
        print("# FAILED %s: %s" % (res.op.job.label(),
                                   "; ".join(res.failures)))
    for res in references.values():
        print("# reference %s: %s" % (
            res.op.job.label(), "; ".join(res.failures) or "ok"))
    if not consistent:
        print("# INCONSISTENT: simulated statistics differ between rounds")
    for name, (value, unit) in metrics.items():
        extra = " (uncalibrated %s)" % _fmt(raw[name]) if name in raw else ""
        print("# %-32s %12s %s%s" % (name, _fmt(value), unit, extra))
    print(json.dumps({
        "correct": consistent,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
