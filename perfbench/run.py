"""One benchmark for the executor and the service, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload timestep --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``timestep``    -- in-process ``StencilBenchmark.iterate`` trajectories;
* ``serve_small`` -- a ``repro serve`` subprocess, two blocking TCP clients,
  small grids of all 14 apps;
* ``serve_grids`` -- the same server with ``--job-dir``, one HTTP client,
  512^2 executes, 64^3 iterates and durable jobs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the JSON result; the exit code
is non-zero when any output mismatched or the run failed.  ``--tiny``
shrinks grids and counts for the self-tests.
"""

from __future__ import annotations

import argparse
import sys
import traceback

import common

WORKLOADS = ("timestep", "serve_small", "serve_grids")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small grids and counts (self-tests only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"error: no program source at {common.SRC / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    spec = common.load_spec()
    traced = bool(args.trace)
    report = common.Report(args.workload, traced)
    try:
        if args.workload == "timestep":
            import timestep

            timestep.run(args.seed, args.seconds, traced, args.tiny, report)
        else:
            import serving

            serving.run(args.workload, args.seed, args.seconds, traced,
                        args.tiny, report)
    except Exception:  # noqa: BLE001 - a failed run prints no result
        traceback.print_exc()
        return 1
    report.emit(common.expected_metrics(spec, traced))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
