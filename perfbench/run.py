"""Repository benchmark: decision cost and delivered throughput.

Run from the repository root::

    python3 perfbench/run.py --workload frontdoor-dup --seed 1 --seconds 40 --trace 0

Workloads (``perfbench/design.json`` records why each was chosen, the
default and held-out seeds, and which metrics each layer should move):

* ``frontdoor-dup``: bursts of 12 mostly-duplicate requests through
  windows of 4, the distilled fast path and an on-disk decision cache;
* ``fleet-slo-churn``: a Poisson churn trace over three boards under an
  enforcing SLO policy;
* ``fig5-cold``: distinct 3/4/5-DNN mixes, one client, exact MCTS
  through ``AsyncFrontDoor(window_size=1)``.  It runs on demand only;
  ``BENCHMARK.json`` lists the first two (see ``design.json``).

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics.  ``--trace 1`` serves the same inputs twice on
fresh systems, first untraced and then with every layer's public entry
point wrapped (``perfbench/tracing.py``), and prints the per-layer
metrics and the tracing overhead.  Either way the outputs are checked
(``perfbench/checks.py``) and the last line of standard output is the
result as one JSON object.  Exit status: 0 when every check passed, 1
when one failed, 2 when ``src/repro`` or the estimator checkpoint is
missing (nothing is trained in its place).

Everything a run writes goes under ``perfbench/.out/``: its report,
the traced run's spans, the determinism records later runs of the same
seed are compared against, and the decision-cache directories.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: BLAS runs on one thread, set before numpy loads: the load is one
#: client on one thread.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKPOINT = os.path.join(ROOT, "benchmarks", ".cache", "estimator_s2500_e80_seed0.npz")
WORKLOAD_NAMES = ("fig5-cold", "frontdoor-dup", "fleet-slo-churn")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        path
        for path in (os.path.join(ROOT, "src", "repro", "__init__.py"), CHECKPOINT)
        if not os.path.isfile(path)
    ]
    for path in missing:
        print(f"perfbench: missing {os.path.relpath(path, ROOT)}", file=sys.stderr)
    if missing:
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import bench
    from repro.models import build_all_models

    # Imports and the model-zoo graphs are paid once per process; the
    # rest of set-up is timed per assembly in bench.run.
    build_all_models()
    once_s = time.perf_counter() - _STARTED
    return bench.run(args, once_s, root=ROOT, checkpoint=CHECKPOINT)


if __name__ == "__main__":
    sys.exit(main())
