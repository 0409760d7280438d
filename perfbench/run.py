"""Repository benchmark: host throughput of sharded serving and the wafer flow.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload serve_backed_zipf --seed 1 \
        --seconds 25 --trace 0

The report lines name every metric with its unit and whether it is host
time (noisy) or simulated (exact for a seed).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--trace 1``
also writes the traced run's spans to ``perfbench/out/<workload>.spans.jsonl``.
The exit code is 1 when a correctness check fails and 2 when the
program cannot be imported.  See ``perfbench/README.md``.
"""

import argparse
import importlib
import json
import os
import pathlib
import resource
import sys
import time

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS / OpenMP pools read these when NumPy is imported, so they are set
# first: at most one thread per CPU this process may run on.
THREADS = str(len(os.sched_getaffinity(0)))
for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = THREADS
sys.path.insert(0, str(ROOT / "src"))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Metrics of the modelled hardware: exact for a given seed.
SIM_METRICS = {
    "sim_read_p50_ns", "sim_read_p99_ns",
    "sim_served_mreq_s", "failed_share", "wafer_ship_rate", "wafer_coverage",
    "wafer_tester_ms_per_die", "retried_words", "failed_words",
    "corrupted_words", "cache_hit_rate",
}
DECLARED = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def kind(name: str) -> str:
    """``sim`` (modelled hardware), ``count`` (program work, exact for a
    seed) or ``host`` (wall clock or memory of this process)."""
    if name in SIM_METRICS:
        return "sim"
    return "count" if DECLARED[name]["unit"] == "count" else "host"


def collect(setup, outcome, import_s):
    """Every declared metric by name; zero where the workload does not
    run that layer."""
    metrics = dict.fromkeys(DECLARED, 0.0)
    metrics.update(outcome.metrics)
    metrics.update({
        "setup_s": import_s + setup["setup_repeat_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration.calibrate_s": setup["calibration.calibrate_s"],
        "build_wafer_s": setup["build_wafer_s"],
    })
    return metrics


#: Imported one at a time with a host-speed probe between steps: one
#: ~1 s import is too long for two probes to correct.
IMPORT_STEPS = (
    "numpy", "scipy.optimize", "repro.calibration", "repro.service",
    "repro.prodtest", "workloads",
)


def timed_import() -> float:
    """Import the program, normalized to the reference host speed [s]."""
    probe = hostspeed.PYTHON
    total = 0.0
    probe()  # warm the probe's own code path
    before = probe()
    for module in IMPORT_STEPS:
        start = time.perf_counter()
        importlib.import_module(module)
        wall = time.perf_counter() - start
        after = probe()
        total += probe.normalized(wall, before, after)
        before = after
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = timed_import()
    except ModuleNotFoundError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    setup, inputs = workloads.run_setup(spec, args.seed)
    if isinstance(spec, workloads.ServeWorkload):
        outcome = workloads.run_serve(spec, inputs, args.seconds)
    else:
        outcome = workloads.run_wafer_flow(spec, inputs, args.seconds)
    metrics = collect(setup, outcome, import_s)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"timed runs {outcome.timing.runs}  threads {THREADS}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {DECLARED[name]['unit']:<9} "
              f"{kind(name)}")
    for check, passed in outcome.checks.items():
        print(f"  check {check:<42} {'ok' if passed else 'FAILED'}")
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        outcome.tracer.write(out / f"{args.workload}.spans.jsonl")

    wanted = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
