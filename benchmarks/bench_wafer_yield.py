"""Wafer-scale production test: equivalence, throughput, and yield/cost.

The prodtest subsystem's claims are quantitative, so they get hard gates:

* **Vectorized ≡ reference** — the chunked wafer run must match the
  per-die oracle (the same wafer with ``chunk_dies=1``) bit for bit on a
  small wafer (every per-die and per-cell array, floats compared
  exactly), and a same-seed rebuild must reproduce the run.
* **Throughput** — at the 10⁵-die operating point (10⁴ in the smoke job)
  the chunked run must test dies at ≥10× the per-die oracle's rate (the
  oracle is timed on a subset and compared per die).
* **Yield / cost curves** — the three sensing schemes swept across
  variation scales must reproduce the paper's production story: march
  coverage ≥99% of injected faults at the calibrated defect rate,
  conventional sensing's yield collapsing first under variation while
  the self-referenced schemes hold, and the destructive scheme paying
  the longest tester time per die.

``PRODTEST_BENCH_SMOKE=1`` (the CI smoke job) shrinks the wafers; both
scales write their machine-readable sections to
``results/BENCH_prodtest.json``.
"""

import dataclasses
import json
import os
import pathlib
import time

from repro.prodtest import (
    WaferConfig,
    build_wafer,
    compare_schemes,
    run_wafer,
    summarize,
)
from tests.oracles import rechunked

SEED = 2010
#: Injected defect rate the coverage gate is scored at.
FAULT_RATE = 2.0e-3
COVERAGE_FLOOR = 0.99
SPEEDUP_FLOOR = 10.0

_SMOKE = bool(os.environ.get("PRODTEST_BENCH_SMOKE"))
#: The throughput operating point: 10⁵ dies full-scale.
SPEEDUP_DIES = 10_000 if _SMOKE else 100_000
#: Reference-loop timing subset (the loop is ~100× slower per die).
REFERENCE_DIES = 100 if _SMOKE else 200
EXACT_DIES = 128 if _SMOKE else 512
CURVE_DIES = 96 if _SMOKE else 384
CURVE_SCALES = (1.0, 1.5, 2.0, 2.5)

BENCH_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_prodtest.json"


def _update_bench_json(section, payload):
    """Merge one section into the machine-readable BENCH_prodtest.json."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _section(name):
    return f"{name}_smoke" if _SMOKE else name


def test_vectorized_matches_reference(report):
    """Chunked wafer engine ≡ per-die loop, bit for bit; rebuild is too."""
    config = WaferConfig(
        dies=EXACT_DIES, seed=SEED, fault_rate=FAULT_RATE, chunk_dies=64
    )
    wafer = build_wafer(config)
    vectorized = run_wafer(wafer)
    reference = run_wafer(rechunked(wafer))
    rebuilt = run_wafer(build_wafer(config))

    report(f"Vectorized-vs-reference equivalence — {config.dies} dies, "
           f"{config.cells} cells/die, {config.scheme} scheme "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    report(f"  vectorized == reference: {vectorized.equals(reference)}")
    report(f"  same-seed rebuild == run: {vectorized.equals(rebuilt)}")
    report(f"  yield {vectorized.ship_rate:.1%}, "
           f"coverage {vectorized.coverage['overall']:.1%}")

    _update_bench_json(_section("equivalence"), {
        "smoke": _SMOKE,
        "dies": config.dies,
        "scheme": config.scheme,
        "bit_exact": vectorized.equals(reference),
        "rebuild_bit_exact": vectorized.equals(rebuilt),
        "yield": vectorized.ship_rate,
        "coverage": vectorized.coverage["overall"],
    })

    assert vectorized.equals(reference)
    assert vectorized.equals(rebuilt)


def test_vectorized_speedup(report):
    """≥10× per-die throughput over the reference loop at scale."""
    config = WaferConfig(dies=SPEEDUP_DIES, seed=SEED, fault_rate=FAULT_RATE)
    wafer = build_wafer(config)

    start = time.perf_counter()
    vectorized = run_wafer(wafer)
    vectorized_seconds = time.perf_counter() - start

    # The per-die oracle is timed on a leading subset — at the full
    # operating point it would take minutes — and compared per die.
    reference_config = dataclasses.replace(config, dies=REFERENCE_DIES)
    reference_wafer = rechunked(build_wafer(reference_config))
    start = time.perf_counter()
    run_wafer(reference_wafer)
    reference_seconds = time.perf_counter() - start

    vectorized_per_die = vectorized_seconds / config.dies
    reference_per_die = reference_seconds / REFERENCE_DIES
    speedup = reference_per_die / vectorized_per_die

    report(f"Vectorized wafer throughput — {config.dies} dies "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    report(f"  vectorized: {vectorized_seconds:6.2f} s  "
           f"({vectorized_per_die * 1e6:8.1f} µs/die)")
    report(f"  reference:  {reference_seconds:6.2f} s for "
           f"{REFERENCE_DIES} dies ({reference_per_die * 1e6:8.1f} µs/die)")
    report(f"  speedup: {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")
    report(f"  yield {vectorized.ship_rate:.1%} over {config.dies} dies, "
           f"{vectorized.total_test_seconds:.1f} tester-seconds simulated")

    _update_bench_json(_section("speedup"), {
        "smoke": _SMOKE,
        "dies": config.dies,
        "reference_dies": REFERENCE_DIES,
        "vectorized_seconds": vectorized_seconds,
        "reference_seconds": reference_seconds,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "yield": vectorized.ship_rate,
    })

    assert speedup >= SPEEDUP_FLOOR


def test_yield_cost_curves(report):
    """Per-scheme yield/cost curves with the coverage gate at rate 2e-3."""
    records = compare_schemes(
        dies=CURVE_DIES, variation_scales=CURVE_SCALES, seed=SEED,
        config=WaferConfig(fault_rate=FAULT_RATE),
    )

    report(f"Yield / test-time / cost per scheme — {CURVE_DIES} dies/point, "
           f"fault rate {FAULT_RATE:g} "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    report(f"  {'scheme':<15} {'scale':>5} {'yield':>7} {'coverage':>9} "
           f"{'ms/die':>7} {'$/bit':>7}")
    for record in records:
        report(f"  {record['scheme']:<15} {record['scale']:>5.1f} "
               f"{record['yield']:>7.1%} {record['coverage']:>9.1%} "
               f"{record['test_seconds_per_die'] * 1e3:>7.3f} "
               f"{record['cost_per_good_bit']:>7.3f}")

    _update_bench_json(_section("curves"), {
        "smoke": _SMOKE,
        "dies": CURVE_DIES,
        "fault_rate": FAULT_RATE,
        "coverage_floor": COVERAGE_FLOOR,
        "records": records,
    })

    by_scheme = {}
    for record in records:
        by_scheme.setdefault(record["scheme"], []).append(record)
    assert set(by_scheme) == {"conventional", "destructive", "nondestructive"}

    # Coverage gate: ≥99% of injected faults detected at every point.
    for record in records:
        assert record["coverage"] >= COVERAGE_FLOOR

    # Nominal variation ships nearly everything on every scheme...
    for scheme, rows in by_scheme.items():
        assert rows[0]["yield"] >= 0.95, scheme
    # ...then conventional sensing collapses first under variation — the
    # paper's motivation — while self-reference holds much longer.
    conventional = [r["yield"] for r in by_scheme["conventional"]]
    destructive = [r["yield"] for r in by_scheme["destructive"]]
    assert conventional[-1] < 0.5
    assert destructive[-1] > conventional[-1]
    # The destructive scheme's erase + write-back read makes it the
    # slowest march on the tester.
    for scheme in ("conventional", "nondestructive"):
        assert (
            by_scheme["destructive"][0]["test_seconds_per_die"]
            > by_scheme[scheme][0]["test_seconds_per_die"]
        )


def test_march_time_model(report):
    """The economics summary reconciles with the wafer result it wraps."""
    config = WaferConfig(dies=64, seed=SEED, fault_rate=FAULT_RATE)
    result = run_wafer(build_wafer(config))
    summary = summarize(result)

    report("Summary reconciliation — 64-die wafer, nondestructive scheme")
    report(f"  shipped {summary.shipped}/{summary.dies} "
           f"({summary.ship_rate:.1%}), {summary.good_bits:.0f} good bits")
    report(f"  {summary.mean_test_seconds * 1e3:.3f} ms/die, "
           f"${summary.cost_per_good_bit:.3f}/bit")

    assert summary.shipped == int(result.ships.sum())
    assert abs(
        summary.total_test_seconds - float(result.test_seconds.sum())
    ) < 1e-12
    # Good bits can never exceed the shipped dies' raw data cells.
    assert summary.good_bits <= summary.shipped * result.data_cells_per_die
