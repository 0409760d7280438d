"""Array-level queueing: the §V latency gap compounds under load.

Poisson read traffic over a 4-bank macro: the destructive scheme's 27 ns
bank occupancy saturates at less than half the request rate the
nondestructive scheme's 12.6 ns sustains, and its queueing delay explodes
first.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.service import ControllerConfig, ServeSpec, build_workload, serve
from repro.timing.latency import latency_comparison


def read_queue(service_time, rate, banks=4, requests=4096, seed=31):
    """Read latency of Poisson reads on a flat ``banks``-bank part."""
    stream = build_workload(rate=rate, addresses=banks).generate(
        requests, np.random.default_rng(seed)
    )
    config = ControllerConfig(service_time, service_time, banks=banks)
    return serve(stream, ServeSpec(config=config)).merged.read_latency


def queue_sweep(cell, beta_destructive, beta_nondestructive, rates):
    destructive, nondestructive, _ = latency_comparison(
        cell,
        beta_destructive=beta_destructive,
        beta_nondestructive=beta_nondestructive,
    )
    results = []
    for rate in rates:
        row = {"rate": float(rate)}
        for label, breakdown in (
            ("destructive", destructive),
            ("nondestructive", nondestructive),
        ):
            offered = rate * breakdown.total / 4
            if offered >= 0.95:
                row[label] = None  # saturated
            else:
                row[label] = read_queue(breakdown.total, float(rate))
        results.append(row)
    return results


def test_queueing(benchmark, paper_cell, calibration, report):
    rates = np.array([0.2e8, 0.6e8, 1.0e8, 1.4e8, 2.0e8, 2.8e8])
    results = benchmark(
        queue_sweep,
        paper_cell,
        calibration.beta_destructive,
        calibration.beta_nondestructive,
        rates,
    )

    report("Array queueing — mean request latency vs read-request rate "
           "(4 banks, Poisson arrivals)")
    rows = []
    for row in results:
        def fmt(entry):
            if entry is None:
                return "SATURATED"
            return f"{entry.mean * 1e9:6.1f} ns (p99 {entry.p99 * 1e9:5.1f})"

        rows.append(
            [
                f"{row['rate'] / 1e6:.0f} Mreq/s",
                fmt(row["destructive"]),
                fmt(row["nondestructive"]),
            ]
        )
    report(format_table(["request rate", "destructive", "nondestructive"], rows))
    report()
    report("The destructive macro saturates below ~150 Mreq/s while the")
    report("nondestructive one still serves 280 Mreq/s with bounded queues —")
    report("the paper's 2.15x latency advantage compounds to a >2x capacity")
    report("advantage at the memory-controller level.")

    # At the highest common stable rate the destructive queue is far worse.
    stable = [r for r in results if r["destructive"] is not None][-1]
    assert stable["destructive"].mean > 1.5 * stable["nondestructive"].mean
    # The nondestructive macro survives rates that saturate the destructive.
    top = results[-1]
    assert top["destructive"] is None
    assert top["nondestructive"] is not None