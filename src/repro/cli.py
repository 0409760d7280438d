"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro table1          # Table I
    python -m repro fig11           # the 16kb test-chip experiment
    python -m repro latency         # §V latency comparison
    python -m repro serve           # trace-driven serving simulation
    python -m repro list            # everything available

Each subcommand prints the same rows/series the paper reports (the
benchmark suite wraps the identical generators with timing).

Every entry in :data:`EXPERIMENTS` is an :class:`Experiment` — its run
function, its one-line description, an optional hook that registers its
hand-written flags, and a table of flags generated from the library
parameters they set.  A generated flag takes its type and default from
that parameter, and :func:`_apply` builds each config (or calls each
function) from the same table, so every default is stated once, in the
library, and ``--help`` shows it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.report import format_table, render_series
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser", "Experiment", "EXPERIMENTS", "package_version"]


def package_version() -> str:
    """The package version.

    ``repro.__version__`` already resolves through ``importlib.metadata``
    (with the pyproject literal as fallback), so this is the single
    source of truth for every front end.
    """
    import repro

    return repro.__version__


def _cmd_table1(args) -> None:
    from repro.analysis.tables import table1_rows

    print("Table I — device parameters and operating points")
    print(format_table(["quantity", "reproduced", "paper"], table1_rows()))


def _cmd_table2(args) -> None:
    from repro.analysis.tables import table2_rows
    from repro.calibration import calibrated_cell

    print("Table II — robustness of the self-reference schemes")
    print(format_table(["quantity", "reproduced", "paper"], table2_rows(cell=calibrated_cell())))


def _cmd_fig2(args) -> None:
    from repro.analysis.figures import fig2_ri_curve
    from repro.calibration import calibrated_device

    series = fig2_ri_curve(calibrated_device())
    print("Fig. 2 — R–I characteristics")
    print(render_series(
        series.currents * 1e6,
        {"R_high [Ω]": series.r_high, "R_low [Ω]": series.r_low},
        x_label="I [µA]",
    ))
    print(f"TMR collapse 0→I_max: {series.tmr_collapse:.1%}")


def _cmd_fig6(args) -> None:
    from repro.analysis.figures import fig6_beta_sweep
    from repro.calibration import calibrated_cell

    series = fig6_beta_sweep(calibrated_cell())
    print("Fig. 6 — sense margin vs β (mV)")
    print(render_series(
        series.betas,
        {
            "SM0-Con": series.sm0_destructive,
            "SM1-Con": series.sm1_destructive,
            "SM0-Nondes": series.sm0_nondestructive,
            "SM1-Nondes": series.sm1_nondestructive,
        },
        x_label="β",
        y_scale=1e3,
    ))
    print(f"optima: destructive β = {series.crossing_destructive():.3f}, "
          f"nondestructive β = {series.crossing_nondestructive():.3f}")


def _cmd_fig7(args) -> None:
    from repro.analysis.figures import fig7_rtr_sweep
    from repro.calibration import calibrate, calibrated_cell

    calibration = calibrate()
    series = fig7_rtr_sweep(
        calibrated_cell(), calibration.beta_destructive, calibration.beta_nondestructive
    )
    print("Fig. 7 — sense margin vs ΔR_TR (mV)")
    print(render_series(
        series.shifts,
        {
            "SM0-Con": series.sm0_destructive,
            "SM1-Con": series.sm1_destructive,
            "SM0-Nondes": series.sm0_nondestructive,
            "SM1-Nondes": series.sm1_nondestructive,
        },
        x_label="ΔR_TR [Ω]",
        y_scale=1e3,
    ))
    print(f"windows: destructive ±{series.window_destructive[1]:.0f} Ω, "
          f"nondestructive ±{series.window_nondestructive[1]:.0f} Ω")


def _cmd_fig8(args) -> None:
    from repro.analysis.figures import fig8_alpha_sweep
    from repro.calibration import calibrate, calibrated_cell

    series = fig8_alpha_sweep(calibrated_cell(), calibrate().beta_nondestructive)
    print("Fig. 8 — nondestructive margin vs Δα (mV)")
    print(render_series(
        series.deviations * 100,
        {"SM0": series.sm0, "SM1": series.sm1},
        x_label="Δα [%]",
        y_scale=1e3,
    ))
    print(f"window: {series.window[0]:+.2%} .. {series.window[1]:+.2%}")


def _cmd_fig9(args) -> None:
    from repro.calibration import calibrate, calibrated_cell
    from repro.timing.latency import nondestructive_read_latency

    breakdown = nondestructive_read_latency(
        calibrated_cell(), beta=calibrate().beta_nondestructive
    )
    print("Fig. 9 — nondestructive read timing")
    for signal in ("WL", "SLT1", "SLT2", "SenEn", "Data_latch"):
        intervals = breakdown.schedule.signal_intervals(signal)
        pretty = ", ".join(f"{a*1e9:.2f}–{b*1e9:.2f} ns" for a, b in intervals)
        print(f"  {signal:<11}: {pretty}")
    print(f"total: {breakdown.total * 1e9:.1f} ns")


def _cmd_fig10(args) -> None:
    from repro.calibration import calibrate
    from repro.timing.waveforms import simulate_nondestructive_read

    calibration = calibrate()
    cell = calibration.cell(917.0)
    cell.write(args.bit)
    waveforms = simulate_nondestructive_read(cell, beta=calibration.beta_nondestructive)
    print(f"Fig. 10 — read transient (stored '{args.bit}')")
    print(render_series(
        waveforms.times * 1e9,
        {
            "V_BL [mV]": waveforms.v_bl * 1e3,
            "V_C1 [mV]": waveforms.v_c1 * 1e3,
            "V_BO [mV]": waveforms.v_bo * 1e3,
        },
        x_label="t [ns]",
        max_rows=14,
    ))
    print(f"sensed: {waveforms.sensed_bit} "
          f"({waveforms.sense_differential * 1e3:+.2f} mV) in "
          f"{waveforms.total_duration * 1e9:.1f} ns")


def _cmd_fig11(args) -> None:
    from repro.array.testchip import run_testchip_experiment

    result = run_testchip_experiment()
    print("Fig. 11 — 16kb test chip at the 8 mV window")
    rows = []
    for name in ("conventional", "destructive", "nondestructive"):
        stats = result.report[name]
        rows.append([
            name,
            str(stats.fail_count),
            f"{stats.fail_fraction:.2%}",
            f"{stats.mean_margin * 1e3:.2f} mV",
            f"{stats.min_margin * 1e3:.2f} mV",
        ])
    print(format_table(["scheme", "fails", "rate", "mean", "worst"], rows))


def _cmd_latency(args) -> None:
    from repro.calibration import calibrate, calibrated_cell
    from repro.timing.latency import latency_comparison

    calibration = calibrate()
    destructive, nondestructive, speedup = latency_comparison(
        calibrated_cell(),
        beta_destructive=calibration.beta_destructive,
        beta_nondestructive=calibration.beta_nondestructive,
    )
    print(f"destructive:    {destructive.total * 1e9:.1f} ns")
    print(f"nondestructive: {nondestructive.total * 1e9:.1f} ns  "
          f"({speedup:.2f}x faster)")


def _cmd_energy(args) -> None:
    from repro.calibration import calibrate, calibrated_cell
    from repro.timing.energy import read_energy_comparison

    calibration = calibrate()
    destructive, nondestructive, ratio = read_energy_comparison(
        calibrated_cell(),
        beta_destructive=calibration.beta_destructive,
        beta_nondestructive=calibration.beta_nondestructive,
    )
    print(f"destructive:    {destructive.total * 1e12:.2f} pJ "
          f"(writes {destructive.write_energy * 1e12:.2f} pJ)")
    print(f"nondestructive: {nondestructive.total * 1e12:.2f} pJ  "
          f"({ratio:.1f}x lower)")


def _cmd_corners(args) -> None:
    from repro.analysis.corners import temperature_corner_sweep
    from repro.calibration import calibrate

    calibration = calibrate()
    corners = temperature_corner_sweep(
        calibration.params, calibration.rolloff_high(), calibration.rolloff_low()
    )
    rows = []
    for corner in corners:
        rows.append([
            f"{corner.temperature:.0f} K",
            f"{corner.tmr:.0%}",
            f"{corner.destructive.max_sense_margin * 1e3:.1f} mV",
            f"{corner.nondestructive.max_sense_margin * 1e3:.1f} mV",
            "yes" if corner.nondestructive_margin_ok else "NO",
        ])
    print("Temperature corners (margins re-optimized per corner)")
    print(format_table(
        ["T", "TMR", "destructive SM", "nondestructive SM", ">8 mV?"], rows
    ))



def _cmd_disturb(args) -> None:
    from repro.calibration import calibrate
    from repro.device.retention import RetentionAnalysis

    analysis = RetentionAnalysis(calibrate().params)
    print("read-disturb budget (Δ = 60, 15 ns reads)")
    rows = []
    for fraction in (0.2, 0.4, 0.6, 0.8):
        current = fraction * analysis.params.i_c0
        rows.append([
            f"{fraction:.0%} I_c0",
            f"{analysis.disturb_probability_per_read(current):.2e}",
            f"{analysis.lifetime_reads(current, 1e-4):.2e}",
        ])
    print(format_table(["read current", "P(flip)/read", "reads to 1e-4"], rows))


def _cmd_trim(args) -> None:
    from repro.calibration import calibrate, calibrated_cell
    from repro.core.trim import beta_compensating_alpha

    cell = calibrated_cell()
    print("test-stage β trim compensating divider skew (paper §V)")
    rows = []
    for deviation in (-0.06, -0.03, 0.0, 0.03, 0.06):
        optimum = beta_compensating_alpha(cell, 0.5, deviation)
        rows.append([
            f"{deviation:+.0%}",
            f"{optimum.beta:.3f}",
            f"{optimum.max_sense_margin * 1e3:.2f} mV",
        ])
    print(format_table(["α skew", "compensated β", "restored margin"], rows))


def _cmd_capacity(args) -> None:
    import numpy as np

    from repro.analysis.scaling import project_scaling
    from repro.array.montecarlo import run_margin_monte_carlo
    from repro.array.testchip import TESTCHIP_VARIATION
    from repro.array.yield_analysis import analyze_margins
    from repro.calibration import calibrate

    calibration = calibrate()
    population = calibration.population(
        16384, TESTCHIP_VARIATION, np.random.default_rng(17)
    )
    yield_report = analyze_margins(run_margin_monte_carlo(
        population,
        beta_destructive=calibration.beta_destructive,
        beta_nondestructive=calibration.beta_nondestructive,
        include_sa_offset=False,
    ))
    print("capacity projection (Gaussian tail, 8 mV window)")
    rows = []
    for name in ("conventional", "destructive", "nondestructive"):
        projection = project_scaling(yield_report[name])
        capacity = projection.clean_capacity_bits
        label = "unbounded" if capacity >= 2**60 else f"{capacity:.3g} bits"
        rows.append([name, f"{projection.bit_fail_probability:.2e}", label])
    print(format_table(["scheme", "P(bit fails)", "clean capacity"], rows))


def _cmd_sensitivity(args) -> None:
    from repro.analysis.sensitivity import margin_sensitivities
    from repro.calibration import calibrate, calibrated_cell

    calibration = calibrate()
    entries = margin_sensitivities(
        calibrated_cell(),
        calibration.beta_destructive,
        calibration.beta_nondestructive,
    )
    print("normalized margin sensitivities (% margin per % parameter)")
    print(format_table(
        ["parameter", "scheme", "sensitivity"],
        [[e.parameter, e.scheme, f"{e.sensitivity:+7.2f}"] for e in entries],
    ))


def _cmd_ber(args) -> None:
    import numpy as np

    from repro.analysis.ber import read_error_budget
    from repro.array.montecarlo import run_margin_monte_carlo
    from repro.array.testchip import TESTCHIP_VARIATION
    from repro.calibration import calibrate

    calibration = calibrate()
    population = calibration.population(
        16384, TESTCHIP_VARIATION, np.random.default_rng(23)
    )
    budgets = read_error_budget(run_margin_monte_carlo(
        population,
        beta_destructive=calibration.beta_destructive,
        beta_nondestructive=calibration.beta_nondestructive,
        include_sa_offset=False,
    ))
    print("per-read error budget (16k-bit Monte Carlo)")
    rows = []
    for name in ("conventional", "destructive", "nondestructive"):
        b = budgets[name]
        rows.append([
            name, f"{b.margin_failure:.2e}", f"{b.metastability:.2e}",
            f"{b.noise_flip:.1e}", f"{b.write_error:.1e}",
            f"{b.total_per_read:.2e}",
        ])
    print(format_table(
        ["scheme", "margin", "metastable", "noise", "write", "total/read"],
        rows,
    ))


def _write_artifact(write, path, *args, **kwargs):
    """``write(path, ...)`` for one ``--*-out`` artifact.  A path that
    cannot be written is a usage error (exit 2), never a traceback."""
    try:
        return write(path, *args, **kwargs)
    except OSError as error:
        message = error.strerror or error
        raise ConfigurationError(f"cannot write {path}: {message}") from None


def _probe_artifact(path) -> None:
    """Open ``path`` for writing and leave it as it was, so that an
    artifact path that cannot be written fails before the run."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _metered(enabled: bool):
    """Scoped :mod:`repro.obs` collection when an artifact flag asks for
    it, yielding ``(registry, tracer)``; ``(None, None)`` otherwise."""
    from repro import obs

    return obs.capture() if enabled else contextlib.nullcontext((None, None))


def _write_obs_outputs(args, registry, tracer) -> None:
    """Write ``--metrics-out`` / ``--trace-out`` artifacts if requested.

    The metrics JSON excludes the wall-clock ``profile`` section unless
    ``--profile`` was passed, so the default artifact is byte-reproducible
    under a fixed seed.
    """
    if args.metrics_out:
        _write_artifact(registry.write_json, args.metrics_out, profile=args.profile)
        print(f"wrote metrics to {args.metrics_out}")
    if getattr(args, "trace_out", None):
        _write_artifact(tracer.write_jsonl, args.trace_out)
        print(f"wrote {len(tracer.events())} trace events to {args.trace_out}"
              + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""))


def _cmd_faults(args) -> None:
    from repro.core.retry import RetryPolicy
    from repro.errors import FaultError
    from repro.faults import run_fault_campaign

    with _metered(bool(args.metrics_out or args.trace_out)) as (registry, tracer):
        policy = _apply(RetryPolicy, args, current_escalation=0.1)
        result = _apply(run_fault_campaign, args, policy=policy)
        _write_obs_outputs(args, registry, tracer)
    print(f"fault campaign — {args.scheme} scheme, {args.bits} bits, "
          f"seed {args.seed}")
    rows = []
    for row in result.rows:
        rows.append([
            f"{row.rate:g}",
            str(row.injected_cells),
            str(row.faulty_words),
            str(row.correctable_words),
            f"{row.recovery_fraction:.1%}",
            str(row.detected_words),
            str(row.escaped_words),
            "/".join(str(row.tier_counts[t])
                     for t in ("clean", "retry", "ecc", "scrub", "repair")),
        ])
    print(format_table(
        ["rate", "cells hit", "faulty", "correctable", "recovered",
         "detected", "escaped", "clean/retry/ecc/scrub/repair"],
        rows,
    ))
    if args.check:
        try:
            result.check()
        except FaultError as error:
            print(f"FAIL: {error}")
            raise SystemExit(1)
        print("PASS: all correctable faults recovered, nothing escaped")


def _cmd_stats(args) -> None:
    import numpy as np

    from repro.array.array import STTRAMArray
    from repro.array.testchip import TESTCHIP_VARIATION
    from repro.calibration import PAPER_TARGETS, calibrate
    from repro.core.retry import RetryPolicy
    from repro.ecc.array import EccArray
    from repro.faults import (
        FaultInjector, build_scheme, default_fault_models, run_fault_campaign,
    )
    from repro.faults.recovery import RecoveryController
    from repro.service import (
        ArrayBackend, ControllerConfig, build_workload, drain_channel,
        scheme_service_times,
    )

    with _metered(True) as (registry, tracer):
        calibration = calibrate()
        scheme = build_scheme(args.scheme, calibration, PAPER_TARGETS.r_transistor)
        rng_build = np.random.default_rng((args.seed, 0))
        rng_fault = np.random.default_rng((args.seed, 1))
        rng_read = np.random.default_rng((args.seed, 2))
        population = calibration.population(
            args.bits,
            TESTCHIP_VARIATION,
            rng_build,
            r_tr_nominal=PAPER_TARGETS.r_transistor,
        )
        array = STTRAMArray(population)
        memory = EccArray(array)
        for address in range(memory.size_words):
            value = int.from_bytes(rng_build.bytes(8), "little")
            value &= (1 << memory.codec.data_bits) - 1
            memory.write_word(address, value)

        injector = FaultInjector(default_fault_models(args.rate), rng_fault)
        injector.inject_array(array)
        injector.disturb_states(array._states)

        policy = RetryPolicy(max_attempts=3, backoff_ns=5.0, current_escalation=0.1)
        array.read_all_with_retry(scheme, policy, rng_read)
        memory.scrub(scheme, rng_read, retry_policy=policy)

        # Backed-serving phase: a short coalesced read burst through the
        # memory controller so the service.backend.* metrics (attempts,
        # failed_words, batch_size) appear in the dump.
        backend = ArrayBackend(
            RecoveryController(memory, policy), scheme,
            np.random.default_rng((args.seed, 3)), injector=injector,
        )
        read_time, write_time = scheme_service_times(args.scheme)
        stream = build_workload(rate=2e8, addresses=memory.size_words)
        drain_channel(
            stream.generate(64, np.random.default_rng((args.seed, 4))),
            ControllerConfig(read_time=read_time, write_time=write_time,
                             banks=2, batch_limit=8),
            policy="batch", backend=backend, retry_policy=policy,
        )
        snapshot = registry.snapshot(profile=False)
        counts = tracer.counts_by_kind()

        # Durability counters: a one-rate fault campaign surfaces what
        # the recovery ladder holds onto across mid-read power loss —
        # the request-level complement of the chaos campaign's
        # write-ahead-journal gate.
        campaign = _apply(
            run_fault_campaign, args, rates=(args.rate,), bits=args.bits,
            policy=policy,
        )
        _write_obs_outputs(args, registry, tracer)

    print(f"instrumented workload — {args.scheme} scheme, {args.bits} bits, "
          f"fault rate {args.rate:g}, seed {args.seed}")
    print()
    print(format_table(
        ["counter", "value"],
        [[key, f"{value:g}"] for key, value in snapshot["counters"].items()],
    ))
    hist_rows = []
    for key, hist in snapshot["histograms"].items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        hist_rows.append([
            key, str(hist["count"]), f"{mean:g}",
            f"{hist['min']:g}", f"{hist['max']:g}",
        ])
    if hist_rows:
        print()
        print(format_table(["histogram", "count", "mean", "min", "max"], hist_rows))
    if counts:
        print()
        print(format_table(
            ["trace event", "count"],
            [[kind, str(n)] for kind, n in sorted(counts.items())],
        ))
    durability = campaign.rows[0]
    print()
    print(format_table(
        ["durability counter", "value"],
        [
            ["power_failure_words", str(durability.power_failure_words)],
            ["detected_words", str(durability.detected_words)],
            ["escaped_words", str(durability.escaped_words)],
            ["recovery_fraction", f"{durability.recovery_fraction:.1%}"],
        ],
    ))


def _cmd_export(args) -> None:
    from repro.analysis.export import export_all_figures

    written = export_all_figures(args.directory)
    print(f"wrote {len(written)} CSV files:")
    for path in written:
        print(f"  {path}")


def _serve_topology(args):
    """The part the run serves on: ``--topology``, else the flat
    ``1x1x<--banks>`` part (one controller)."""
    from repro.service import Topology

    if not args.topology:
        return _apply(Topology, args)
    try:
        return Topology.parse(args.topology, rows=args.rows)
    except ConfigurationError as error:
        raise ConfigurationError(f"invalid topology: {error}") from None


def _serve_addresses(args) -> int:
    """The logical address-space size: explicit ``--addresses``, else the
    topology's full capacity (so the workload exercises the whole part),
    else the historical 2048-word default."""
    if args.addresses is not None:
        return args.addresses
    return _serve_topology(args).capacity if args.topology else 2048


def _serve_requests(args):
    """The request stream for ``repro serve``: replayed or generated.

    A missing, unreadable, malformed, or empty ``--trace-in`` file is a
    clean exit-2 error, never a traceback.
    """
    from repro.service import build_workload, load_trace
    from repro.streams import stream_rng

    if not args.deadline_ns >= 0.0:
        raise ConfigurationError(
            f"--deadline-ns must be >= 0, got {args.deadline_ns:g}"
        )
    if args.trace_in:
        try:
            requests = load_trace(args.trace_in)
        except (ConfigurationError, OSError, ValueError) as error:
            print(f"error: cannot replay trace: {error}")
            raise SystemExit(2) from None
        if not requests:
            print(f"error: cannot replay trace: {args.trace_in} holds no "
                  "requests")
            raise SystemExit(2)
        return requests
    stream = _apply(build_workload, args, addresses=_serve_addresses(args))
    requests = stream.generate(args.requests, stream_rng(args.seed, "workload"))
    if args.deadline_ns > 0.0:
        # Stamp deadlines before --trace-out runs so a saved trace
        # replays bit-identically under --check.
        slack = args.deadline_ns * 1e-9
        requests = [
            dataclasses.replace(request, deadline=request.time + slack)
            for request in requests
        ]
    return requests


def _serve_drift(args, requests):
    """The mid-trace drift scenario, or None.

    Scenarios are placed across the middle half of the trace: onset at
    25% of the stream's span, clearing (where the scenario clears at
    all) at 75%.
    """
    from repro.faults import (
        aging_rolloff_shift,
        field_disturbance_window,
        sense_amp_drift_step,
        temperature_ramp,
    )

    if args.drift == "none":
        return None
    span = max(request.time for request in requests)
    offset = args.drift_offset_mv * 1e-3
    start, duration = 0.25 * span, 0.5 * span
    if args.drift == "temperature-ramp":
        return temperature_ramp(start, duration, offset)
    if args.drift == "field-window":
        return _apply(field_disturbance_window, args, start, duration, offset)
    if args.drift == "rolloff-shift":
        return aging_rolloff_shift(start, duration, offset)
    return sense_amp_drift_step(start, offset)


def _serve_failures(args, requests, topology):
    """The structural failure scenario for ``repro serve``, or None.

    The scenario geometry is a pure function of the reserved ``(seed, 7)``
    stream and the trace span, so ``--check``'s replayed and regenerated
    runs rebuild the identical failure calendar.  Bank kinds strike a
    global bank of the whole part.
    """
    from repro.service import build_failure_scenario

    if args.failures == "none":
        return None
    if args.failures == "channel-outage" and not args.topology:
        raise ConfigurationError(
            "--failures channel-outage takes whole channels down and needs "
            "--topology"
        )
    span = max(request.time for request in requests)
    return _apply(
        build_failure_scenario, args, args.failures, span,
        seed=args.seed,
        banks=topology.total_banks,
        channels=topology.channels,
    )


def _serve_spec(args, requests):
    """The flags as one :class:`ServeSpec` for ``requests``: the generated
    flags give every knob but the few values passed here."""
    from repro.service import (
        AdaptiveConfig, ControllerConfig, SLOTarget, ServeSpec, scheme_service_times,
    )

    topology = _serve_topology(args)
    read_time, write_time = scheme_service_times(args.scheme)
    adaptive = {}
    if args.adaptive:
        adaptive = dict(
            slo=_apply(SLOTarget, args, p99_read_latency=args.slo_p99_ns / 1e9),
            adaptive_config=_apply(AdaptiveConfig, args),
        )
    return _apply(
        ServeSpec, args,
        config=_apply(
            ControllerConfig, args, read_time=read_time, write_time=write_time,
            banks=topology.banks_per_channel,
        ),
        topology=topology,
        # A flat run is the channel-striped 1x1xB part: one controller
        # interleaving by plain address modulo.
        interleave=args.interleave if args.topology else "channel-striped",
        scheme=args.scheme,
        offered_rate=args.rate,
        # Drift and the adaptive loop act on the array, so they imply a
        # backed run, as a fault rate does (ServeSpec.is_backed).
        backed=args.backed or args.adaptive or args.drift != "none",
        failures=_serve_failures(args, requests, topology),
        drift=_serve_drift(args, requests),
        **adaptive,
    )


def _serve_once(args, requests):
    """One full serving run of ``requests`` under the flags."""
    from repro.service import serve

    return _apply(serve, args, requests, _serve_spec(args, requests))


def _cmd_serve(args) -> None:
    import tempfile

    from repro.service import (
        load_trace, publish_report, publish_topology_report, save_trace, serve,
    )

    requests = _serve_requests(args)
    if args.trace_out:
        count = _write_artifact(save_trace, args.trace_out, requests)
        print(f"wrote {count} requests to {args.trace_out}")

    with _metered(bool(args.metrics_out)) as (registry, _):
        spec = _serve_spec(args, requests)
        report = _apply(serve, args, requests, spec)
        if args.metrics_out:
            if args.topology:
                publish_topology_report(report)
            else:
                publish_report(report.merged)
            _write_artifact(registry.write_json, args.metrics_out,
                            profile=args.profile)
            print(f"wrote metrics to {args.metrics_out}")

    # Every run yields a TopologyReport; a flat run prints only its
    # merged ServiceReport, the single controller's summary.
    topology_report = report if args.topology else None
    summary = report.merged

    source = f"trace {args.trace_in}" if args.trace_in else (
        f"{args.workload}/{args.addressing} workload, seed {args.seed}")
    if topology_report is not None:
        shape = topology_report.topology
        print(f"topology service simulation — {args.scheme} scheme, "
              f"{args.policy} policy, {shape.describe()} topology "
              f"({summary.banks} banks), {args.interleave} interleave, "
              f"{args.shards} shard process(es), {source}")
    else:
        print(f"service simulation — {args.scheme} scheme, {args.policy} "
              f"policy, {summary.banks} banks, {source}")
    stats = summary.read_latency
    rows = [
        ["requests", f"{summary.requests} ({summary.reads} reads, "
                     f"{summary.writes} writes)"],
        ["offered rate", f"{summary.offered_rate:.3g} req/s"],
        ["throughput", f"{summary.throughput:.3g} req/s"],
        ["read latency mean", f"{stats.mean * 1e9:.2f} ns "
                              f"({summary.read_slowdown:.2f}x unloaded)"],
        ["read latency p50/p99/p99.9",
         f"{stats.p50 * 1e9:.2f} / {stats.p99 * 1e9:.2f} / "
         f"{stats.p999 * 1e9:.2f} ns"],
        ["queue depth mean/max",
         f"{summary.queue_depth.mean_depth:.2f} / {summary.queue_depth.max_depth}"],
        ["bank loads", "/".join(str(n) for n in summary.bank_served)],
    ]
    if topology_report is not None:
        rows.append(["channel loads", "/".join(
            str(n) for n in topology_report.channel_served)])
        if topology_report.topology.ranks > 1:
            rows.append(["rank loads", "/".join(
                str(n) for n in topology_report.rank_served)])
        rows.append(["channel p99 read", " / ".join(
            f"{r.read_latency.p99 * 1e9:.1f}"
            for r in topology_report.channel_reports) + " ns"])
    if args.cache > 0:
        rows.append(["cache hit rate", f"{summary.cache_hit_rate:.1%} "
                                       f"({summary.cache_hits} hits)"])
    if spec.is_backed:
        rows.append(["recovery", f"{summary.retried_words} retried, "
                                 f"{summary.failed_words} failed, "
                                 f"{summary.corrupted_words} corrupted"])
    if args.drift != "none":
        rows.append(["drift scenario", f"{args.drift} "
                                       f"({args.drift_offset_mv:g} mV peak)"])
    if args.failures != "none":
        rows.append(["failure scenario", args.failures])
    resilient = (
        args.failures != "none" or args.deadline_ns > 0.0
        or args.request_retries > 0 or args.hedge_after_ns > 0.0
    )
    if resilient:
        rows.append(["resilience", f"{summary.timed_out} timed out, "
                                   f"{summary.failed_requests} failed, "
                                   f"{summary.detected_loss} detected-loss"])
        rows.append(["hedging/retries", f"{summary.hedged} hedged "
                                        f"({summary.hedge_wins} wins), "
                                        f"{summary.request_retries} retries"])
        rows.append(["availability", f"{summary.availability:.1%}"])
    if topology_report is not None and topology_report.failover is not None:
        failover = topology_report.failover
        rows.append(["failover", f"{failover.rerouted_writes} writes "
                                 f"rerouted, "
                                 f"{failover.unreachable_requests} "
                                 f"unreachable, {failover.restored_words} of "
                                 f"{failover.remapped_words} remaps restored"])
    if args.adaptive:
        rows.append(["SLO p99", f"{args.slo_p99_ns:g} ns "
                                f"(guardband {args.guardband:g})"])
        rows.append(["adaptation", f"{summary.adaptive_actions} actions, "
                                   f"{summary.adaptive_alarms} alarms, "
                                   f"{summary.scrubbed_words} scrubbed"])
        rows.append(["degradation", f"{summary.shed} shed "
                                    f"({summary.shed_low_priority} low-priority, "
                                    f"{summary.shed_rate:.1%} of offered)"])
    print(format_table(["metric", "value"], rows))

    if args.check:
        # Bit-reproducibility gate: a saved-and-reloaded trace and a fresh
        # same-seed live generation must both reproduce the report exactly.
        handle, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        try:
            save_trace(path, requests)
            replay = _serve_once(args, load_trace(path))
        finally:
            os.unlink(path)
        live = _serve_once(args, _serve_requests(args)) if not args.trace_in \
            else replay
        if replay != report or live != report:
            print("FAIL: replayed/regenerated runs diverged from the live run")
            raise SystemExit(1)
        print("PASS: trace replay and same-seed regeneration are bit-identical")


def _cmd_chaos(args) -> None:
    from repro.errors import FaultError
    from repro.service import run_chaos_campaign

    result = _apply(run_chaos_campaign, args)
    print(f"chaos campaign — {result.scheme} scheme, {result.bits} bits, "
          f"seed {result.seed}, availability floor "
          f"{result.availability_floor:.0%}")
    rows = []
    for row in result.rows:
        rows.append([
            row.scenario,
            str(row.requests),
            str(row.completed),
            str(row.shed),
            str(row.timed_out),
            str(row.failed_requests),
            str(row.detected_loss),
            str(row.retries),
            str(row.hedged),
            f"{row.availability:.1%}",
            "yes" if row.conserved else "NO",
            "yes" if row.bit_exact else "NO",
        ])
    print(format_table(
        ["scenario", "reqs", "done", "shed", "t/o", "fail", "loss",
         "retry", "hedge", "avail", "conserved", "bit-exact"],
        rows,
    ))
    if args.check:
        try:
            result.check()
        except FaultError as error:
            print(f"FAIL: {error}")
            raise SystemExit(1)
        print("PASS: requests conserved, zero silent escapes, bit-exact "
              "crash recovery, availability above floor")


def _cmd_prodtest(args) -> None:
    from repro.prodtest import (
        WaferConfig, build_wafer, publish_wafer_report, run_wafer,
    )

    schemes = _SCHEMES if args.scheme == "all" else (args.scheme,)
    base = _apply(WaferConfig, args)
    with _metered(bool(args.metrics_out)) as (registry, tracer):
        summaries = []
        for scheme in schemes:
            config = dataclasses.replace(base, scheme=scheme)
            result = run_wafer(build_wafer(config))
            summaries.append((config, result, publish_wafer_report(result)))
        _write_obs_outputs(args, registry, tracer)

    print(f"production test — {args.dies} dies/wafer, {base.cells} cells/die, "
          f"march {summaries[0][1].march}, seed {args.seed}, "
          f"variation {args.variation_scale:g}x")
    rows = []
    for _, result, summary in summaries:
        rows.append([
            summary.scheme,
            f"{summary.ship_rate:.1%}",
            f"{summary.shipped}/{summary.dies}",
            str(summary.gross_fails),
            str(summary.char_fails),
            str(summary.ecc_uncovered),
            f"{summary.coverage['overall']:.1%}",
            f"{summary.mean_test_seconds * 1e3:.3f}",
            f"{summary.cost_per_good_bit:.3f}"
            if summary.good_bits else "inf",
        ])
    print(format_table(
        ["scheme", "yield", "shipped", "gross", "char", "ecc",
         "coverage", "ms/die", "$/bit"],
        rows,
    ))
    if len(summaries) == 1:
        classified = summaries[0][2].classified
        if classified:
            print("diagnosis: " + ", ".join(
                f"{kind}={count}" for kind, count in sorted(classified.items())
            ))

    if args.check:
        # Determinism gates on a reduced wafer, for every scheme run: the
        # chunked run must match the same wafer processed one die per chunk
        # bit for bit, and a same-seed rebuild must reproduce it exactly.
        for scheme in schemes:
            check_config = dataclasses.replace(
                base, scheme=scheme, dies=min(args.dies, 256)
            )
            wafer = build_wafer(check_config)
            chunked = run_wafer(wafer)
            per_die = run_wafer(dataclasses.replace(
                wafer, config=dataclasses.replace(check_config, chunk_dies=1)
            ))
            rebuilt = run_wafer(build_wafer(check_config))
            if not chunked.equals(per_die):
                print(f"FAIL: chunked wafer flow diverged from the per-die "
                      f"(chunk_dies=1) run ({scheme} scheme)")
                raise SystemExit(1)
            if not chunked.equals(rebuilt):
                print(f"FAIL: same-seed wafer rebuild did not reproduce the "
                      f"run ({scheme} scheme)")
                raise SystemExit(1)
            print(f"PASS: chunked == per-die (chunk_dies=1) and same-seed "
                  f"rebuild is bit-identical ({check_config.dies} dies, "
                  f"{scheme} scheme)")


def _cmd_list(args) -> None:
    print("available experiments:")
    for name, experiment in sorted(EXPERIMENTS.items()):
        print(f"  {name:<10} {experiment.description}")


# ---------------------------------------------------------------------------
# Flags generated from the library parameters they set
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Flag:
    """One flag that sets ``parameter`` of ``target``, a config dataclass
    or a function: the flag's type and default are the parameter's, so
    the default is stated once, in the library.

    A flag in ns that sets a field in seconds has ``scale=1e9``: it shows
    the default times the scale and divides the parsed value by it, so a
    flag left at its default reproduces the field exactly.  A tuple
    default becomes a one-or-more-values flag.
    """

    flag: str
    target: Callable
    parameter: str
    help: str
    scale: float = 1.0
    choices: Optional[Tuple] = None
    type: Optional[Callable] = None

    @property
    def default(self):
        """The parameter's own default (a dataclass field's or a keyword's)."""
        return inspect.signature(self.target).parameters[self.parameter].default

    def register(self, sub: argparse.ArgumentParser) -> None:
        default, nargs = self.default, None
        if isinstance(default, tuple):
            default, nargs = list(default), "+"
        kind = self.type or type(default[0] if nargs else default)
        if self.scale != 1.0:
            default = default * self.scale
        sub.add_argument(
            self.flag, type=kind, nargs=nargs, default=default,
            choices=self.choices, help=f"{self.help} (default %(default)s)",
        )

    def value(self, args):
        """The parsed value in the parameter's units and type."""
        value = getattr(args, self.flag[2:].replace("-", "_"))
        if isinstance(value, list):
            return tuple(value)
        return value / self.scale if self.scale != 1.0 else value


def _apply(target, args, *positional, **explicit):
    """Call ``target`` with every flag of ``args``'s command that sets one
    of its parameters; values passed in ``explicit`` win over the flags."""
    values = {
        flag.parameter: flag.value(args)
        for flag in EXPERIMENTS[args.experiment].flags()
        if flag.target is target
    }
    values.update(explicit)
    return target(*positional, **values)


def _seed(text: str) -> int:
    """A ``--seed`` value: NumPy seeds RNGs from non-negative integers."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _seed_flag(target, help: str) -> _Flag:
    return _Flag("--seed", target, "seed", help, type=_seed)


_SCHEMES = ("conventional", "destructive", "nondestructive")


def _faults_flags() -> Tuple[_Flag, ...]:
    from repro.core.retry import RetryPolicy
    from repro.faults import run_fault_campaign

    return (
        _Flag("--rates", run_fault_campaign, "rates", "hard-fault rates to sweep"),
        _Flag("--bits", run_fault_campaign, "bits",
              "array size in cells; the default is the paper's 16kb chip"),
        _Flag("--scheme", run_fault_campaign, "scheme", "sensing scheme under test",
              choices=_SCHEMES),
        _seed_flag(run_fault_campaign, "campaign RNG seed"),
        _Flag("--attempts", RetryPolicy, "max_attempts",
              "retry-policy attempt budget per read"),
    )


def _stats_flags() -> Tuple[_Flag, ...]:
    from repro.faults import run_fault_campaign

    return (
        _Flag("--scheme", run_fault_campaign, "scheme", "sensing scheme under test",
              choices=_SCHEMES),
        _seed_flag(run_fault_campaign, "workload RNG seed"),
    )


def _serve_flags() -> Tuple[_Flag, ...]:
    from repro.faults import field_disturbance_window as field_window
    from repro.service import (
        INTERLEAVINGS, POLICIES, AdaptiveConfig, ControllerConfig, SLOTarget,
        ServeSpec, Topology, build_failure_scenario, build_workload, serve,
    )

    return (
        _Flag("--policy", ServeSpec, "policy", "bank scheduling policy",
              choices=POLICIES),
        _Flag("--rate", build_workload, "rate", "mean arrival rate in requests/s"),
        _Flag("--banks", Topology, "banks", "independent banks; ignored with "
              "--topology, which defines the bank hierarchy"),
        _Flag("--rows", Topology, "rows",
              "rows (words) per bank in the topology address space"),
        _Flag("--interleave", ServeSpec, "interleave", "address-interleaving "
              "scheme mapping a logical address to (channel, rank, bank, row)",
              choices=INTERLEAVINGS),
        _Flag("--shards", serve, "processes", "worker processes for the topology "
              "driver; 1 runs the sequential reference (the merged report is "
              "bit-identical either way)"),
        _Flag("--workload", build_workload, "kind", "arrival process",
              choices=("poisson", "bursty")),
        _Flag("--addressing", build_workload, "addressing", "address popularity",
              choices=("uniform", "zipfian")),
        _Flag("--write-fraction", build_workload, "write_fraction",
              "fraction of requests that are writes"),
        _Flag("--cache", ServeSpec, "cache_capacity",
              "read-cache capacity in words; 0 disables"),
        _Flag("--batch-limit", ControllerConfig, "batch_limit",
              "max reads coalesced per bank occupancy under the batch policy"),
        _Flag("--batch-extra-fraction", ControllerConfig, "batch_extra_fraction",
              "extra bank-occupancy cost per additional coalesced read, "
              "within [0, 1]"),
        _Flag("--backend-window", ControllerConfig, "backend_window",
              "backed-serving accumulation window for the fcfs and "
              "read-priority policies; 1 keeps the historical scalar order"),
        _Flag("--fault-rate", ServeSpec, "fault_rate",
              "hard-fault rate injected into the backed array (implies --backed)"),
        _seed_flag(ServeSpec, "workload RNG seed"),
        _Flag("--drift-flip-fraction", field_window, "flip_fraction",
              "fraction of stored cells a field-window strike flips"),
        _Flag("--guardband", SLOTarget, "guardband", "fraction of the SLO at "
              "which the controller starts acting, within (0, 1]"),
        _Flag("--control-interval-ns", AdaptiveConfig, "control_interval",
              "simulated time between control ticks in ns", scale=1e9),
        _Flag("--window", AdaptiveConfig, "window",
              "completed reads in the controller's rolling latency window"),
        _Flag("--burst", AdaptiveConfig, "burst",
              "admission token-bucket depth once shedding engages"),
        _Flag("--low-priority-reserve", AdaptiveConfig, "low_priority_reserve",
              "tokens held back from priority>0 requests so the background "
              "tier sheds first; must stay below --burst"),
        _Flag("--shed-depth", AdaptiveConfig, "backpressure_depth",
              "per-bank queue depth at which arrivals are shed regardless "
              "of tokens"),
        _Flag("--low-priority-fraction", build_workload, "low_priority_fraction",
              "fraction of generated requests marked priority 1 (shed-first "
              "background tier)"),
        _Flag("--request-retries", ControllerConfig, "request_retries",
              "controller-level retry budget for reads whose backend word "
              "failed, with exponential backoff"),
        _Flag("--retry-backoff-ns", ControllerConfig, "retry_backoff",
              "base controller retry backoff in ns, doubled per retry already "
              "spent", scale=1e9),
        _Flag("--hedge-after-ns", ControllerConfig, "hedge_after",
              "clone a still-queued read to the next bank after this many ns; "
              "the first copy to finish wins (0 disables)", scale=1e9),
        _Flag("--stall-factor", build_failure_scenario, "stall_factor",
              "latency inflation a controller-stall scenario applies while "
              "active"),
    )


def _chaos_flags() -> Tuple[_Flag, ...]:
    from repro.service import run_chaos_campaign as campaign

    return (
        _Flag("--requests", campaign, "requests", "requests per chaos scenario"),
        _Flag("--bits", campaign, "bits", "backed-array size in cells per "
              "controller; 2304 cells are 32 SECDED words, 24 addressable "
              "after 8 repair spares"),
        _Flag("--scheme", campaign, "scheme", "sensing scheme under chaos",
              choices=_SCHEMES[1:]),
        _seed_flag(campaign, "workload and failure-geometry RNG seed"),
        _Flag("--availability-floor", campaign, "availability_floor",
              "minimum fraction of requests every scenario must still serve"),
    )


def _prodtest_flags() -> Tuple[_Flag, ...]:
    from repro.prodtest import WaferConfig

    return (
        _Flag("--dies", WaferConfig, "dies", "dies per wafer"),
        _Flag("--march", WaferConfig, "march", "march algorithm; march-1t1j is "
              "the disturb-aware STT-RAM variant",
              choices=("mats+", "march-c-", "march-1t1j")),
        _seed_flag(WaferConfig, "prodtest-stream RNG seed"),
        _Flag("--variation-scale", WaferConfig, "variation_scale",
              "within-die variation scale"),
    )


# ---------------------------------------------------------------------------
# Hand-written flags: run control, artifacts, and flags no parameter backs
# ---------------------------------------------------------------------------
def _args_fig10(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bit", type=int, choices=(0, 1), default=1,
                     help="stored value to simulate (default 1)")


def _args_outputs(sub: argparse.ArgumentParser, metrics: str,
                  trace: Optional[str] = None) -> None:
    """The ``--metrics-out`` / ``--trace-out`` / ``--profile`` artifact flags."""
    sub.add_argument("--metrics-out", metavar="PATH", default=None, help=metrics)
    if trace is not None:
        sub.add_argument("--trace-out", metavar="PATH", default=None, help=trace)
    sub.add_argument(
        "--profile", action="store_true",
        help="include wall-clock profile timings in --metrics-out "
        "(non-deterministic; omitted by default)",
    )


def _args_obs_outputs(sub: argparse.ArgumentParser) -> None:
    _args_outputs(sub, "write the metrics registry snapshot to PATH as JSON",
                  "write the trace-event ring buffer to PATH as JSONL")


def _args_faults(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--check", action="store_true", help="exit nonzero unless "
                     "every correctable fault recovered and nothing escaped")
    _args_obs_outputs(sub)


def _args_stats(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bits", type=int, default=2304,
                     help="array size in cells (default 2304 = 32 SECDED "
                     "words, no repair spares)")
    sub.add_argument("--rate", type=float, default=1e-3,
                     help="hard-fault rate injected before reading (default 1e-3)")
    _args_obs_outputs(sub)


def _args_export(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--directory", default="figure_csv",
                     help="output directory (default ./figure_csv)")


def _args_serve(sub: argparse.ArgumentParser) -> None:
    add = sub.add_argument
    add("--scheme", default="nondestructive", choices=_SCHEMES[1:],
        help="sensing scheme whose read time occupies a bank "
        "(default nondestructive)")
    add("--requests", type=int, default=4096,
        help="requests to generate (ignored with --trace-in; default 4096)")
    add("--topology", metavar="CxRxB", default=None,
        help="shard the run across a channels x ranks x banks hierarchy "
        "(e.g. 4x2x4) with per-channel controllers on independent calendars "
        "(default: one flat controller)")
    add("--addresses", type=int, default=None,
        help="logical address-space size (default 2048, or the full topology "
        "capacity with --topology)")
    add("--backed", action="store_true",
        help="run reads through the real recovery ladder on the 16kb chip")
    add("--adaptive", action="store_true",
        help="close the loop: an online controller watches windowed obs "
        "signals and adapts retry policy, scrub, cache, and admission to "
        "defend the SLO (implies --backed)")
    add("--drift", default="none",
        choices=("none", "temperature-ramp", "field-window", "rolloff-shift",
                 "sense-step"),
        help="inject a mid-trace drift scenario over the middle half of the "
        "stream (implies --backed; default none)")
    add("--drift-offset-mv", type=float, default=6.0,
        help="peak sense-amp offset the scenario applies in mV (default 6)")
    add("--slo-p99-ns", type=float, default=1000.0,
        help="p99 read-latency SLO the adaptive controller defends, in ns "
        "(default 1000)")
    add("--failures", default="none",
        choices=("none", "controller-stall", "bank-offline", "sense-lockup",
                 "channel-outage"),
        help="inject a deterministic structural failure scenario whose "
        "geometry is drawn from the reserved (seed, 7) stream (channel-outage "
        "requires --topology; the bank kinds strike one bank of the whole "
        "part, a stall every channel; default none)")
    add("--deadline-ns", type=float, default=0.0,
        help="deadline slack in ns added to every generated arrival time; "
        "service must start before it or the request is dropped as timed out "
        "(0 disables; default 0)")
    add("--trace-in", metavar="PATH", default=None,
        help="replay a saved JSONL request trace instead of generating")
    add("--trace-out", metavar="PATH", default=None,
        help="save the request stream as a JSONL trace")
    _args_outputs(sub, "write service.* metrics (repro.obs snapshot) to PATH "
                  "as JSON")
    add("--check", action="store_true",
        help="verify trace replay and same-seed regeneration reproduce the "
        "run bit-for-bit; exit nonzero otherwise")


def _args_chaos(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--check", action="store_true", help="exit nonzero unless "
                     "every scenario conserves requests, escapes nothing "
                     "silently, restarts bit-exactly, and clears the "
                     "availability floor")


def _args_prodtest(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheme", default="all", choices=_SCHEMES + ("all",),
                     help="sensing scheme under test, or all three (default all)")
    _args_outputs(sub, "write prodtest.* gauges (repro.obs snapshot) to PATH "
                  "as JSON")
    sub.add_argument("--check", action="store_true", help="exit nonzero unless "
                     "the chunked wafer flow matches the same wafer run one die "
                     "per chunk bit for bit and a same-seed rebuild reproduces "
                     "it exactly")


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One CLI subcommand: its runner, description, hand-written argument
    hook, and the table of flags generated from library parameters."""

    run: Callable
    description: str
    register: Optional[Callable[[argparse.ArgumentParser], None]] = None
    flags: Callable[[], Tuple[_Flag, ...]] = tuple


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(_cmd_table1, "Table I: device parameters and operating points"),
    "table2": Experiment(_cmd_table2, "Table II: robustness windows"),
    "fig2": Experiment(_cmd_fig2, "Fig. 2: MTJ R–I characteristics"),
    "fig6": Experiment(_cmd_fig6, "Fig. 6: sense margin vs β"),
    "fig7": Experiment(_cmd_fig7, "Fig. 7: robustness vs ΔR_TR"),
    "fig8": Experiment(_cmd_fig8, "Fig. 8: robustness vs Δα"),
    "fig9": Experiment(_cmd_fig9, "Fig. 9: read timing diagram"),
    "fig10": Experiment(_cmd_fig10, "Fig. 10: read transient simulation", _args_fig10),
    "fig11": Experiment(_cmd_fig11, "Fig. 11: 16kb test-chip yield"),
    "latency": Experiment(_cmd_latency, "§V: read-latency comparison"),
    "energy": Experiment(_cmd_energy, "§V: read-energy comparison"),
    "corners": Experiment(_cmd_corners, "extension: temperature corner map"),
    "disturb": Experiment(_cmd_disturb, "extension: read-disturb budget"),
    "trim": Experiment(_cmd_trim, "extension: test-stage β trim vs divider skew"),
    "capacity": Experiment(_cmd_capacity, "extension: capacity-scaling projection"),
    "sensitivity": Experiment(_cmd_sensitivity, "extension: margin-sensitivity ranking"),
    "ber": Experiment(_cmd_ber, "extension: per-read error budget"),
    "faults": Experiment(_cmd_faults, "extension: fault-injection campaign + recovery ladder", _args_faults, _faults_flags),
    "stats": Experiment(_cmd_stats, "observability: instrumented read workload + metrics dump", _args_stats, _stats_flags),
    "serve": Experiment(_cmd_serve, "service: trace-driven memory-controller simulation", _args_serve, _serve_flags),
    "chaos": Experiment(_cmd_chaos, "resilience: structural-failure chaos campaign + recovery gates", _args_chaos, _chaos_flags),
    "prodtest": Experiment(_cmd_prodtest, "production: wafer-scale march test + trim + yield/cost curves", _args_prodtest, _prodtest_flags),
    "export": Experiment(_cmd_export, "write every figure series to CSV", _args_export),
    "list": Experiment(_cmd_list, "list available experiments"),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from the DATE 2010 nondestructive "
        "self-reference STT-RAM paper.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=experiment.description)
        for flag in experiment.flags():
            flag.register(sub)
        if experiment.register is not None:
            experiment.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("metrics_out", "trace_out"):
            if getattr(args, name, None):
                _write_artifact(_probe_artifact, getattr(args, name))
        EXPERIMENTS[args.experiment].run(args)
    except ConfigurationError as error:
        # Bad input is a usage error: one line and exit 2, no traceback.
        print(f"error: {error}")
        raise SystemExit(2) from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
