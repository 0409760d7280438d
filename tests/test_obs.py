"""Observability layer (`repro.obs`): units + stack integration.

Three groups of guarantees, matching the contract in
``docs/OBSERVABILITY.md``:

* **registry/trace/runtime units** — canonical key rendering, fixed-edge
  bucket semantics, ring-buffer eviction, global-state save/restore;
* **non-interference** — enabling observability changes nothing the
  simulation computes: enabled and disabled runs of the same seed return
  bit-identical data and leave the RNG stream in the same position;
* **reconciliation & determinism** — campaign counters equal the campaign
  result's own totals exactly, and ``snapshot(profile=False)`` is
  identical across same-seed runs.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import calibrated_cell, obs
from repro.circuit.sense_amp import SenseAmplifier
from repro.core import NondestructiveSelfReference
from repro.device.variation import CellPopulation, VariationModel
from repro.errors import ConfigurationError
from repro.faults import run_fault_campaign
from repro.obs import (
    ATTEMPTS_EDGES,
    FAULT_INJECTED,
    READ_ISSUED,
    MetricsRegistry,
    TraceBuffer,
    metric_key,
)
from tests.oracles import batch_from_scalar_reads

#: Wide-variation population + loose sense amp: forces metastable draws so
#: the RNG-consuming resolution path runs under instrumentation.
POPULATION = CellPopulation.sample(
    96, VariationModel().scaled(2.0), rng=np.random.default_rng(7)
)
WIDE_WINDOW = 0.05


def make_scheme() -> NondestructiveSelfReference:
    return NondestructiveSelfReference(sense_amp=SenseAmplifier(resolution=WIDE_WINDOW))


def pattern(seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, POPULATION.size).astype(np.uint8)


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability globally disabled."""
    obs.reset()
    yield
    obs.reset()


class TestMetricKey:
    def test_bare_name_without_labels(self):
        assert metric_key("core.reads.batch") == "core.reads.batch"

    def test_labels_sorted_and_stringified(self):
        key = metric_key("ecc.words", {"status": "clean", "attempt": 2})
        assert key == "ecc.words{attempt=2,status=clean}"


class TestMetricsRegistry:
    def test_counter_defaults_and_amounts(self):
        registry = MetricsRegistry()
        assert registry.counter("x") == 0
        registry.inc("x")
        registry.inc("x", 4)
        assert registry.counter("x") == 5

    def test_counter_label_series_are_independent(self):
        registry = MetricsRegistry()
        registry.inc("campaign.words", outcome="recovered")
        registry.inc("campaign.words", 2, outcome="detected")
        assert registry.counter("campaign.words", outcome="recovered") == 1
        assert registry.counter("campaign.words", outcome="detected") == 2
        assert registry.counter("campaign.words") == 0
        assert registry.merge_counters(["campaign.words"]) == 3

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        assert registry.gauge("campaign.rate") is None
        registry.set_gauge("campaign.rate", 1e-4)
        registry.set_gauge("campaign.rate", 1e-3)
        assert registry.gauge("campaign.rate") == pytest.approx(1e-3)

    def test_histogram_bucket_semantics(self):
        # counts[0] <= edges[0]; counts[i] in (edges[i-1], edges[i]];
        # final slot is the overflow > edges[-1].
        registry = MetricsRegistry()
        for value in (0.5, 1.0, 1.5, 3.0, 99.0):
            registry.observe("h", value, edges=(1.0, 2.0, 3.0))
        snap = registry.histogram("h")
        assert snap["edges"] == [1.0, 2.0, 3.0]
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(105.0)
        assert snap["min"] == 0.5
        assert snap["max"] == 99.0

    def test_observe_many_matches_scalar_observes(self):
        values = np.random.default_rng(0).uniform(0.0, 10.0, 257)
        one, many = MetricsRegistry(), MetricsRegistry()
        for v in values:
            one.observe("h", v, edges=ATTEMPTS_EDGES)
        many.observe_many("h", values, edges=ATTEMPTS_EDGES)
        # The sum too: the values are added in order, as the loop does.
        assert one.histogram("h") == many.histogram("h")

    def test_edges_fixed_at_first_registration(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0, edges=(1.0, 2.0), scheme="a")
        # Later observations (even new label series) may omit edges and
        # inherit the registered ones.
        registry.observe("h", 5.0, scheme="b")
        assert registry.histogram("h", scheme="b")["edges"] == [1.0, 2.0]

    def test_unregistered_histogram_requires_edges(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().observe("h", 1.0)

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().observe("h", 1.0, edges=(2.0, 1.0))

    def test_snapshot_profile_segregation(self):
        registry = MetricsRegistry()
        registry.inc("x")
        registry.observe_profile("slow", 0.25)
        full = registry.snapshot()
        assert full["profile"]["slow"]["count"] == 1
        bare = registry.snapshot(profile=False)
        assert "profile" not in bare
        assert bare["counters"] == {"x": 1}

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.inc("b.metric")
        registry.inc("a.metric", scheme="z")
        registry.inc("a.metric", scheme="a")
        keys = list(registry.snapshot()["counters"])
        assert keys == sorted(keys)

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.inc("retry.rounds", 2, scheme="s")
        registry.inc("retry.escalations", scheme="s")
        registry.inc("core.reads.batch")
        flat = registry.counters_with_prefix("retry.")
        assert flat == {
            "retry.escalations{scheme=s}": 1,
            "retry.rounds{scheme=s}": 2,
        }

    def test_write_json_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("x", 3, scheme="s")
        path = tmp_path / "metrics.json"
        registry.write_json(path, profile=False)
        assert json.loads(path.read_text()) == registry.snapshot(profile=False)


class TestTraceBuffer:
    def test_seq_monotonic_and_kind_filter(self):
        buffer = TraceBuffer()
        buffer.emit(READ_ISSUED, bits=7)
        buffer.emit(FAULT_INJECTED, cells=2)
        buffer.emit(READ_ISSUED, bits=9)
        assert [e.seq for e in buffer.events()] == [0, 1, 2]
        assert [e.fields["bits"] for e in buffer.events(READ_ISSUED)] == [7, 9]
        assert buffer.counts_by_kind() == {FAULT_INJECTED: 1, READ_ISSUED: 2}

    def test_ring_eviction_counts_dropped(self):
        buffer = TraceBuffer(capacity=3)
        for i in range(5):
            buffer.emit(READ_ISSUED, i=i)
        assert len(buffer) == 3
        assert buffer.dropped == 2
        assert [e.fields["i"] for e in buffer.events()] == [2, 3, 4]

    def test_field_may_itself_be_named_kind(self):
        # The fault-injection events label the fault kind this way; emit's
        # own parameter is positional-only precisely to allow it.
        event = TraceBuffer().emit(FAULT_INJECTED, kind="stuck-short", cells=3)
        assert event.kind == FAULT_INJECTED
        assert event.fields["kind"] == "stuck-short"

    def test_write_jsonl(self, tmp_path):
        buffer = TraceBuffer()
        buffer.emit(READ_ISSUED, scheme="s", bits=72)
        path = tmp_path / "events.jsonl"
        assert buffer.write_jsonl(path) == 1
        (line,) = path.read_text().splitlines()
        assert json.loads(line) == {
            "seq": 0,
            "kind": READ_ISSUED,
            "scheme": "s",
            "bits": 72,
        }

    def test_clear(self):
        buffer = TraceBuffer(capacity=1)
        buffer.emit(READ_ISSUED)
        buffer.emit(READ_ISSUED)
        buffer.clear()
        assert len(buffer) == 0 and buffer.dropped == 0
        assert buffer.emit(READ_ISSUED).seq == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TraceBuffer(capacity=0)


class TestRuntime:
    def test_off_by_default(self):
        assert not obs.active()

    def test_configure_installs_fresh_stores(self):
        stale = obs.get_registry()
        registry, tracer = obs.configure(enabled=True)
        assert obs.active()
        assert registry is obs.get_registry() and registry is not stale
        assert tracer is obs.get_tracer()

    def test_configure_fresh_false_keeps_stores(self):
        registry, _ = obs.configure(enabled=True)
        registry.inc("x")
        kept, _ = obs.configure(enabled=True, fresh=False)
        assert kept is registry and kept.counter("x") == 1

    def test_capture_restores_previous_state(self):
        outer = obs.get_registry()
        with obs.capture(trace_capacity=8) as (registry, tracer):
            assert obs.active()
            assert tracer.capacity == 8
            obs.trace(READ_ISSUED, bits=1)
        assert not obs.active()
        assert obs.get_registry() is outer
        assert len(tracer.events()) == 1

    def test_trace_is_noop_when_disabled(self):
        obs.trace(READ_ISSUED, bits=1)
        assert len(obs.get_tracer().events()) == 0

    def test_profiled_decorator(self):
        @obs.profiled("test.func")
        def add(a, b):
            return a + b

        assert add.__obs_profiled__ == "test.func"
        assert add(1, 2) == 3  # disabled: plain tail call, nothing recorded
        with obs.capture() as (registry, _):
            assert add(1, 2) == 3
            assert registry.profile("test.func")["count"] == 1
        assert obs.get_registry().profile("test.func") is None

    def test_profile_block(self):
        with obs.capture() as (registry, _):
            with obs.profile_block("test.block"):
                pass
            assert registry.profile("test.block")["count"] == 1

    def test_reset_disables_and_discards(self):
        registry, _ = obs.configure(enabled=True)
        registry.inc("x")
        obs.reset()
        assert not obs.active()
        assert obs.get_registry().counter("x") == 0


class TestBatchReadInstrumentation:
    """Metering a batched read: counters, traces, and non-interference."""

    def test_enabled_run_bit_exact_with_disabled(self):
        scheme = make_scheme()
        rng_off = np.random.default_rng(11)
        off = scheme.read_many(POPULATION, pattern(), rng=rng_off)
        rng_on = np.random.default_rng(11)
        with obs.capture():
            on = scheme.read_many(POPULATION, pattern(), rng=rng_on)
        np.testing.assert_array_equal(off.bits, on.bits)
        np.testing.assert_array_equal(off.margins, on.margins)
        np.testing.assert_array_equal(off.metastable, on.metastable)
        # Instrumentation never consumes RNG draws: the streams agree on
        # the next value after the batch.
        assert rng_off.random() == rng_on.random()

    def test_batch_counters_and_trace(self):
        scheme = make_scheme()
        with obs.capture() as (registry, tracer):
            batch = scheme.read_many(
                POPULATION, pattern(), rng=np.random.default_rng(11)
            )
        assert registry.counter("core.reads.batch", scheme=scheme.name) == 1
        assert registry.counter("core.reads.bits", scheme=scheme.name) == batch.size
        assert (
            registry.counter("core.reads.metastable_bits", scheme=scheme.name)
            == batch.metastable_count
        )
        assert registry.profile("core.read_many")["count"] == 1
        (event,) = tracer.events(READ_ISSUED)
        assert event.fields["bits"] == batch.size
        assert event.fields["scheme"] == scheme.name

    def test_scalar_read_counters_and_result_metrics(self):
        cell = calibrated_cell()
        cell.write(1)
        scheme = NondestructiveSelfReference()
        with obs.capture() as (registry, _):
            result = scheme.read(cell, rng=np.random.default_rng(0))
        assert registry.counter("core.reads.scalar", scheme=scheme.name) == 1
        assert result.metrics["correct"] == 1.0
        assert result.metrics["write_pulses"] == 0.0

    def test_scalar_reference_loop_profiles(self):
        scheme = make_scheme()
        with obs.capture() as (registry, _):
            batch_from_scalar_reads(
                scheme, POPULATION, pattern(), rng=np.random.default_rng(1)
            )
        assert registry.profile("core.batch_from_scalar_reads")["count"] == 1


#: One small campaign configuration shared by the integration tests below
#: (32 SECDED words; heavy enough to exercise retry/ECC, light enough for CI).
CAMPAIGN_KW = dict(rates=(1e-3,), bits=2304, seed=7)


@pytest.fixture(scope="module")
def metered_campaigns():
    """Two independent same-seed metered runs (for determinism checks)."""
    runs = []
    for _ in range(2):
        with obs.capture() as (registry, tracer):
            result = run_fault_campaign(**CAMPAIGN_KW)
        runs.append((result, registry, tracer))
    return runs


@pytest.fixture(scope="module")
def plain_campaign():
    """The same campaign with observability left disabled."""
    obs.reset()
    return run_fault_campaign(**CAMPAIGN_KW)


class TestCampaignIntegration:
    def test_disabled_run_has_no_metrics(self, plain_campaign):
        assert plain_campaign.metrics is None

    def test_metering_does_not_change_the_campaign(
        self, metered_campaigns, plain_campaign
    ):
        (metered, _, _), _ = metered_campaigns
        assert len(metered.rows) == len(plain_campaign.rows)
        for on, off in zip(metered.rows, plain_campaign.rows):
            assert dataclasses.asdict(on) == dataclasses.asdict(off)

    def test_same_seed_runs_snapshot_identically(self, metered_campaigns):
        (r1, reg1, t1), (r2, reg2, t2) = metered_campaigns
        snap1 = reg1.snapshot(profile=False)
        assert snap1 == reg2.snapshot(profile=False)
        assert r1.metrics == snap1 == r2.metrics
        # The serialized artifact (what --metrics-out writes) is
        # byte-identical too.
        assert reg1.to_json(profile=False) == reg2.to_json(profile=False)
        assert t1.counts_by_kind() == t2.counts_by_kind()

    def test_counters_reconcile_with_result(self, metered_campaigns):
        (result, registry, _), _ = metered_campaigns
        (row,) = result.rows
        detected = registry.counter("campaign.words", outcome="detected")
        escaped = registry.counter("campaign.words", outcome="escaped")
        recovered = registry.counter("campaign.words", outcome="recovered")
        assert detected == row.detected_words
        assert escaped == row.escaped_words
        assert recovered == row.words - row.detected_words - row.escaped_words
        assert registry.merge_counters(["campaign.words"]) == row.words
        assert registry.gauge("campaign.rate") == pytest.approx(1e-3)

    def test_tier_counters_reconcile_with_ladder(self, metered_campaigns):
        (result, registry, _), _ = metered_campaigns
        (row,) = result.rows
        for tier, count in row.tier_counts.items():
            assert registry.counter("recovery.words", tier=tier) == count, tier

    def test_exercised_instrumentation_recorded_something(
        self, metered_campaigns
    ):
        (_, registry, tracer), _ = metered_campaigns
        assert registry.merge_counters(["core.reads.batch"]) > 0
        assert registry.merge_counters(["faults.injected_cells"]) > 0
        assert registry.histogram("retry.attempts", scheme="nondestructive self-reference")
        assert tracer.events(READ_ISSUED)
