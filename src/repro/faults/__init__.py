"""Fault injection and recovery for the STT-RAM model.

The paper's schemes are judged on *sense margin*; a real memory also has
to survive defects and transients.  This package provides composable,
RNG-seeded fault models (stuck MTJs, read-disturb flips, sense-offset
drift, bit-line noise, destructive-read power failures), an injector that
applies them to cells, populations, or arrays, the retry → ECC → scrub →
repair recovery ladder, and a campaign runner sweeping fault rates on the
16kb test chip while scoring detected / corrected / escaped errors.

Example — strike a small population and score the recovery ladder::

    import numpy as np
    from repro.faults import (
        FaultInjector, StuckShortFault, run_fault_campaign,
    )
    from repro.device.variation import CellPopulation, VariationModel

    # Low-level: inject stuck cells into a population you control.
    population = CellPopulation.sample(
        1024, VariationModel(), rng=np.random.default_rng(7)
    )
    injector = FaultInjector(
        [StuckShortFault(rate=1e-3)], np.random.default_rng(11)
    )
    fault_map = injector.inject_population(population)
    print(f"{fault_map.count} cells struck")

    # High-level: the full rate sweep with retry/ECC/scrub/repair scoring.
    result = run_fault_campaign(rates=(1e-3,), bits=2304, seed=2010)
    result.check(min_recovery=0.99, max_escaped=0)

With observability enabled (``repro.obs.configure(enabled=True)``) the
campaign also returns a deterministic metrics snapshot in
``result.metrics`` whose ``campaign.words{outcome=...}`` counters
reconcile exactly with the per-row recovered/detected/escaped totals.
"""

from repro.faults.campaign import (
    CampaignRow,
    FaultCampaignResult,
    build_scheme,
    default_fault_models,
    run_fault_campaign,
)
from repro.faults.drift import (
    DriftPoint,
    DriftScenario,
    aging_rolloff_shift,
    field_disturbance_window,
    sense_amp_drift_step,
    temperature_ramp,
)
from repro.faults.injector import FaultInjector, FaultMap
from repro.faults.models import (
    BitlineNoiseFault,
    FaultKind,
    PowerFailureFault,
    ReadDisturbFault,
    ReadDisturbProneFault,
    SenseOffsetDrift,
    StuckOpenFault,
    StuckShortFault,
    TransitionFault,
)
from repro.faults.recovery import (
    LostWord,
    RecoveredWord,
    RecoveryController,
    RecoveryTier,
)

__all__ = [
    "FaultKind",
    "StuckShortFault",
    "StuckOpenFault",
    "TransitionFault",
    "ReadDisturbFault",
    "ReadDisturbProneFault",
    "SenseOffsetDrift",
    "BitlineNoiseFault",
    "PowerFailureFault",
    "FaultInjector",
    "FaultMap",
    "RecoveryTier",
    "RecoveredWord",
    "LostWord",
    "RecoveryController",
    "CampaignRow",
    "FaultCampaignResult",
    "build_scheme",
    "default_fault_models",
    "run_fault_campaign",
    "DriftPoint",
    "DriftScenario",
    "temperature_ramp",
    "field_disturbance_window",
    "aging_rolloff_shift",
    "sense_amp_drift_step",
]
