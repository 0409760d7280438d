"""Wafer-scale production test and trim.

The paper's test-stage β compensation only matters if a production flow
can actually apply it: this package is that flow, end to end, at wafer
scale.  It sits between the fault/recovery layer (whose fault models and
ECC it consumes) and the serving layer (whose per-die retry budgets and
trim codes it provisions):

* :mod:`~repro.prodtest.march` — march-test engine (MATS+, March C-, and
  a disturb-aware STT-RAM march) executed with a deterministic
  margin-scan read mode, classifying failures per the STT-MRAM fault
  taxonomy and scoring coverage against injected ground truth;
* :mod:`~repro.prodtest.characterize` — per-die binary-search trim over
  the discrete trim-code lattice (β for the self-referenced schemes,
  ``V_REF`` for conventional sensing) against a repair-aware pass/fail
  shmoo, plus sense-current and retry-budget provisioning;
* :mod:`~repro.prodtest.wafer` — wafer Monte-Carlo driver on the reserved
  ``(seed, prodtest)`` RNG stream: die-level systematics over within-die
  variation, fault strike, then test → characterize → repair → ECC →
  ship per die, chunked over thousands of dies and bit-exact with a
  one-die-per-chunk run;
* :mod:`~repro.prodtest.report` — shipping yield, test time, and
  cost-per-good-bit economics per sensing scheme, published through
  :mod:`repro.obs` gauges;
* :mod:`~repro.prodtest.flow` — the original single-die flow and the
  β-trim skew experiment.

Example — test a small wafer and read off the economics::

    from repro.prodtest import WaferConfig, build_wafer, run_wafer, summarize

    result = run_wafer(build_wafer(WaferConfig(dies=256)))
    summary = summarize(result)
    print(f"yield {summary.ship_rate:.1%}, "
          f"{summary.mean_test_seconds * 1e3:.2f} ms/die, "
          f"coverage {summary.coverage['overall']:.1%}")
"""

from repro.prodtest.characterize import (
    CharacterizeConfig,
    CharacterizeResult,
    TrimRecord,
    characterize_dies,
    knob_bounds,
)
from repro.prodtest.flow import (
    DieResult,
    TestFlowConfig,
    run_test_flow,
    trim_skew_experiment,
    yield_curve,
)
from repro.prodtest.march import (
    DISTURB_THRESHOLD,
    MARCH_C_MINUS,
    MARCH_STTRAM,
    MARCH_TESTS,
    MATS_PLUS,
    MarchElement,
    MarchResult,
    MarchTest,
    march_seconds,
    run_march_test,
)
from repro.prodtest.report import (
    CostModel,
    WaferSummary,
    compare_schemes,
    publish_wafer_report,
    summarize,
)
from repro.prodtest.wafer import (
    Wafer,
    WaferConfig,
    WaferResult,
    build_wafer,
    default_die_faults,
    run_wafer,
)

__all__ = [
    "MarchElement",
    "MarchTest",
    "MarchResult",
    "MATS_PLUS",
    "MARCH_C_MINUS",
    "MARCH_STTRAM",
    "MARCH_TESTS",
    "DISTURB_THRESHOLD",
    "run_march_test",
    "march_seconds",
    "CharacterizeConfig",
    "CharacterizeResult",
    "TrimRecord",
    "characterize_dies",
    "knob_bounds",
    "WaferConfig",
    "Wafer",
    "WaferResult",
    "build_wafer",
    "run_wafer",
    "default_die_faults",
    "CostModel",
    "WaferSummary",
    "summarize",
    "compare_schemes",
    "publish_wafer_report",
    "DieResult",
    "TestFlowConfig",
    "run_test_flow",
    "yield_curve",
    "trim_skew_experiment",
]
