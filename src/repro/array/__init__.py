"""Memory-array modelling: behavioural arrays, Monte-Carlo margins, yield
analysis, and the 16kb test-chip experiment (paper Fig. 11).

The die-level test flow lives a layer above, in :mod:`repro.prodtest.flow`.
"""

from repro.array.array import STTRAMArray, WordReadResult
from repro.array.organization import ArrayOrganization, BankThroughput, bank_throughput, throughput_comparison
from repro.array.montecarlo import MonteCarloMargins, SchemeMargins, run_margin_monte_carlo
from repro.array.repair import RepairPlan, allocate_repair
from repro.array.stress import StressReport, run_read_stress
from repro.array.testchip import (
    TESTCHIP_VARIATION,
    BehavioralReadSummary,
    TestChip,
    TestChipResult,
    run_testchip_behavioral,
    run_testchip_experiment,
)
from repro.array.yield_analysis import MarginStatistics, YieldReport, analyze_margins

__all__ = [
    "STTRAMArray",
    "WordReadResult",
    "ArrayOrganization",
    "BankThroughput",
    "bank_throughput",
    "throughput_comparison",
    "SchemeMargins",
    "MonteCarloMargins",
    "run_margin_monte_carlo",
    "MarginStatistics",
    "YieldReport",
    "analyze_margins",
    "RepairPlan",
    "allocate_repair",
    "StressReport",
    "run_read_stress",
    "TESTCHIP_VARIATION",
    "TestChip",
    "TestChipResult",
    "BehavioralReadSummary",
    "run_testchip_experiment",
    "run_testchip_behavioral",
]
