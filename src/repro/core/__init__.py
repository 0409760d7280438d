"""The paper's contribution: STT-RAM sensing schemes and their analysis.

Three schemes are implemented behind a common interface:

* :class:`~repro.core.conventional.ConventionalSensing` — one read compared
  against a shared external reference voltage (paper Eqs. 1–2); fails for
  tail bits under large MTJ variation.
* :class:`~repro.core.destructive.DestructiveSelfReference` — prior-art
  self-reference (paper Fig. 3, Eqs. 3–5): read, erase to "0", read again at
  a larger current, compare, write back.
* :class:`~repro.core.nondestructive.NondestructiveSelfReference` — the
  paper's proposal (Fig. 5, Eqs. 6–10): two reads at different currents and
  a voltage divider; no write pulse ever touches the cell.

Plus the read-current-ratio optimizers (Eqs. 5/10) and the robustness
analysis (Eqs. 11–20) behind the paper's Figs. 6–8 and Table II.
"""

from repro.core.base import ReadResult, SensingScheme
from repro.core.batch import BatchReadResult, materialize_cell
from repro.core.cell import Cell1T1J
from repro.core.conventional import ConventionalSensing, shared_reference_voltage
from repro.core.destructive import DestructiveSelfReference
from repro.core.margins import (
    MarginPair,
    conventional_margins,
    destructive_margins,
    nondestructive_margins,
    population_conventional_margins,
    population_destructive_margins,
    population_nondestructive_margins,
)
from repro.core.nondestructive import NondestructiveSelfReference
from repro.core.retry import (
    BatchRetryResult,
    RetryPolicy,
    read_many_with_retry,
    read_with_retry,
)
from repro.core.optimize import (
    BetaOptimum,
    closed_form_beta_destructive,
    closed_form_beta_nondestructive,
    optimize_beta_destructive,
    optimize_beta_nondestructive,
)
from repro.core.reference import (
    ReferenceColumn,
    build_reference_column,
    sample_reference_errors,
)
from repro.core.trim import TrimResult, beta_compensating_alpha, trim_population_beta
from repro.core.robustness import (
    RobustnessSummary,
    alpha_deviation_window,
    robustness_summary,
    rtr_shift_window_destructive,
    rtr_shift_window_nondestructive,
    valid_beta_window_destructive,
    valid_beta_window_nondestructive,
)

__all__ = [
    "Cell1T1J",
    "SensingScheme",
    "ReadResult",
    "BatchReadResult",
    "materialize_cell",
    "RetryPolicy",
    "BatchRetryResult",
    "read_with_retry",
    "read_many_with_retry",
    "ConventionalSensing",
    "shared_reference_voltage",
    "DestructiveSelfReference",
    "NondestructiveSelfReference",
    "MarginPair",
    "conventional_margins",
    "destructive_margins",
    "nondestructive_margins",
    "population_conventional_margins",
    "population_destructive_margins",
    "population_nondestructive_margins",
    "BetaOptimum",
    "optimize_beta_destructive",
    "optimize_beta_nondestructive",
    "closed_form_beta_destructive",
    "closed_form_beta_nondestructive",
    "ReferenceColumn",
    "build_reference_column",
    "sample_reference_errors",
    "TrimResult",
    "beta_compensating_alpha",
    "trim_population_beta",
    "RobustnessSummary",
    "robustness_summary",
    "valid_beta_window_destructive",
    "valid_beta_window_nondestructive",
    "rtr_shift_window_destructive",
    "rtr_shift_window_nondestructive",
    "alpha_deviation_window",
]
