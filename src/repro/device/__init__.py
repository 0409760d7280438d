"""MTJ and access-transistor device models.

This package is the silicon substitute for the paper's measured devices: a
parametric MgO magnetic-tunnel-junction model with state-dependent
resistance roll-off versus read current (the physical effect the
nondestructive scheme exploits), a spin-torque switching model (used for the
erase/write-back steps of the destructive scheme and for read-disturb
analysis), the NMOS access transistor, and process-variation sampling.
"""

from repro.device.bias import BiasDrivenRollOff, junction_voltage
from repro.device.llg import MacrospinLLG, SwitchingTrajectory
from repro.device.mtj import MTJDevice, MTJParams, MTJState, PAPER_MTJ_PARAMS
from repro.device.retention import RetentionAnalysis
from repro.device.rolloff import (
    PowerLawRollOff,
    RationalRollOff,
    RollOffModel,
    TabulatedRollOff,
)
from repro.device.ri_curve import RISweep, hysteresis_sweep, static_ri_curve
from repro.device.switching import SwitchingModel
from repro.device.thermal import ThermalModel, derate_params
from repro.device.transistor import (
    AccessTransistor,
    FixedResistanceTransistor,
    LinearRegionTransistor,
    PAPER_TRANSISTOR,
)
from repro.device.variation import CellPopulation, PopulationView, VariationModel
from repro.device.veriloga import export_veriloga

__all__ = [
    "BiasDrivenRollOff",
    "junction_voltage",
    "MacrospinLLG",
    "SwitchingTrajectory",
    "RetentionAnalysis",
    "MTJDevice",
    "MTJParams",
    "MTJState",
    "PAPER_MTJ_PARAMS",
    "RollOffModel",
    "PowerLawRollOff",
    "RationalRollOff",
    "TabulatedRollOff",
    "RISweep",
    "static_ri_curve",
    "hysteresis_sweep",
    "SwitchingModel",
    "ThermalModel",
    "derate_params",
    "AccessTransistor",
    "FixedResistanceTransistor",
    "LinearRegionTransistor",
    "PAPER_TRANSISTOR",
    "VariationModel",
    "CellPopulation",
    "PopulationView",
    "export_veriloga",
]
