"""Experiment drivers: one module per paper figure/table.

The scenario-sweep API (:class:`~repro.studies.LoadSpec`,
:class:`~repro.studies.ScenarioRunner`, ...) lives in
:mod:`repro.studies`.
"""

from . import cache, setups
from ..emc.radiated import AntennaModel
from .cache import SweepDiskCache
from .result import ExperimentResult

__all__ = ["cache", "setups", "ExperimentResult", "SweepDiskCache",
           "AntennaModel"]
