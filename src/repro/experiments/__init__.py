"""Experiment drivers: one module per paper figure/table (see DESIGN.md).

The scenario-sweep API historically re-exported here
(:class:`LoadSpec`, :class:`ScenarioRunner`, :func:`scenario_grid`, ...)
now lives in :mod:`repro.studies`; the names keep resolving through this
package (lazily, so importing ``repro.experiments`` does not pay for the
sweep stack) but new code should import from ``repro.studies`` directly.
"""

from . import cache, setups
from ..emc.radiated import AntennaModel
from .cache import SweepDiskCache
from .result import ExperimentResult

__all__ = ["cache", "setups", "ExperimentResult",
           "LoadSpec", "CoupledLoadSpec", "SpectralSpec", "Scenario",
           "ScenarioOutcome", "ScenarioRunner", "SweepResult",
           "SweepDiskCache", "scenario_grid", "CORNERS", "AntennaModel"]

#: sweep names that forward to :mod:`repro.studies` (PEP 562)
_STUDY_NAMES = ("LoadSpec", "CoupledLoadSpec", "SpectralSpec", "Scenario",
                "ScenarioOutcome", "ScenarioRunner", "SweepResult",
                "scenario_grid", "CORNERS")


def __getattr__(name: str):
    """Forward the legacy sweep names to :mod:`repro.studies`."""
    if name in _STUDY_NAMES:
        from .. import studies
        return getattr(studies, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
