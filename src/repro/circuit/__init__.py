"""SPICE-class circuit simulation substrate (MNA, transient, devices).

This subpackage is the simulation engine the whole reproduction stands on:
it generates the "reference" (transistor-level) waveforms that play the role
of lab measurements in the paper, and it simulates the estimated macromodels
as circuit elements for validation.
"""

from . import builders, netlist_io, waveforms
from .batch import batch_signature, run_transient_batch
from .builders import LineSpec, add_lossy_line, add_rlgc_ladder, fit_skin_ladder
from .dcop import OperatingPoint, solve_dcop
from .elements import *  # noqa: F401,F403 -- re-export the element library
from .elements import __all__ as _elements_all
from .mna import MNASystem
from .netlist import Circuit, Element
from .newton import NewtonOptions
from .transient import TransientOptions, TransientResult, run_transient

__all__ = [
    "Circuit", "Element", "MNASystem",
    "NewtonOptions", "TransientOptions", "TransientResult",
    "run_transient", "run_transient_batch", "batch_signature",
    "solve_dcop", "OperatingPoint",
    "LineSpec", "add_lossy_line", "add_rlgc_ladder", "fit_skin_ladder",
    "waveforms", "builders", "netlist_io",
    *_elements_all,
]
