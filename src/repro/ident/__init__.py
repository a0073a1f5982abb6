"""Identification signals and virtual measurements (paper Sections 2-3)."""

from .dataset import PortRecord
from .experiments import (DEFAULT_TS, Bench, driver_state_bench,
                          driver_switching_bench, measure_forced_port,
                          receiver_bench, record_driver_state,
                          record_driver_switching, record_receiver,
                          run_benches)
from .loads import (ResistiveLoad, SeriesRCLoad,
                    default_identification_loads)

__all__ = [
    "PortRecord", "DEFAULT_TS", "Bench", "run_benches",
    "driver_state_bench", "driver_switching_bench", "receiver_bench",
    "record_driver_state", "record_driver_switching", "record_receiver",
    "measure_forced_port",
    "ResistiveLoad", "SeriesRCLoad", "default_identification_loads",
]
