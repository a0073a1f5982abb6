"""A lockstep group holds its run-long state and its outcomes, no more.

A 32-draw Monte Carlo group of 64-bit patterns into a 1 ns line (the
shape of the benchmark's ``mc_unique`` pass, a quarter of its draws)
must peak, under ``tracemalloc``, within the solution matrix, one
stacked weight timeline, the waveforms copied out of the matrix and a
fixed slack: the line histories are rings of the delay's rows, the
elements view the bank's timelines instead of keeping their own, and
the spectra and the rest of the outcomes are computed after the
solution matrix is released.  Any one of the three undone costs more
than the slack (each was tried).  The group's ``transient.batch`` span
reports that state as ``state_mb``.
"""

import tracemalloc

import pytest

from repro.obs import Tracer, set_tracer
from repro.studies import (Distribution, LoadSpec, SpectralSpec,
                           StochasticSpec, StochasticStudy, TrafficModel)
from repro.studies.simulate import simulate_scenario_batch

N_DRAWS = 32
#: everything else alive at the peak: the linear system's inverse and
#: source tables, the Newton arrays, the memos (0.15 MiB used of it)
SLACK = 0.75 * 2**20


def _items(md2_model):
    study = StochasticStudy(
        loads=LoadSpec(kind="line", z0=50.0, td=1e-9, r=50.0),
        spectral=SpectralSpec(mask="board-b",
                              detectors=("peak", "quasi-peak"), prf=1e6),
        stochastic=StochasticSpec(
            seed=11, n_draws=N_DRAWS,
            traffic=TrafficModel(model="rll", n_bits=64),
            params={"r": Distribution(dist="uniform", low=40.0,
                                      high=60.0)}))
    return [(sc, md2_model) for sc in study.scenarios()]


def test_group_peak_is_its_state_and_its_outcomes(md2_model):
    items = _items(md2_model)
    simulate_scenario_batch(items[:2])   # fill the one-time memos first
    tr = set_tracer(Tracer(collect=True))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outs = simulate_scenario_batch(items)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        set_tracer(None)
    assert all(o.ok for o in outs)
    (batch,) = [s.attrs for s in tr.finished if s.name == "transient.batch"]
    assert batch["members"] == N_DRAWS and not batch["padded_steps"]
    n_steps = int(batch["n_steps"])
    solution = N_DRAWS * (n_steps + 1) * batch["size"] * 8
    # a driver's timeline is two weights per step over n_steps + 2 steps
    timeline = N_DRAWS * (n_steps + 2) * 2 * 8
    # the line's ring: ceil(td / dt) + 2 rows of both ends' waves
    ring = (40 + 2) * N_DRAWS * 2 * 8
    assert batch["state_mb"] == pytest.approx(
        (solution + timeline + ring) / 2**20, rel=1e-12)
    observed = sum(o.v_port.nbytes
                   + sum(p.nbytes for p in o.probes.values()) for o in outs)
    assert peak - base < solution + timeline + observed + SLACK, (
        f"peak {(peak - base) / 2**20:.2f} MiB over a solution matrix of "
        f"{solution / 2**20:.2f}, a timeline of {timeline / 2**20:.2f} and "
        f"observed waveforms of {observed / 2**20:.2f} MiB")
    # what stays is the outcomes: the run-long state is gone
    assert held - base < solution
