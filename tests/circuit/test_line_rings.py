"""The line groups' wave histories are rings of ``koff_max + 2`` rows.

Each group is stepped over a random solution sequence and its RHS stamps
are compared, bit for bit, with an oracle written here that keeps every
wave row of the run and does the delayed lookup on the full history (the
interpolation between the two rows around ``k - td/dt``, clamped to row
0 before a wave arrives and to the newest row after it).  Every run
wraps its ring many times, and the cases cover a delay that is no
integer number of steps, delays of at most one step (the clamped,
non-interior lookup) and one group whose lines have different delays.
"""

import math

import numpy as np
import pytest

from repro.circuit import CoupledIdealLine, IdealLine
from repro.circuit.companion import build_companion_groups

DT = 25e-12
N_STEPS = 5000


def _koff(d: float) -> int:
    """Rows of delay of a ``d``-step delay, as the groups round it."""
    return math.ceil(d - 1e-12)


def _delayed(H: list, k: int, d: float) -> np.ndarray:
    """The wave of delay ``d`` steps seen while stamping step ``k``, from
    the full history ``H`` (rows ``0..k-1``)."""
    koff = _koff(d)
    frac = koff - d
    j = k - koff
    if j < 0:
        return H[0]
    if j >= k - 1:
        return H[k - 1]
    return (1.0 - frac) * H[j] + frac * H[j + 1]


def _bound(el, nodes, branches):
    el.bind(nodes)
    el.assign_branches(branches)
    return el


def _scalar_lines(delays):
    """Scalar lines of ``delays`` (in steps), each on its own two nodes
    and branches; the first line's far end is grounded."""
    els, size = [], 0
    for e, d in enumerate(delays):
        p2 = -1 if e == 0 else size + 1
        els.append(_bound(IdealLine(f"t{e}", "a", "b", 40.0 + 10.0 * e,
                                    d * DT),
                          [size, p2], [size + 2, size + 3]))
        size += 4
    return els, size


def _waves(el, x: np.ndarray) -> np.ndarray:
    """``[a1, a2] = v + z0 i`` of a scalar line's two ends."""
    v = np.array([x[p] if p >= 0 else 0.0 for p in el.nodes])
    return v + el.z0 * x[el.branches]


def _run(els, size, seed=0):
    """Step a group of ``els`` ``N_STEPS`` times over random solutions;
    yields ``(group, rhs, x_history)`` after each stamp."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(size)]
    comp = build_companion_groups(els, DT, xs[0])
    for _ in range(N_STEPS):
        rhs = np.zeros(size)
        comp.add_rhs(rhs)
        yield comp, rhs, xs
        xs.append(rng.standard_normal(size))
        comp.update(xs[-1])


@pytest.mark.parametrize("delays", [
    (7.3,),                  # td/dt no integer
    (0.6, 1.0),              # td <= dt: the clamped, non-interior path
    (0.6, 7.3, 13.0, 40.5),  # one group, different delays
    (1.5, 2.0, 97.25),       # interior; the longest ring wraps 50 times
], ids=["fractional", "short", "mixed-with-short", "mixed-interior"])
def test_ideal_line_ring_matches_full_history(delays):
    els, size = _scalar_lines(delays)
    delays = [el.td / DT for el in els]   # as the group divides them
    H = {el.name: [] for el in els}
    ring = max(_koff(d) for d in delays) + 2
    assert N_STEPS > 3 * ring
    for k, (comp, rhs, xs) in enumerate(_run(els, size), start=1):
        want = np.zeros(size)
        for el, d in zip(els, delays):
            rows = H[el.name]
            rows.append(_waves(el, xs[-1]))
            a1, a2 = _delayed(rows, k, d)
            b1, b2 = el.branches
            want[b1] += a2
            want[b2] += a1
        np.testing.assert_array_equal(rhs, want, err_msg=f"step {k}")
    (group,) = comp.groups
    assert group._hist.shape[0] == ring
    assert comp.history_nbytes == ring * len(els) * 2 * 8


L2 = np.array([[3.0e-7, 0.6e-7], [0.6e-7, 3.0e-7]])
C2 = np.array([[1.2e-10, -0.3e-10], [-0.3e-10, 1.2e-10]])


def _coupled_lines(lengths):
    """Two-conductor coupled lines of ``lengths`` (m), each on its own
    four nodes and branches; the first line's far end is grounded."""
    els, size = [], 0
    for e, length in enumerate(lengths):
        far = [-1, -1] if e == 0 else [size + 2, size + 3]
        els.append(_bound(CoupledIdealLine(f"c{e}", ["a", "b"], ["c", "d"],
                                           L2, C2, length),
                          [size, size + 1, *far],
                          list(range(size + 4, size + 8))))
        size += 8
    return els, size


def _modal_waves(el, x: np.ndarray, first: bool) -> np.ndarray:
    """``[W^T v1 + zm i1, W^T v2 + zm i2]`` of a coupled line, written
    as the group writes its first row (``first``) and every later one."""
    n = el.n
    out = []
    for end in (0, 1):
        nodes = el.nodes[end * n:(end + 1) * n]
        v = np.array([x[p] if p >= 0 else 0.0 for p in nodes])
        i = x[el.branches[end * n:(end + 1) * n]]
        vm = el.W.T @ v if first else np.einsum("ki,k->i", el.W, v)
        out.append(vm + el.zm * i)
    return np.concatenate(out)


@pytest.mark.parametrize("lengths", [
    (0.103,),          # modal delays no integer number of steps
    (0.103, 0.0041),   # modes within one step: the non-interior path
    (0.103, 0.357),    # one group, different delays
], ids=["fractional", "short", "mixed"])
def test_coupled_line_ring_matches_full_history(lengths):
    els, size = _coupled_lines(lengths)
    delays = {el.name: el.td / DT for el in els}
    assert all(abs(d - round(d)) > 1e-3
               for ds in delays.values() for d in ds)
    koff_max = max(_koff(d) for ds in delays.values() for d in ds)
    ring = koff_max + 2
    assert N_STEPS > 3 * ring
    H = {el.name: [] for el in els}
    for k, (comp, rhs, xs) in enumerate(_run(els, size, seed=1), start=1):
        want = np.zeros(size)
        for el in els:
            n = el.n
            rows = H[el.name]
            rows.append(_modal_waves(el, xs[-1], first=k == 1))
            for m, d in enumerate(delays[el.name]):
                a = _delayed(rows, k, d)
                want[el.branches[m]] += a[n + m]
                want[el.branches[n + m]] += a[m]
        np.testing.assert_array_equal(rhs, want, err_msg=f"step {k}")
    (group,) = comp.groups
    assert group._hist.shape[0] == ring
    assert comp.history_nbytes == ring * len(els) * 2 * 2 * 8
