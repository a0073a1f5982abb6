"""Companion-model history of the linear reactive and delayed elements.

A transient analysis of an EMC test bench is dominated by reactive and
delayed elements (RC ladders, lumped line sections, coupled-line cascades).
Their history -- the companion currents of the theta method and the
delayed waves of Branin lines -- lives here and only here: the analysis
gathers same-shaped elements of a circuit into struct-of-arrays groups,
so the per-step RHS contribution and the post-step history advance
collapse to a handful of numpy operations regardless of the element count:

* :class:`Capacitor` / :class:`Inductor` -- plain two-terminal companions,
* :class:`CoupledInductors` / :class:`CapacitanceMatrix` -- matrix
  companions, batched per conductor count with one ``einsum`` per step,
* :class:`IdealLine` -- scalar Branin lines, batched with a shared wave
  history and precomputed constant interpolation fractions,
* :class:`CoupledIdealLine` -- modal Branin lines, batched per conductor
  count with a shared wave history and vectorized delayed-lookup
  interpolation.

A line group's wave history is a ring of its longest delay's rows plus
two, so it grows with the delay, not with the run length.

A circuit with one such element is a group of one.  The C/L groups load
their state from the elements after ``init_state`` (which applies an
element's ``ic``) and write it back in :meth:`CompanionGroups.flush` when
the analysis ends, so post-run accessors (``Capacitor.current`` etc.)
keep working.  The line groups seed their first wave row from the initial
solution ``x0`` themselves; line elements keep no wave history, so a
circuit re-run (or solved at DC) after an analysis starts afresh.

For the grid-batched backend (:mod:`repro.circuit.batch`) the same groups
also span *multiple circuits at once*: ``build_companion_groups`` accepts a
per-element index ``offsets`` map shifting every node/branch index by the
owning member's slot in a flat ``(n_members * size,)`` solution vector, so
one group advances the companion state of a whole scenario batch per step.
"""

from __future__ import annotations

import numpy as np

from .elements.rlc import (CapacitanceMatrix, Capacitor, CoupledInductors,
                           Inductor)
from .elements.tline import CoupledIdealLine, IdealLine

__all__ = ["CompanionGroups", "build_companion_groups"]


def _off_array(els, offsets) -> np.ndarray:
    """Per-element flat-vector offsets (all zero for a single circuit)."""
    if offsets is None:
        return np.zeros(len(els), dtype=np.intp)
    return np.array([offsets.get(id(el), 0) for el in els], dtype=np.intp)


class _CapacitorGroup:
    """All plain two-terminal capacitors of a circuit, as arrays."""

    def __init__(self, caps: list[Capacitor], offsets=None):
        self.caps = caps
        off = _off_array(caps, offsets)
        a = np.array([c.nodes[0] for c in caps], dtype=np.intp)
        b = np.array([c.nodes[1] for c in caps], dtype=np.intp)
        self.mask_a = a >= 0
        self.mask_b = b >= 0
        self.ia = (a + off)[self.mask_a]
        self.ib = (b + off)[self.mask_b]
        # ground terminals read x[0] via the clipped index but are masked out
        self.a_clip = np.where(self.mask_a, a + off, 0)
        self.b_clip = np.where(self.mask_b, b + off, 0)
        self.geq = np.array([c._geq for c in caps])
        self.beta = (1.0 - caps[0]._theta) / caps[0]._theta
        self.v_prev = np.array([c._v_prev for c in caps])
        self.i_prev = np.array([c._i_prev for c in caps])

    def _vab(self, x: np.ndarray) -> np.ndarray:
        return (x[self.a_clip] * self.mask_a) - (x[self.b_clip] * self.mask_b)

    def add_rhs(self, rhs: np.ndarray) -> None:
        ieq = self.geq * self.v_prev + self.beta * self.i_prev
        np.add.at(rhs, self.ia, ieq[self.mask_a])
        np.subtract.at(rhs, self.ib, ieq[self.mask_b])

    def update(self, x: np.ndarray) -> None:
        v_new = self._vab(x)
        self.i_prev = self.geq * (v_new - self.v_prev) \
            - self.beta * self.i_prev
        self.v_prev = v_new

    def flush(self) -> None:
        for c, v, i in zip(self.caps, self.v_prev, self.i_prev):
            c._v_prev = float(v)
            c._i_prev = float(i)


class _InductorGroup:
    """All plain two-terminal inductors of a circuit, as arrays."""

    def __init__(self, inds: list[Inductor], offsets=None):
        self.inds = inds
        off = _off_array(inds, offsets)
        self.br = np.array([el.branches[0] for el in inds],
                           dtype=np.intp) + off
        a = np.array([el.nodes[0] for el in inds], dtype=np.intp)
        b = np.array([el.nodes[1] for el in inds], dtype=np.intp)
        self.mask_a = a >= 0
        self.mask_b = b >= 0
        self.a_clip = np.where(self.mask_a, a + off, 0)
        self.b_clip = np.where(self.mask_b, b + off, 0)
        self.req = np.array([el._req for el in inds])
        self.beta = (1.0 - inds[0]._theta) / inds[0]._theta
        self.i_prev = np.array([el._i_prev for el in inds])
        self.v_prev = np.array([el._v_prev for el in inds])

    def add_rhs(self, rhs: np.ndarray) -> None:
        rhs[self.br] += -self.req * self.i_prev - self.beta * self.v_prev

    def update(self, x: np.ndarray) -> None:
        self.i_prev = x[self.br].copy()
        self.v_prev = (x[self.a_clip] * self.mask_a) \
            - (x[self.b_clip] * self.mask_b)

    def flush(self) -> None:
        for el, i, v in zip(self.inds, self.i_prev, self.v_prev):
            el._i_prev = float(i)
            el._v_prev = float(v)


class _CoupledInductorsGroup:
    """All N-conductor :class:`CoupledInductors` of one size, batched.

    Branch indices are unique per element, so the RHS scatter is a plain
    fancy-index add; the matrix companion current is one batched ``einsum``
    over the stacked ``(n_el, n, n)`` equivalent-resistance tensor.
    """

    def __init__(self, els: list[CoupledInductors], offsets=None):
        self.els = els
        n = els[0].n
        off = _off_array(els, offsets)[:, None]
        self.br = np.array([el.branches for el in els], dtype=np.intp) + off
        a = np.array([[el.nodes[2 * k] for k in range(n)]
                      for el in els], dtype=np.intp)
        b = np.array([[el.nodes[2 * k + 1] for k in range(n)]
                      for el in els], dtype=np.intp)
        self.mask_a = a >= 0
        self.mask_b = b >= 0
        self.a_clip = np.where(self.mask_a, a + off, 0)
        self.b_clip = np.where(self.mask_b, b + off, 0)
        self.Req = np.array([el._Req for el in els])
        self.beta = (1.0 - els[0]._theta) / els[0]._theta
        self.i_prev = np.array([el._i_prev for el in els])
        self.v_prev = np.array([el._v_prev for el in els])
        self.br_flat = self.br.ravel()

    def add_rhs(self, rhs: np.ndarray) -> None:
        vals = -np.einsum("eij,ej->ei", self.Req, self.i_prev) \
            - self.beta * self.v_prev
        rhs[self.br_flat] += vals.ravel()

    def update(self, x: np.ndarray) -> None:
        self.i_prev = x[self.br]
        self.v_prev = (x[self.a_clip] * self.mask_a) \
            - (x[self.b_clip] * self.mask_b)

    def flush(self) -> None:
        for k, el in enumerate(self.els):
            el._i_prev = self.i_prev[k].copy()
            el._v_prev = self.v_prev[k].copy()


class _CapacitanceMatrixGroup:
    """All N-node :class:`CapacitanceMatrix` elements of one size, batched.

    Node indices may repeat across elements (shared junctions), so the
    injection scatter uses ``np.add.at``.
    """

    def __init__(self, els: list[CapacitanceMatrix], offsets=None):
        self.els = els
        off = _off_array(els, offsets)[:, None]
        self.nodes = np.array([el.nodes for el in els], dtype=np.intp) + off
        raw = self.nodes - off
        self.mask = raw >= 0
        self.clip = np.where(self.mask, self.nodes, 0)
        self.Geq = np.array([el._Geq for el in els])
        self.beta = (1.0 - els[0]._theta) / els[0]._theta
        self.v_prev = np.array([el._v_prev for el in els])
        self.i_prev = np.array([el._i_prev for el in els])
        self.nodes_live = self.nodes[self.mask]
        self.mask_flat = self.mask.ravel()

    def add_rhs(self, rhs: np.ndarray) -> None:
        ieq = np.einsum("eij,ej->ei", self.Geq, self.v_prev) \
            + self.beta * self.i_prev
        np.add.at(rhs, self.nodes_live, ieq.ravel()[self.mask_flat])

    def update(self, x: np.ndarray) -> None:
        v_new = x[self.clip] * self.mask
        # Geq = C/(theta*dt): the same matrix the element update uses
        self.i_prev = np.einsum("eij,ej->ei", self.Geq,
                                v_new - self.v_prev) \
            - self.beta * self.i_prev
        self.v_prev = v_new

    def flush(self) -> None:
        for k, el in enumerate(self.els):
            el._v_prev = self.v_prev[k].copy()
            el._i_prev = self.i_prev[k].copy()


class _CoupledLineGroup:
    """All N-conductor :class:`CoupledIdealLine` elements of one size.

    The modal waves of every line live in one ``(koff_max + 2, n_el,
    2n)`` ring shared by the whole group: step ``k`` reads rows ``k -
    koff_max`` to ``k - 1`` at most, and row ``k`` lands in slot ``k %
    (koff_max + 2)``.  The delayed lookups of every mode of every line
    collapse to two gathers and a vectorized interpolation (linear
    between accepted steps, clamped to the first row before a wave
    arrives and to the newest row after it).  A wave that has not
    arrived means fewer than ``koff_max`` rows, so the ring has not
    wrapped and slot 0 still holds the first row.
    """

    def __init__(self, els: list[CoupledIdealLine], dt: float,
                 x0: np.ndarray, offsets=None):
        self.dt = float(dt)
        n = els[0].n
        self.n = n
        n_el = len(els)
        off = _off_array(els, offsets)[:, None]
        self.br1 = np.array([el.branches[:n] for el in els],
                            dtype=np.intp) + off
        self.br2 = np.array([el.branches[n:] for el in els],
                            dtype=np.intp) + off
        n1 = np.array([el.nodes[:n] for el in els], dtype=np.intp)
        n2 = np.array([el.nodes[n:] for el in els], dtype=np.intp)
        self.m1 = n1 >= 0
        self.m2 = n2 >= 0
        self.c1 = np.where(self.m1, n1 + off, 0)
        self.c2 = np.where(self.m2, n2 + off, 0)
        self.W = np.array([el.W for el in els])          # (n_el, n, n)
        self.zm = np.array([el.zm for el in els])        # (n_el, n)
        self.td = np.array([el.td for el in els])        # (n_el, n)
        self.br1_flat = self.br1.ravel()
        self.br2_flat = self.br2.ravel()
        self._e_idx = np.arange(n_el)[:, None]
        self._m_near = np.broadcast_to(np.arange(n)[None, :], (n_el, n))
        self._m_far = self._m_near + n
        # The analysis advances on the fixed grid t_k = k*dt and this group
        # stamps exactly once per step, so the delayed-lookup position of
        # mode (e, m) at step k is k - td/dt: an integer row offset plus a
        # *constant* interpolation fraction.  Precompute both; the per-step
        # lookup is then pure gathering.
        d = self.td / self.dt
        self._koff = np.ceil(d - 1e-12).astype(np.intp)   # rows of delay
        self._frac = self._koff - d                        # in [0, 1)
        self._one_m_frac = 1.0 - self._frac
        self._koff_max = int(self._koff.max())
        self._interior = int(self._koff.min()) >= 2
        # wave history: row k holds [a1_modes, a2_modes] accepted at t_k,
        # in slot k % (koff_max + 2); row 0 is each line's own
        # W^T v + zm i at the initial solution
        self._hist = np.empty((self._koff_max + 2, n_el, 2 * n))
        for e, el in enumerate(els):
            v1 = np.where(self.m1[e], x0[self.c1[e]], 0.0)
            v2 = np.where(self.m2[e], x0[self.c2[e]], 0.0)
            self._hist[0, e, :n] = el.W.T @ v1 + el.zm * x0[self.br1[e]]
            self._hist[0, e, n:] = el.W.T @ v2 + el.zm * x0[self.br2[e]]
        self._rows = 1

    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated (a1, a2) of every mode at its own delayed time.

        Called while stamping step ``k = self._rows`` (rows ``0..k-1`` are
        recorded, the newest ``koff_max + 2`` of them in the ring): clamp
        to row 0 before the wave arrives and to the newest row at the
        record end.
        """
        H, ring = self._hist, self._hist.shape[0]
        e, mn, mf = self._e_idx, self._m_near, self._m_far
        nrow = self._rows
        if nrow == 1:
            return H[0, e, mn], H[0, e, mf]
        k_idx = nrow - self._koff
        if self._interior and nrow > self._koff_max:
            # steady state: every mode reads strictly inside the record
            k0, k1 = k_idx % ring, (k_idx + 1) % ring
            a1 = self._one_m_frac * H[k0, e, mn] \
                + self._frac * H[k1, e, mn]
            a2 = self._one_m_frac * H[k0, e, mf] \
                + self._frac * H[k1, e, mf]
            return a1, a2
        kc = np.clip(k_idx, 0, nrow - 2)
        k0, k1 = kc % ring, (kc + 1) % ring
        frac = self._frac
        a1 = (1.0 - frac) * H[k0, e, mn] + frac * H[k1, e, mn]
        a2 = (1.0 - frac) * H[k0, e, mf] + frac * H[k1, e, mf]
        low = k_idx < 0           # t_delayed <= 0: wave not yet arrived
        high = k_idx >= nrow - 1  # beyond the newest recorded row
        if low.any():
            a1 = np.where(low, H[0, e, mn], a1)
            a2 = np.where(low, H[0, e, mf], a2)
        if high.any():
            a1 = np.where(high, H[(nrow - 1) % ring, e, mn], a1)
            a2 = np.where(high, H[(nrow - 1) % ring, e, mf], a2)
        return a1, a2

    def add_rhs(self, rhs: np.ndarray) -> None:
        a1, a2 = self._lookup()
        # each end's Thevenin EMF is the wave launched from the *other* end
        rhs[self.br1_flat] += a2.ravel()
        rhs[self.br2_flat] += a1.ravel()

    def update(self, x: np.ndarray) -> None:
        v1 = x[self.c1] * self.m1
        v2 = x[self.c2] * self.m2
        vm1 = np.einsum("eki,ek->ei", self.W, v1)        # W^T v per line
        vm2 = np.einsum("eki,ek->ei", self.W, v2)
        a1 = vm1 + self.zm * x[self.br1]
        a2 = vm2 + self.zm * x[self.br2]
        row = self._hist[self._rows % self._hist.shape[0]]
        row[:, :self.n] = a1
        row[:, self.n:] = a2
        self._rows += 1


class _IdealLineGroup:
    """All scalar :class:`IdealLine` elements of a circuit, batched.

    The incident waves ``a = v + z0*i`` of both ends of every line live in
    one ``(koff_max + 2, n_el, 2)`` ring shared by the group, row ``k``
    in slot ``k % (koff_max + 2)``.  As in :class:`_CoupledLineGroup`,
    the fixed grid makes the delayed lookup of element ``e`` at step
    ``k`` a constant row offset ``k - ceil(td/dt)`` plus a constant
    interpolation fraction, both precomputed, with the same clamping at
    the record ends.  Every per-line constant is stored at the ``(n_el,
    2)`` shape of a row, so a step is a few gathers (``take`` with
    ``mode="wrap"``, which folds a row index into the ring) and
    contiguous ufuncs.
    """

    def __init__(self, els: list[IdealLine], dt: float, x0: np.ndarray,
                 offsets=None):
        self.dt = float(dt)
        n_el = len(els)
        off = _off_array(els, offsets)[:, None]
        br = np.array([el.branches for el in els], dtype=np.intp) + off
        ports = np.array([el.nodes for el in els], dtype=np.intp)
        self.br = br                               # (n_el, 2): [b1, b2]
        self.m = (ports >= 0).astype(float)        # 0 at a grounded port
        self.c = np.where(ports >= 0, ports + off, 0)
        # each end's Thevenin EMF is the wave launched from the other end
        self.emf = br[:, ::-1].ravel()
        self.z0 = np.repeat([[el.z0] for el in els], 2, axis=1)
        d = np.array([el.td for el in els]) / self.dt
        self._koff = np.ceil(d - 1e-12).astype(np.intp)   # rows of delay
        frac = self._koff - d                              # in [0, 1)
        self._frac = np.repeat(frac[:, None], 2, axis=1)
        self._one_m_frac = 1.0 - self._frac
        self._koff_max = int(self._koff.max())
        self._interior = int(self._koff.min()) >= 2
        self._e_idx = np.arange(n_el)
        # index of line e's delayed row among the (n_el, 2) rows of the
        # flattened history, less nrow * n_el
        self._flat = self._e_idx - self._koff * n_el
        # row k holds [a1, a2] accepted at t_k, in slot k % (koff_max + 2);
        # row 0 the initial solution's
        self._hist = np.empty((self._koff_max + 2, n_el, 2))
        self._record(x0, self._hist[0])
        self._rows = 1

    def _record(self, x: np.ndarray, row: np.ndarray) -> None:
        """Write the waves ``v + z0*i`` of solution ``x`` into ``row``."""
        np.multiply(x.take(self.c), self.m, out=row)
        row += self.z0 * x.take(self.br)

    def _rows_at(self, k: np.ndarray) -> np.ndarray:
        """``[a1, a2]`` of line ``e`` at history row ``k[e]`` (n_el, 2)."""
        n_el = self._e_idx.size
        return self._hist.reshape(-1, 2).take(k * n_el + self._e_idx,
                                              axis=0, mode="wrap")

    def _lookup(self) -> np.ndarray:
        """Interpolated ``[a1, a2]`` (n_el, 2) of every line at its own
        delayed time."""
        H = self._hist
        nrow = self._rows
        if nrow == 1:
            return H[0]
        if self._interior and nrow > self._koff_max:
            # steady state: every line reads strictly inside the record
            n_el = self._e_idx.size
            rows = H.reshape(-1, 2)
            at = self._flat + nrow * n_el
            return self._one_m_frac * rows.take(at, axis=0, mode="wrap") \
                + self._frac * rows.take(at + n_el, axis=0, mode="wrap")
        k_idx = nrow - self._koff
        kc = np.clip(k_idx, 0, nrow - 2)
        a = self._one_m_frac * self._rows_at(kc) \
            + self._frac * self._rows_at(kc + 1)
        low = k_idx < 0           # t_delayed <= 0: wave not yet arrived
        high = k_idx >= nrow - 1  # beyond the newest recorded row
        if low.any():
            a = np.where(low[:, None], H[0], a)
        if high.any():
            a = np.where(high[:, None], H[(nrow - 1) % H.shape[0]], a)
        return a

    def add_rhs(self, rhs: np.ndarray) -> None:
        rhs[self.emf] += self._lookup().ravel()

    def update(self, x: np.ndarray) -> None:
        self._record(x, self._hist[self._rows % self._hist.shape[0]])
        self._rows += 1


class CompanionGroups:
    """The companion groups of one analysis, stepped together."""

    def __init__(self, groups):
        self.groups = groups

    def add_rhs(self, rhs: np.ndarray) -> None:
        for g in self.groups:
            g.add_rhs(rhs)

    def update(self, x: np.ndarray) -> None:
        for g in self.groups:
            g.update(x)

    def flush(self) -> None:
        """Write the C/L state back onto the elements (line groups keep
        none there)."""
        for g in self.groups:
            if hasattr(g, "flush"):
                g.flush()

    @property
    def history_nbytes(self) -> int:
        """Bytes of the line groups' wave-history rings."""
        return sum(g._hist.nbytes for g in self.groups
                   if hasattr(g, "_hist"))


def _by_size(els):
    """Partition a homogeneous element list into same-``n`` sublists."""
    sizes: dict[int, list] = {}
    for el in els:
        sizes.setdefault(el.n, []).append(el)
    return sizes.values()


def build_companion_groups(elements, dt: float, x0: np.ndarray,
                           offsets: dict | None = None) -> CompanionGroups:
    """Gather the history-carrying elements of ``elements`` into groups.

    Every ``Capacitor``/``Inductor``/``CoupledInductors``/
    ``CapacitanceMatrix``/``IdealLine``/``CoupledIdealLine`` joins the
    group of its type; other elements carry no companion history and are
    skipped.  Matrix and modal-line elements are batched per conductor
    count so their state stacks into rectangular arrays.  ``dt`` is the
    analysis timestep (the delayed-wave lookups of the line groups need
    it) and ``x0`` the initial solution the line groups take their first
    wave row from; the C/L groups read their elements' ``init_state``.

    ``offsets`` maps ``id(element) -> int`` index shifts for the
    grid-batched backend, where elements of several same-topology circuits
    share one flat solution vector ``x0`` (member ``m`` of a batch lives at
    offset ``m * size``).  ``None`` (a single circuit) means no shift.
    """
    def of(cls):
        return [el for el in elements if isinstance(el, cls)]

    groups = []
    caps, inds, ilines = of(Capacitor), of(Inductor), of(IdealLine)
    if caps:
        groups.append(_CapacitorGroup(caps, offsets))
    if inds:
        groups.append(_InductorGroup(inds, offsets))
    for sub in _by_size(of(CoupledInductors)):
        groups.append(_CoupledInductorsGroup(sub, offsets))
    for sub in _by_size(of(CapacitanceMatrix)):
        groups.append(_CapacitanceMatrixGroup(sub, offsets))
    if ilines:
        groups.append(_IdealLineGroup(ilines, dt, x0, offsets))
    for sub in _by_size(of(CoupledIdealLine)):
        groups.append(_CoupledLineGroup(sub, dt, x0, offsets))
    return CompanionGroups(groups)
