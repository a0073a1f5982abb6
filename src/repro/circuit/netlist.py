"""Circuit container and element base class.

A :class:`Circuit` is a flat netlist: named nodes plus a list of elements.
Hierarchy (subcircuits) is handled by the netlist parser, which flattens
instances with name prefixes before they reach this layer.

Node convention: node names are strings; ``"0"`` and ``"gnd"`` are the ground
reference and map to internal index ``-1``.  All other nodes receive indices
``0 .. n-1`` in creation order.  MNA unknowns are ``[node voltages, branch
currents]``; elements that need branch currents (voltage sources, inductors,
transmission lines, ...) declare them via :attr:`Element.n_branch`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import CircuitError

GROUND_NAMES = frozenset({"0", "gnd", "GND", "ground"})


class Element:
    """Base class for all circuit elements.

    Subclasses override the hooks they need:

    * :meth:`stamp_const` -- time- and state-independent matrix entries
      (resistor conductances, source incidence patterns, controlled-source
      gains).  Called once per analysis (and again if the timestep changes).
    * :meth:`stamp_dynamic` -- timestep-dependent companion conductances of
      reactive elements.  Called whenever ``dt`` or the integration method
      changes.
    * :meth:`stamp_rhs_table` -- the right-hand side of an independent
      source over a whole time grid (a one-point grid for DC).
    * :meth:`stamp_nonlinear` -- per-Newton-iteration linearized stamps of
      nonlinear elements (Jacobian into ``A``, companion current into
      ``b``) for the serial DC solver (:func:`~repro.circuit.dcop.solve_dcop`).
      Only the transistor-level MOSFET and diode have one.
    * :meth:`update_state` -- advances the internal history of an element
      with a scalar stamp after an accepted step.

    Every nonlinear element provides a ``batch_bank`` classmethod: its
    vectorized bank is how the lockstep engine of
    :mod:`repro.circuit.batch`, the only transient engine, evaluates it.

    The companion history of the linear reactive and delayed elements
    (capacitors, inductors, their matrix forms, ideal and coupled lines)
    is not an element hook: the analysis keeps it in the struct-of-arrays
    groups of :mod:`repro.circuit.companion`, chosen by element type.

    ``nonlinear`` must be True for any element whose stamps depend on the
    present unknown vector.
    """

    n_branch = 0
    nonlinear = False

    def __init__(self, name: str, node_names: Sequence[str]):
        self.name = name
        self.node_names = [str(n) for n in node_names]
        self.nodes: list[int] = []      # filled by Circuit.bind()
        self.branches: list[int] = []   # filled by the MNA builder

    # -- lifecycle -----------------------------------------------------------
    def bind(self, nodes: Sequence[int]) -> None:
        """Receive resolved node indices (ground == -1)."""
        self.nodes = list(nodes)

    def assign_branches(self, branches: Sequence[int]) -> None:
        """Receive MNA branch-current unknown indices."""
        self.branches = list(branches)

    def init_state(self, x: np.ndarray, system) -> None:
        """Initialize internal history from a consistent solution ``x``."""

    def prepare(self, dt: float | None, theta: float) -> None:
        """Arm companion-model coefficients for the analysis about to run.

        ``dt is None`` means DC: reactive elements must zero their companion
        terms so capacitors open and inductors short.
        """

    # -- stamping hooks -------------------------------------------------------
    def stamp_const(self, st) -> None:
        """Stamp constant matrix entries into ``st`` (a :class:`Stamper`)."""

    def stamp_dynamic(self, st, dt: float, theta: float) -> None:
        """Stamp timestep-dependent companion conductances."""

    def stamp_rhs_table(self, st, t_grid: np.ndarray) -> None:
        """Stamp the *time-only* RHS contribution for a whole time grid.

        Independent sources override this with a vectorized evaluation over
        ``t_grid``; ``st`` is a :class:`~repro.circuit.mna.TableStamper`
        whose ``add_b`` / ``inject`` accept ``(len(t_grid),)`` arrays.  It is
        evaluated once per analysis (and on a one-point grid at DC), so it
        must depend on time only, never on the solution or its history.
        """

    def stamp_nonlinear(self, st, x: np.ndarray, t: float) -> None:
        """Stamp linearized nonlinear contributions around the iterate ``x``.

        A nonlinear element that does not override this has no scalar
        stamp: only its ``batch_bank`` evaluates it, on the lockstep
        engine of :mod:`repro.circuit.batch`.
        """
        raise CircuitError(f"{type(self).__name__} {self.name!r} has no "
                           "scalar stamp")

    def update_state(self, x: np.ndarray, t: float, dt: float,
                     theta: float) -> None:
        """Advance internal history after a step is accepted."""

    # -- introspection ---------------------------------------------------------
    def breakpoints(self, t_stop: float) -> np.ndarray:
        """Instants where the element's sources have slope discontinuities."""
        return np.empty(0)

    def current(self, x: np.ndarray) -> float:
        """Best-effort terminal current given a solved ``x`` (element-defined)."""
        raise NotImplementedError(f"{type(self).__name__} does not report current")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.node_names}>"


class Circuit:
    """A flat netlist of named nodes and elements."""

    def __init__(self, title: str = ""):
        self.title = title
        self._node_index: dict[str, int] = {}
        self._node_names: list[str] = []
        self.elements: list[Element] = []
        self._element_index: dict[str, Element] = {}

    # -- node management -------------------------------------------------------
    def node(self, name: str) -> int:
        """Return the index of node ``name``, creating it if needed."""
        name = str(name)
        if name in GROUND_NAMES:
            return -1
        if name not in self._node_index:
            self._node_index[name] = len(self._node_names)
            self._node_names.append(name)
        return self._node_index[name]

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_names)

    @property
    def node_names(self) -> list[str]:
        return list(self._node_names)

    def node_name(self, index: int) -> str:
        if index < 0:
            return "0"
        return self._node_names[index]

    def has_node(self, name: str) -> bool:
        return str(name) in GROUND_NAMES or str(name) in self._node_index

    # -- element management -----------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add ``element``, resolving its node names to indices."""
        if element.name in self._element_index:
            raise CircuitError(f"duplicate element name {element.name!r}")
        element.bind([self.node(n) for n in element.node_names])
        self.elements.append(element)
        self._element_index[element.name] = element
        return element

    def extend(self, elements: Iterable[Element]) -> None:
        for el in elements:
            self.add(el)

    def __getitem__(self, name: str) -> Element:
        try:
            return self._element_index[name]
        except KeyError:
            raise CircuitError(f"no element named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._element_index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        """Check basic well-formedness; raise :class:`CircuitError` if broken.

        Every non-ground node must connect to at least two element terminals
        (a single-terminal node has no defined current balance), and at least
        one element must reference ground so voltages have a reference.
        """
        if not self.elements:
            raise CircuitError("empty circuit")
        touch = np.zeros(self.n_nodes, dtype=int)
        grounded = False
        for el in self.elements:
            for idx in el.nodes:
                if idx < 0:
                    grounded = True
                else:
                    touch[idx] += 1
        if not grounded:
            raise CircuitError("no element references the ground node")
        dangling = [self._node_names[i] for i, c in enumerate(touch) if c < 2]
        if dangling:
            raise CircuitError(f"dangling nodes (single connection): {dangling}")

    def breakpoints(self, t_stop: float) -> np.ndarray:
        """Union of all element source breakpoints in ``[0, t_stop]``."""
        pts = [el.breakpoints(t_stop) for el in self.elements]
        pts = [p for p in pts if len(p)]
        if not pts:
            return np.empty(0)
        return np.unique(np.concatenate(pts))
