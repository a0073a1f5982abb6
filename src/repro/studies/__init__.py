"""Declarative, pluggable EMC studies over the macromodel engine.

The paper's pitch is that PW-RBF macromodels make system-level transient
assessment cheap; what an EMC engineer actually runs is not one transient
but a *grid* of them -- bit patterns x loads x drivers x process corners
-- looking for the worst-case overshoot, ringing, crosstalk, timing
corner, or emission level.  This package turns that grid into one
declarative object::

    study = Study(
        patterns=("01", "0110", "010101"),
        loads=(LoadSpec(kind="r", r=50.0),
               LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e5),
               LoadSpec(kind="rx", z0=50.0, td=1e-9, receiver="MD4"),
               CoupledLoadSpec(length=0.1)),
        corners=CORNERS,
        spectral=SpectralSpec(mask="board-b"),
        options=RunnerOptions(disk_cache=".sweep_cache"))
    result = study.run()
    print(result.compliance_table())
    result.to_csv("verdicts.csv")           # machine-readable, for CI
    envelope = result.peak_hold()           # grid-wide max-hold spectrum

or, as a reviewable config file (the same object, TOML on disk)::

    study = Study.load("study.toml")        # Study.save writes it back
    result = study.run()

with a CLI to match: ``python -m repro.studies run study.toml``.

Layering (one module per concern):

* :mod:`~repro.studies.kinds` -- the :class:`ScenarioKind` protocol and
  registry.  Every termination the sweep knows (``"r"``, ``"rc"``,
  ``"line"``, ``"rx"``, ``"coupled"``) is a registered kind owning its
  circuit wiring, cache identity, probes, metrics and field bounds;
  third-party code extends the sweep with :func:`register_kind` and a
  load dataclass -- no core edits (see
  ``examples/power_rail_study.py``).
* :mod:`~repro.studies.schema` -- the one study schema: field metadata
  on every study table drives parsing, rendering and checks, and a bad
  field is named by its path (``loads[3].c``).
* :mod:`~repro.studies.spec` -- the declarative layer:
  :class:`SpectralSpec` (emission-measurement request),
  :class:`LoadSpec`/:class:`CoupledLoadSpec` (pure-data load specs),
  :class:`Scenario` (one grid point, whose canonical JSON rendering is
  the cache key), :func:`scenario_grid` and :class:`Study`.
* :mod:`~repro.studies.simulate` -- worker-side bench building,
  batched simulation and EMC metrics.
* :mod:`~repro.studies.outcomes` -- :class:`ScenarioOutcome`,
  :class:`SweepResult` (tables, peak-hold, CSV/JSON export) and
  :class:`StudyResult`.
* :mod:`~repro.studies.runner` -- :class:`ScenarioRunner`: parallel
  fan-out, memoized dispatch preparation, result caches.
* :mod:`~repro.studies.service` -- sharded async orchestration
  (:func:`shard_plan`, :class:`JobManager`) and the HTTP study service
  (:class:`StudyService`, ``python -m repro.studies serve`` plus the
  ``submit``/``status``/``fetch`` client subcommands).
* :mod:`~repro.studies.cli` -- the ``python -m repro.studies``
  command-line interface.
"""

from .cli import main
from .kinds import KINDS, ScenarioKind, get_kind, kind_names, register_kind
from .outcomes import ScenarioOutcome, StudyResult, SweepResult
from .runner import ScenarioRunner
from .simulate import simulate_scenario, simulate_scenario_batch
from .spec import (CORNERS, BaseLoadSpec, CoupledLoadSpec, LoadSpec,
                   RunnerOptions, Scenario, SpectralSpec, Study,
                   load_from_dict, scenario_grid)
from .stochastic import (Distribution, JitterSpec, PassProbability,
                         StochasticResult, StochasticSpec,
                         StochasticStudy, TrafficModel, wilson_interval)

__all__ = [
    "Study", "StudyResult", "RunnerOptions",
    "StochasticStudy", "StochasticSpec", "StochasticResult",
    "TrafficModel", "JitterSpec", "Distribution", "PassProbability",
    "wilson_interval",
    "ScenarioKind", "register_kind", "get_kind", "kind_names", "KINDS",
    "BaseLoadSpec", "LoadSpec", "CoupledLoadSpec", "SpectralSpec",
    "Scenario", "scenario_grid", "CORNERS", "load_from_dict",
    "ScenarioOutcome", "SweepResult", "ScenarioRunner",
    "simulate_scenario", "simulate_scenario_batch", "main",
    # lazily forwarded from repro.studies.service (PEP 562)
    "StudyShard", "shard_plan", "JobManager", "ShardReport",
    "StudyService", "fetch_trace", "fetch_metrics",
]

#: service-layer names resolved lazily: `import repro.studies` must not
#: drag in asyncio/http.server for callers that only run studies inline
_SERVICE_NAMES = frozenset({"StudyShard", "shard_plan", "JobManager",
                            "ShardReport", "StudyService",
                            "fetch_trace", "fetch_metrics"})


def __getattr__(name: str):
    """PEP 562 forwarding of the service-layer names."""
    if name in _SERVICE_NAMES:
        from . import service
        return getattr(service, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
