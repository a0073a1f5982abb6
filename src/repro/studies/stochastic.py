"""Monte Carlo EMC studies: random traffic, jitter and parameter spread.

The paper's point-verdict workflow -- simulate "0110", score it against a
mask -- understates a real port, which transmits *arbitrary* traffic with
edge jitter through components drawn from manufacturing distributions.
This module turns that population into a first-class study object:

* :class:`TrafficModel` samples random bit streams (Bernoulli,
  run-length-limited, DC-balanced 8b/10b-style);
* :class:`JitterSpec` perturbs edge timing, rasterized onto a sub-bit
  grid so every draw still renders as an ordinary pattern string;
* :class:`Distribution` describes uniform/normal/discrete spread over
  driver corners and load parameters;
* :class:`StochasticSpec` bundles them with a seed and a draw budget --
  the ``[stochastic]`` table of the study TOML;
* :class:`StochasticStudy` is a :class:`~repro.studies.spec.Study`
  whose grid is ``n_draws`` sampled scenarios instead of a cartesian
  product.  **Each draw renders to an ordinary**
  :class:`~repro.studies.spec.Scenario` **whose digest is its cache
  key**, so draws flow through the existing
  :class:`~repro.studies.runner.ScenarioRunner`, the grid-batched
  backend, :func:`~repro.studies.service.shards.shard_plan` and the
  sharded :class:`~repro.studies.service.jobs.JobManager` *unchanged*,
  and two runs with one seed share every cache entry;
* :class:`StochasticResult` aggregates the population: per-frequency
  emission quantile bands (:func:`repro.emc.spectrum.quantile_hold`),
  pass-probability per mask check with a Wilson confidence interval,
  and the time-resolved :func:`repro.emc.spectrum.spectrogram` view of
  any draw.

Sampling is *splittable*: draw ``i`` derives its RNG from
``SeedSequence(seed, spawn_key=(i,))`` alone, so the rendered grid is
identical across processes, across :meth:`StochasticStudy.shard`
counts, and regardless of which draws ran first -- the determinism the
service's draw-order-independent sharding relies on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..errors import ExperimentError
from ..experiments.cache import canonical_json as _canonical_json
from ..obs import get_metrics, get_tracer
from .outcomes import StudyResult
from .spec import (MAX_SCENARIOS, Scenario, Study, _coerce_field,
                   _study_table)

__all__ = ["Distribution", "TrafficModel", "JitterSpec",
           "StochasticSpec", "StochasticStudy", "StochasticResult",
           "PassProbability", "wilson_interval", "draw_rng"]

#: normal z-score for the default 95% Wilson confidence interval
_Z95 = 1.959963984540054


def draw_rng(seed: int, index: int) -> np.random.Generator:
    """The splittable per-draw generator: draw ``index`` of seed
    ``seed``.

    Built from ``SeedSequence(entropy=seed, spawn_key=(index,))``, so it
    depends on nothing but the two integers -- not on how many draws ran
    before, in which process, or on which shard.  This function is the
    entire determinism contract of the sampler.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed),
                               spawn_key=(int(index),)))


def wilson_interval(k: int, n: int, z: float = _Z95) -> tuple:
    """Wilson score interval for a binomial proportion ``k/n``.

    Returns ``(lo, hi)``; preferred over the normal approximation
    because it stays inside ``[0, 1]`` and behaves at ``k = 0`` or
    ``k = n`` -- exactly the regimes a compliance study cares about
    (all draws passing).  ``n = 0`` returns the vacuous ``(0, 1)``.
    """
    k, n = int(k), int(n)
    if n <= 0:
        return (0.0, 1.0)
    if not 0 <= k <= n:
        raise ExperimentError("need 0 <= k <= n")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
            / denom)
    # the exact bound at the degenerate endpoints is 0 (resp. 1);
    # don't let rounding in center -/+ half leak past it
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

_DIST_KINDS = ("constant", "uniform", "normal", "discrete")


@dataclass(frozen=True)
class Distribution:
    """One scalar sampling distribution (manufacturing/corner spread).

    ``dist`` selects the family and which fields matter: ``"constant"``
    (``value``), ``"uniform"`` (``low``/``high``), ``"normal"``
    (``mean``/``std``) or ``"discrete"`` (``choices`` with optional
    ``weights``).  Discrete choices may be strings (driver corners) or
    numbers (E-series component values).  Serializes to the minimal
    table of relevant fields; a bare number deserializes as a constant.
    """

    dist: str = "constant"
    value: float = 0.0
    low: float = 0.0
    high: float = 1.0
    mean: float = 0.0
    std: float = 1.0
    choices: tuple = ()
    weights: tuple | None = None

    def __post_init__(self):
        if self.dist not in _DIST_KINDS:
            raise ExperimentError(
                f"unknown distribution {self.dist!r}; pick from "
                f"{_DIST_KINDS}")
        object.__setattr__(self, "choices", tuple(self.choices))
        if self.weights is not None:
            object.__setattr__(self, "weights",
                               tuple(float(w) for w in self.weights))
        if self.dist == "uniform" and not self.low <= self.high:
            raise ExperimentError("uniform needs low <= high")
        if self.dist == "normal" and self.std < 0.0:
            raise ExperimentError("normal needs std >= 0")
        if self.dist == "discrete":
            if not self.choices:
                raise ExperimentError("discrete needs choices")
            w = self.weights
            if w is not None:
                if len(w) != len(self.choices):
                    raise ExperimentError(
                        "weights must match choices one to one")
                if any(x < 0.0 for x in w) or sum(w) <= 0.0:
                    raise ExperimentError(
                        "weights must be non-negative with positive sum")

    def parameters(self) -> tuple:
        """The values this family draws from or is shaped by: the
        constant, the bounds, mean and std, or the choices."""
        return {"constant": (self.value,), "uniform": (self.low, self.high),
                "normal": (self.mean, self.std)}.get(self.dist, self.choices)

    def sample(self, rng: np.random.Generator):
        """Draw one value from this distribution using ``rng``."""
        if self.dist == "constant":
            return self.value
        if self.dist == "uniform":
            return float(rng.uniform(self.low, self.high))
        if self.dist == "normal":
            return float(rng.normal(self.mean, self.std))
        # discrete: inverse-CDF over the normalized weights so the
        # result keeps its native python type (str corners included)
        n = len(self.choices)
        w = self.weights or (1.0,) * n
        total = sum(w)
        r = float(rng.random()) * total
        acc = 0.0
        for choice, wi in zip(self.choices, w):
            acc += wi
            if r < acc:
                return choice
        return self.choices[-1]

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering (relevant fields only)."""
        out: dict = {"dist": self.dist}
        if self.dist == "constant":
            out["value"] = self.value
        elif self.dist == "uniform":
            out["low"], out["high"] = self.low, self.high
        elif self.dist == "normal":
            out["mean"], out["std"] = self.mean, self.std
        else:
            out["choices"] = list(self.choices)
            if self.weights is not None:
                out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_dict(cls, d) -> "Distribution":
        """Rebuild from :meth:`to_dict` output; a bare number (or a
        bare string, as a single discrete choice) is a constant."""
        if isinstance(d, Distribution):
            return d
        if isinstance(d, (int, float)):
            return cls(dist="constant", value=float(d))
        if isinstance(d, str):
            return cls(dist="discrete", choices=(d,))
        if not isinstance(d, dict):
            raise ExperimentError(
                f"cannot parse distribution from {type(d).__name__}")
        kw = dict(d)
        unknown = set(kw) - {f.name for f in fields(cls)}
        if unknown:
            raise ExperimentError(
                f"unknown distribution fields {sorted(unknown)}")
        if "choices" in kw:
            kw["choices"] = tuple(kw["choices"])
        if kw.get("weights") is not None:
            kw["weights"] = tuple(kw["weights"])
        return cls(**kw)

    def canonical(self) -> dict:
        """Canonical JSON-able identity (folds into the study digest)."""
        return self.to_dict()


# ---------------------------------------------------------------------------
# traffic + jitter
# ---------------------------------------------------------------------------

_TRAFFIC_MODELS = ("bernoulli", "rll", "dc-balanced")


@dataclass(frozen=True)
class TrafficModel:
    """Random bit-stream generator for one draw.

    ``model`` picks the line code family, ``n_bits`` the stream length;
    the remaining fields parameterize their own family only:

    * ``"bernoulli"`` -- i.i.d. bits, ``P(1) = p_one``;
    * ``"rll"`` -- run-length-limited: alternating runs of identical
      bits with run lengths uniform on ``[min_run, max_run]`` (the
      clock-recovery-friendly traffic of embedded-clock links);
    * ``"dc-balanced"`` -- 8b/10b-style bounded running disparity:
      bits are fair coin flips unless the running disparity (ones minus
      zeros) would leave ``[-max_disparity, +max_disparity]``, where
      the bounded bit is forced -- DC-free traffic by construction.
    """

    model: str = "bernoulli"
    n_bits: int = 32
    p_one: float = 0.5
    min_run: int = 1
    max_run: int = 6
    max_disparity: int = 3

    def __post_init__(self):
        if self.model not in _TRAFFIC_MODELS:
            raise ExperimentError(
                f"unknown traffic model {self.model!r}; pick from "
                f"{_TRAFFIC_MODELS}")
        if int(self.n_bits) < 1:
            raise ExperimentError("need n_bits >= 1")
        object.__setattr__(self, "n_bits", int(self.n_bits))
        if not 0.0 <= self.p_one <= 1.0:
            raise ExperimentError("need 0 <= p_one <= 1")
        if not 1 <= int(self.min_run) <= int(self.max_run):
            raise ExperimentError("need 1 <= min_run <= max_run")
        object.__setattr__(self, "min_run", int(self.min_run))
        object.__setattr__(self, "max_run", int(self.max_run))
        if int(self.max_disparity) < 1:
            raise ExperimentError("need max_disparity >= 1")
        object.__setattr__(self, "max_disparity",
                           int(self.max_disparity))

    def sample_bits(self, rng: np.random.Generator) -> str:
        """Draw one ``n_bits``-long "0"/"1" string from the model."""
        n = self.n_bits
        if self.model == "bernoulli":
            return "".join("1" if x < self.p_one else "0"
                           for x in rng.random(n))
        if self.model == "rll":
            bits: list[str] = []
            sym = int(rng.integers(2))
            while len(bits) < n:
                run = int(rng.integers(self.min_run, self.max_run + 1))
                bits.extend(str(sym) * run)
                sym ^= 1
            return "".join(bits[:n])
        # dc-balanced: forced bits consume no randomness, so the stream
        # is a pure function of the free coin flips
        out = []
        disparity = 0
        for _ in range(n):
            if disparity >= self.max_disparity:
                b = 0
            elif disparity <= -self.max_disparity:
                b = 1
            else:
                b = int(rng.integers(2))
            out.append(str(b))
            disparity += 1 if b else -1
        return "".join(out)

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering (relevant fields only)."""
        out: dict = {"model": self.model, "n_bits": self.n_bits}
        if self.model == "bernoulli":
            out["p_one"] = self.p_one
        elif self.model == "rll":
            out["min_run"], out["max_run"] = self.min_run, self.max_run
        else:
            out["max_disparity"] = self.max_disparity
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrafficModel":
        """Rebuild from :meth:`to_dict` output."""
        if isinstance(d, TrafficModel):
            return d
        kw = dict(d)
        unknown = set(kw) - {f.name for f in fields(cls)}
        if unknown:
            raise ExperimentError(
                f"unknown traffic fields {sorted(unknown)}")
        return cls(**kw)

    def canonical(self) -> dict:
        """Canonical JSON-able identity (folds into the study digest)."""
        return self.to_dict()


@dataclass(frozen=True)
class JitterSpec:
    """Edge-timing jitter, rendered on a sub-bit raster.

    Every bit boundary of a drawn stream is displaced by a random offset
    (``"normal"``: std ``scale`` seconds; ``"uniform"``: half-width
    ``scale``), then the jittered stream is rasterized onto a grid of
    ``subdiv`` sub-bits per nominal bit: the scenario's pattern becomes
    the sub-bit string and its ``bit_time`` becomes ``bit_time /
    subdiv``.  The payoff is that a jittered draw is *still an ordinary*
    :class:`~repro.studies.spec.Scenario` -- same resolved duration,
    same :func:`~repro.studies.runner.batch_key` as its siblings -- so
    jittered draws batch, shard and cache exactly like clean ones.
    Offsets are clipped to ±45% of a bit so edges never cross.
    """

    dist: str = "normal"
    scale: float = 20e-12
    subdiv: int = 8

    def __post_init__(self):
        if self.dist not in ("normal", "uniform"):
            raise ExperimentError(
                f"jitter dist must be 'normal' or 'uniform', "
                f"not {self.dist!r}")
        if self.scale < 0.0:
            raise ExperimentError("jitter scale must be >= 0")
        if not 2 <= int(self.subdiv) <= 64:
            raise ExperimentError("need 2 <= subdiv <= 64")
        object.__setattr__(self, "subdiv", int(self.subdiv))

    def offsets(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` edge offsets in seconds."""
        if self.dist == "normal":
            return rng.normal(0.0, self.scale, n)
        return rng.uniform(-self.scale, self.scale, n)

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering."""
        return {"dist": self.dist, "scale": self.scale,
                "subdiv": self.subdiv}

    @classmethod
    def from_dict(cls, d: dict) -> "JitterSpec":
        """Rebuild from :meth:`to_dict` output."""
        if isinstance(d, JitterSpec):
            return d
        kw = dict(d)
        unknown = set(kw) - {f.name for f in fields(cls)}
        if unknown:
            raise ExperimentError(
                f"unknown jitter fields {sorted(unknown)}")
        return cls(**kw)

    def canonical(self) -> dict:
        """Canonical JSON-able identity (folds into the study digest)."""
        return self.to_dict()


def _render_pattern(bits: str, bit_time: float, jitter, rng
                    ) -> tuple[str, float]:
    """Rasterize a drawn bit stream, applying ``jitter`` if any.

    Returns ``(pattern, scenario_bit_time)``.  Without jitter the stream
    passes through untouched; with jitter every bit boundary moves by a
    drawn offset and the stream re-renders at ``subdiv`` sub-bits per
    bit.  Boundaries are clamped monotone, so extreme offsets shrink a
    bit rather than reordering edges.
    """
    if jitter is None:
        return bits, bit_time
    n = len(bits)
    sub = jitter.subdiv
    n_sub = n * sub
    sub_time = bit_time / sub
    off = np.clip(jitter.offsets(rng, n - 1),
                  -0.45 * bit_time, 0.45 * bit_time)
    inner = np.rint(((np.arange(1, n) * bit_time) + off)
                    / sub_time).astype(int)
    bounds = np.concatenate(([0], inner, [n_sub]))
    bounds = np.maximum.accumulate(np.clip(bounds, 0, n_sub))
    out = []
    for i in range(n):
        out.append(bits[i] * int(bounds[i + 1] - bounds[i]))
    return "".join(out), sub_time


# ---------------------------------------------------------------------------
# the sampler spec ([stochastic] table)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticSpec:
    """The ``[stochastic]`` table: seed, draw budget and distributions.

    ``params`` maps load-spec field names (``"r"``, ``"c"``, ``"z0"``,
    ...) to :class:`Distribution` objects describing manufacturing
    spread; ``corner`` optionally replaces the study's corner axis with
    a (typically discrete) distribution over corner names.  ``stop_ci``
    arms sequential stopping in :meth:`StochasticStudy.run`: after at
    least ``min_draws`` draws, the run stops as soon as the 95% Wilson
    interval on the pass-probability has half-width ``<= stop_ci``
    (e.g. ``0.02`` for ±2%).  Stored normalized (``params`` as a sorted
    tuple of pairs) so specs hash and compare by value.
    """

    seed: int = 0
    n_draws: int = 32
    traffic: TrafficModel = field(default_factory=TrafficModel)
    jitter: JitterSpec | None = None
    corner: Distribution | None = None
    params: tuple = ()
    stop_ci: float | None = None
    min_draws: int = 16

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            # numpy's SeedSequence takes non-negative entropy only
            raise ExperimentError(
                f"stochastic.seed must be a non-negative integer, not "
                f"{self.seed}")
        if int(self.n_draws) < 1:
            raise ExperimentError("need n_draws >= 1")
        if int(self.n_draws) > MAX_SCENARIOS:
            raise ExperimentError(
                f"stochastic.n_draws = {int(self.n_draws)} exceeds the "
                f"admission ceiling of {MAX_SCENARIOS} draws")
        object.__setattr__(self, "n_draws", int(self.n_draws))
        object.__setattr__(self, "traffic",
                           TrafficModel.from_dict(self.traffic)
                           if not isinstance(self.traffic, TrafficModel)
                           else self.traffic)
        if self.jitter is not None and not isinstance(self.jitter,
                                                      JitterSpec):
            object.__setattr__(self, "jitter",
                               JitterSpec.from_dict(self.jitter))
        if self.corner is not None and not isinstance(self.corner,
                                                      Distribution):
            object.__setattr__(self, "corner",
                               Distribution.from_dict(self.corner))
        params = self.params
        if isinstance(params, dict):
            params = tuple(sorted(params.items()))
        params = tuple((str(name), Distribution.from_dict(dist))
                       for name, dist in params)
        object.__setattr__(self, "params",
                           tuple(sorted(params, key=lambda p: p[0])))
        if self.stop_ci is not None:
            stop_ci = float(self.stop_ci)
            if not 0.0 < stop_ci < 0.5:
                raise ExperimentError("need 0 < stop_ci < 0.5")
            object.__setattr__(self, "stop_ci", stop_ci)
        if int(self.min_draws) < 1:
            raise ExperimentError("need min_draws >= 1")
        object.__setattr__(self, "min_draws", int(self.min_draws))

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering (the ``[stochastic]``
        table of :meth:`StochasticStudy.to_dict`)."""
        out: dict = {"seed": self.seed, "n_draws": self.n_draws,
                     "traffic": self.traffic.to_dict()}
        if self.jitter is not None:
            out["jitter"] = self.jitter.to_dict()
        if self.corner is not None:
            out["corner"] = self.corner.to_dict()
        if self.params:
            out["params"] = {name: dist.to_dict()
                             for name, dist in self.params}
        if self.stop_ci is not None:
            out["stop_ci"] = self.stop_ci
        if self.min_draws != 16:
            out["min_draws"] = self.min_draws
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "StochasticSpec":
        """Rebuild from :meth:`to_dict` output."""
        if isinstance(d, StochasticSpec):
            return d
        kw = dict(d)
        unknown = set(kw) - {f.name for f in fields(cls)}
        if unknown:
            raise ExperimentError(
                f"unknown stochastic fields {sorted(unknown)}")
        return cls(**kw)

    def canonical(self) -> dict:
        """Canonical JSON-able identity of the whole sampler config.

        Folded into :meth:`StochasticStudy.canonical` alongside the
        rendered draws, so the service dedups stochastic jobs on the
        *sampler*, not just on the scenarios it happened to produce --
        and ``stop_ci``/``min_draws`` fold in too, because they change
        how much of the grid an inline run executes.
        """
        doc: dict = {"seed": self.seed, "n_draws": self.n_draws,
                     "traffic": self.traffic.canonical(),
                     "jitter": None if self.jitter is None
                     else self.jitter.canonical(),
                     "corner": None if self.corner is None
                     else self.corner.canonical(),
                     "params": {name: dist.canonical()
                                for name, dist in self.params}}
        if self.stop_ci is not None:
            doc["stop_ci"] = self.stop_ci
            doc["min_draws"] = self.min_draws
        return doc


# ---------------------------------------------------------------------------
# the study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticStudy(Study):
    """A :class:`~repro.studies.spec.Study` whose grid is sampled.

    The cartesian axes become a population: each of
    ``stochastic.n_draws`` draws samples a bit stream from the traffic
    model, optional edge jitter, a driver/load (uniform over the axes
    when several are given), a corner (from ``stochastic.corner``, or
    uniform over ``corners``) and load-parameter values (from
    ``stochastic.params``), and renders them as one ordinary
    :class:`~repro.studies.spec.Scenario` named ``draw<i>``.  Because
    draw ``i`` depends only on ``(seed, i)``, the grid is identical in
    every process and under every shard count, and the scenario digests
    double as cache keys -- rerunning a seeded study answers from the
    disk cache.

    ``patterns`` must stay empty (traffic is sampled, not enumerated);
    everything else -- ``spectral``, ``options``, timing, TOML/JSON
    round-trip, ``shard``/service submission -- behaves exactly like the
    base class.  :meth:`run` returns a :class:`StochasticResult` and
    honors ``stochastic.stop_ci`` sequential stopping.
    """

    stochastic: StochasticSpec = field(default_factory=StochasticSpec)

    def __post_init__(self):
        # the sampler first: the base class's size check reads n_draws
        if not isinstance(self.stochastic, StochasticSpec):
            object.__setattr__(self, "stochastic",
                               StochasticSpec.from_dict(self.stochastic))
        super().__post_init__()
        # parameter spread must name real numeric fields of every load
        # and draw numbers; failing at render time would cost the job
        for name, dist in self.stochastic.params:
            for load in self.loads:
                if name not in {f.name for f in fields(type(load))}:
                    raise ExperimentError(
                        f"stochastic param {name!r} is not a field of "
                        f"{type(load).__name__}")
                if not isinstance(getattr(load, name), (int, float)):
                    raise ExperimentError(
                        f"stochastic param {name!r} is not numeric on "
                        f"{type(load).__name__}")
            if not all(isinstance(v, numbers.Real)
                       and not isinstance(v, bool)
                       for v in dist.parameters()):
                raise ExperimentError(
                    f"stochastic.params.{name} must draw numbers, not "
                    f"{dist.to_dict()}")

    def _check_patterns(self) -> None:
        """Traffic is sampled, never enumerated: no pattern axis."""
        if self.patterns:
            raise ExperimentError(
                "a StochasticStudy samples its patterns from the "
                "traffic model; the 'patterns' axis must stay empty")

    def __len__(self) -> int:
        """Number of draws (the sampled grid's size)."""
        return self.stochastic.n_draws

    def _render_draw(self, i: int) -> Scenario:
        """Render draw ``i`` -- a pure function of ``(seed, i)`` and
        the study description.

        The per-draw RNG consumption order is part of the cache
        contract: bits, jitter offsets, driver, corner, load, then
        params in sorted field order.
        """
        spec = self.stochastic
        rng = draw_rng(spec.seed, i)
        bits = spec.traffic.sample_bits(rng)
        pattern, sc_bit_time = _render_pattern(bits, self.bit_time,
                                               spec.jitter, rng)
        driver = self.drivers[0] if len(self.drivers) == 1 \
            else self.drivers[int(rng.integers(len(self.drivers)))]
        if spec.corner is not None:
            corner = str(spec.corner.sample(rng))
        elif len(self.corners) == 1:
            corner = self.corners[0]
        else:
            corner = self.corners[int(rng.integers(len(self.corners)))]
        load = self.loads[0] if len(self.loads) == 1 \
            else self.loads[int(rng.integers(len(self.loads)))]
        if spec.params:
            load = replace(load, **{name: float(dist.sample(rng))
                                    for name, dist in spec.params})
        return Scenario(
            pattern=pattern, load=load, driver=driver, corner=corner,
            bit_time=sc_bit_time, dt=self.dt, t_stop=self.t_stop,
            name=f"draw{i:04d}",
            spectral=None
            if getattr(load, "spectral", None) is not None
            else self.spectral)

    def _render_grid(self) -> tuple:
        """The sampled grid: ``n_draws`` rendered scenarios, in draw
        order, under one ``stochastic.sample`` span."""
        spec = self.stochastic
        with get_tracer().span("stochastic.sample", n_draws=spec.n_draws,
                               seed=spec.seed, traffic=spec.traffic.model):
            return tuple(self._render_draw(i) for i in range(spec.n_draws))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering; the sampler config lands
        in the ``[stochastic]`` table and the empty ``patterns`` axis is
        omitted."""
        out = super().to_dict()
        out.pop("patterns", None)
        out["stochastic"] = self.stochastic.to_dict()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "StochasticStudy":
        """Rebuild from :meth:`to_dict` output (also accepts the dict
        nested under a ``"study"`` table, like the base class)."""
        kw = dict(_study_table(d))
        sto = kw.get("stochastic")
        if sto is None:
            raise ExperimentError(
                "a StochasticStudy needs a [stochastic] table")
        if not isinstance(sto, StochasticSpec):
            kw["stochastic"] = _coerce_field(
                "stochastic", StochasticSpec.from_dict, sto)
        return super().from_dict(kw)

    def canonical(self) -> str:
        """Canonical JSON of the sampler config *and* the rendered
        draws.

        The draws alone would already identify the simulated physics;
        folding :meth:`StochasticSpec.canonical` in as well makes the
        digest the service dedups on mean "this sampler, this budget",
        and keeps sequential-stopping knobs from aliasing.
        """
        # sorted keys: "scenarios" renders before "stochastic"
        return super().canonical()[:-1] + ',"stochastic":' \
            + _canonical_json(self.stochastic.canonical()) + "}"

    # -- execution ----------------------------------------------------------
    def make_result(self, outcomes, elapsed_s: float = 0.0,
                    phases: dict | None = None) -> "StochasticResult":
        """Aggregate outcomes into a :class:`StochasticResult`,
        recording the draw-accounting metrics.

        Called once per completed run -- inline, or when the service
        assembles its shard replies -- so ``draws_total{status}`` sums
        to the number of draws executed and ``draws_cached`` counts the
        draws the final answer took from a cache (an earlier run, or a
        finished group a killed attempt checkpointed), however many
        worker attempts (or SIGKILLed retries) it took to get there.
        """
        met = get_metrics()
        n_ok = sum(1 for o in outcomes if o.ok)
        n_cached = sum(1 for o in outcomes if o.cache_hit)
        if n_ok:
            met.inc("draws_total", n_ok, status="ok")
        if n_ok < len(outcomes):
            met.inc("draws_total", len(outcomes) - n_ok, status="error")
        if n_cached:
            met.inc("draws_cached", n_cached)
        return StochasticResult(outcomes, study=self,
                                elapsed_s=elapsed_s, phases=phases)

    def _outcomes(self, runner) -> list:
        """Simulate the draws on ``runner``, in draw order.

        With ``stochastic.stop_ci`` set, draws run in waves of
        ``min_draws`` -- prefix order preserved -- and the run stops
        early once the 95% Wilson interval on the combined
        pass-probability is narrower than ±``stop_ci`` (draws that carry
        no compliance check never stop early; the service always runs
        the full budget).
        """
        draws = self.scenarios()
        spec = self.stochastic
        if spec.stop_ci is None:
            return runner.run(draws).outcomes
        outcomes = []
        target = min(max(spec.min_draws, 1), len(draws))
        while True:
            outcomes.extend(
                runner.run(draws[len(outcomes):target]).outcomes)
            if target >= len(draws):
                return outcomes
            checked = [o.passed for o in outcomes if o.passed is not None]
            if checked:
                lo, hi = wilson_interval(sum(checked), len(checked))
                if (hi - lo) / 2.0 <= spec.stop_ci:
                    return outcomes
            target = min(len(draws), target + spec.min_draws)


# ---------------------------------------------------------------------------
# the aggregate result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PassProbability:
    """Estimated pass-probability of one compliance check.

    ``k`` of ``n`` scored draws passed; ``p = k/n`` and ``(lo, hi)`` is
    the 95% Wilson interval (:func:`wilson_interval`).  ``n = 0`` means
    no draw carried the check (``p`` is then ``None``).
    """

    check: str
    k: int
    n: int

    @property
    def p(self) -> float | None:
        """Point estimate ``k/n`` (``None`` when nothing was scored)."""
        return None if self.n == 0 else self.k / self.n

    @property
    def interval(self) -> tuple:
        """The 95% Wilson confidence interval ``(lo, hi)``."""
        return wilson_interval(self.k, self.n)

    def __str__(self):
        if self.n == 0:
            return f"P(pass {self.check}) = n/a (no scored draws)"
        lo, hi = self.interval
        return (f"P(pass {self.check}) = {self.p:.3f} "
                f"[{lo:.3f}, {hi:.3f}] over {self.n} draws")


class StochasticResult(StudyResult):
    """A :class:`~repro.studies.outcomes.StudyResult` over a draw
    population.

    Adds the Monte Carlo aggregations on top of the per-scenario
    machinery (compliance tables, peak-hold, CSV/JSON export all still
    work): :meth:`quantile_bands` for the p50/p95/p99 emission bands,
    :meth:`pass_probability` for per-check Wilson-interval pass rates,
    :meth:`spectrogram` for the time-resolved view of any single draw,
    and :meth:`stochastic_summary` for the human-readable digest of all
    three.
    """

    def quantile_bands(self, quantity: str = "v_port",
                       detector: str = "peak",
                       qs=(0.5, 0.95, 0.99)) -> dict:
        """Per-frequency emission quantile bands over the population.

        Collects every successful draw's spectrum of ``quantity`` (and
        ``detector``, when given) and reduces them with
        :func:`repro.emc.spectrum.quantile_hold`; returns ``{"p50":
        Spectrum, ...}``.  Deterministic for a given seed: the bands of
        a sharded service run are byte-identical to a serial run's.
        """
        from ..emc.spectrum import quantile_hold
        spectra = self._read_spectra(quantity, detector)
        if not spectra:
            raise ExperimentError(
                f"no draw produced a spectrum of {quantity!r}; give the "
                "study a SpectralSpec")
        return quantile_hold(spectra, qs=qs)

    def pass_probability(self, check: str | None = None
                         ) -> PassProbability:
        """Pass-probability of one check (or the combined verdict).

        ``check`` names a detector/radiated verdict key (``"peak"``,
        ``"rad:average"``, ...); ``None`` scores each draw's combined
        :attr:`~repro.studies.outcomes.ScenarioOutcome.passed`.  Draws
        that carry no such verdict (or failed to simulate) are excluded
        from ``n``.
        """
        if check is None:
            scored = [o.passed for o in self.outcomes
                      if o.passed is not None]
            return PassProbability("all", sum(scored), len(scored))
        scored = [v.passed for o in self.outcomes if o.ok
                  for name, v in o.verdicts_by.items() if name == check]
        return PassProbability(check, sum(scored), len(scored))

    def spectrogram(self, index: int = 0, window: str = "hann",
                    nperseg: int | None = None, overlap: float = 0.5):
        """Short-time spectrogram of draw ``index``'s port waveform.

        The time-windowed peak-hold view of one long random pattern:
        render it with
        :func:`repro.experiments.asciiplot.ascii_spectrogram`, or
        collapse it back to a max-hold :class:`~repro.emc.spectrum.
        Spectrum` via :meth:`~repro.emc.spectrum.Spectrogram.
        peak_hold`.
        """
        from ..emc.spectrum import spectrogram as _spectrogram
        o = self.outcomes[index]
        if not o.ok:
            raise ExperimentError(
                f"draw {index} failed to simulate: {o.error}")
        return _spectrogram(o.t, o.v_port, window=window,
                            nperseg=nperseg, overlap=overlap,
                            label=o.scenario.resolved_name())

    def stochastic_summary(self) -> str:
        """Multi-line population digest: draws, cache hits,
        pass-probabilities per check and the p95/p99 band headline."""
        lines = [f"draws     : {len(self)} "
                 f"({self.n_cache_hits} cached, "
                 f"{len(self.failures)} failed)"]
        checks = {name for o in self.outcomes if o.ok
                  for name in o.verdicts_by}
        for check in sorted(checks):
            lines.append(f"  {self.pass_probability(check)}")
        if checks:
            lines.append(f"  {self.pass_probability(None)}")
        try:
            bands = self.quantile_bands()
        except ExperimentError:
            return "\n".join(lines)
        for name in sorted(bands):
            band = bands[name]
            worst = int(np.argmax(band.mag))
            lines.append(
                f"  {name:<4} worst bin: {band.db()[worst]:6.1f} "
                f"dBu @ {band.f[worst] / 1e6:.1f} MHz")
        return "\n".join(lines)
