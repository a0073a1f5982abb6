"""ScenarioKind registry: dispatch, validation, third-party extension."""

import numpy as np
import pytest

from repro.circuit import Capacitor, Circuit, Resistor
from repro.errors import ExperimentError
from repro.studies import (KINDS, BaseLoadSpec, CoupledLoadSpec, LoadSpec,
                           Scenario, ScenarioKind, ScenarioRunner, Study,
                           get_kind, kind_names, load_from_dict,
                           register_kind, scenario_grid)


class TestRegistry:
    def test_builtin_kinds_are_registered(self):
        assert set(kind_names()) >= {"r", "rc", "line", "rx", "coupled"}
        for name in ("r", "rc", "line", "rx", "coupled"):
            kind = get_kind(name)
            assert kind.name == name
            assert kind.load_cls is not None

    def test_unknown_kind_raises(self):
        with pytest.raises(ExperimentError, match="unknown load kind"):
            get_kind("bogus")
        with pytest.raises(ExperimentError):
            LoadSpec(kind="bogus").build(Circuit("x"), "out")
        with pytest.raises(ExperimentError):
            LoadSpec(kind="bogus").describe()

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_kind(get_kind("r"))

    def test_registration_validates_the_kind(self):
        class Nameless(ScenarioKind):
            """Missing a name."""
            load_cls = LoadSpec

        with pytest.raises(ExperimentError, match="non-empty name"):
            register_kind(Nameless())

        class NoLoad(ScenarioKind):
            """Missing the load dataclass."""
            name = "noload"

        with pytest.raises(ExperimentError, match="load_cls"):
            register_kind(NoLoad())

    def test_load_from_dict_requires_a_kind(self):
        with pytest.raises(ExperimentError, match="'kind'"):
            load_from_dict({"r": 50.0})
        with pytest.raises(ExperimentError, match="unknown load kind"):
            load_from_dict({"kind": "bogus"})
        with pytest.raises(ExperimentError, match="unknown load field"):
            load_from_dict({"kind": "r", "resistance": 50.0})


class TestBuiltinDispatch:
    """The kind hooks reproduce the old monolith behavior exactly."""

    def test_describe_tags(self):
        assert LoadSpec(kind="r", r=50.0).describe() == "r50"
        assert LoadSpec(kind="rc", r=150.0, c=5e-12).describe() == \
            "r150c5p"
        assert "c2p" in LoadSpec(kind="line", z0=50.0, td=1e-9, r=1e4,
                                 c=2e-12).describe()
        assert "MD4" in LoadSpec(kind="rx", td=1e-9, r=0.0).describe()
        assert "xtalk" in CoupledLoadSpec().describe()
        assert CoupledLoadSpec(label="bus").describe() == "bus"

    def test_validation_through_build(self):
        with pytest.raises(ExperimentError):
            LoadSpec(kind="rc", r=50.0).build(Circuit("x"), "out")
        with pytest.raises(ExperimentError):
            LoadSpec(kind="r", r=50.0, c=1e-12).build(Circuit("x"), "out")
        with pytest.raises(ExperimentError):
            LoadSpec(kind="rx", r=-1.0).build(Circuit("x"), "out")
        with pytest.raises(ExperimentError):
            CoupledLoadSpec(l_mut=400e-9).build(Circuit("x"), "out")

    def test_canonical_excludes_cosmetics(self):
        assert LoadSpec(kind="r", label="a").canonical() == \
            LoadSpec(kind="r", label="b").canonical()
        assert CoupledLoadSpec(label="a").canonical() == \
            CoupledLoadSpec(label="b").canonical()
        # non-rx kinds ignore the receiver field in their identity
        assert LoadSpec(kind="r", r=50.0).canonical() == \
            LoadSpec(kind="r", r=50.0, receiver="XX").canonical()
        # ... the rx kind does not
        assert LoadSpec(kind="rx", receiver="MD4").canonical() != \
            LoadSpec(kind="rx", receiver="XX").canonical()

    def test_probes_fix_the_layout(self):
        assert LoadSpec(kind="r").probes() == {}
        assert CoupledLoadSpec().probes() == \
            {"next": "v_ne", "fext": "v_fe"}

    def test_canonical_coerces_ints_to_floats(self):
        # TOML may parse `r = 50` as an int; the cache digest must not care
        a = LoadSpec(kind="r", r=50)
        b = LoadSpec(kind="r", r=50.0)
        assert a.canonical() == b.canonical()
        assert Scenario(pattern="01", load=a).key() == \
            Scenario(pattern="01", load=b).key()


# module level so forked pool workers can unpickle the scenarios
from dataclasses import dataclass  # noqa: E402


@dataclass(frozen=True)
class SnubberLoadSpec(BaseLoadSpec):
    """RC snubber test load (third-party-style custom kind)."""
    r_snub: float = 10.0
    c_snub: float = 1e-9
    label: str = ""
    spectral: object = None
    kind = "test-rail"


class SnubberKind(ScenarioKind):
    """Port into an RC snubber; observes the snubber midpoint."""
    name = "test-rail"
    load_cls = SnubberLoadSpec
    physics_fields = ("r_snub", "c_snub")

    def probes(self, load):
        """The midpoint waveform rides along."""
        return {"mid": "mid"}

    def build_circuit(self, load, ckt, port):
        """R into C to ground."""
        ckt.add(Resistor("rsnub", port, "mid", load.r_snub))
        ckt.add(Capacitor("csnub", "mid", "0", load.c_snub))
        ckt.add(Resistor("rref", port, "0", 1e6))
        return port

    def extra_metrics(self, load, sc, t, v, vdd, probes):
        """Peak midpoint level."""
        mid = probes.get("mid")
        if mid is None:
            return {}
        return {"mid_peak": float(np.max(np.abs(mid)))}


@pytest.fixture()
def rail_kind():
    """The snubber kind, registered for the test and removed after."""
    kind = SnubberKind()
    register_kind(kind)
    try:
        yield kind, SnubberLoadSpec
    finally:
        KINDS.pop("test-rail", None)


class TestThirdPartyKind:
    def test_runs_through_the_standard_runner(self, rail_kind, md2_model):
        _, spec_cls = rail_kind
        grid = scenario_grid(["01", "0110"], [spec_cls()])
        runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                n_workers=1)
        result = runner.run(grid)
        assert not result.failures
        for out in result:
            assert "mid_peak" in out.metrics
            assert out.metrics["mid_peak"] > 0.0
            assert set(out.probes) == {"mid"}
            assert out.probes["mid"].shape == out.t.shape
        # second run answers from the cache (keys work for custom kinds)
        assert runner.run(grid).n_cache_hits == len(grid)

    def test_parallel_run_matches_serial(self, rail_kind, md2_model):
        """Custom-kind probes come back from a 2-worker pool (fork start)
        equal to the in-process run."""
        _, spec_cls = rail_kind
        grid = scenario_grid(["01", "0110"], [spec_cls()])
        models = {("MD2", "typ"): md2_model}
        ser = ScenarioRunner(models=models, n_workers=1).run(grid)
        par = ScenarioRunner(models=models, n_workers=2).run(grid)
        assert not par.failures
        for a, b in zip(ser, par):
            np.testing.assert_array_equal(a.v_port, b.v_port)
            np.testing.assert_array_equal(a.probes["mid"],
                                          b.probes["mid"])
            np.testing.assert_equal(a.metrics, b.metrics)

    def test_study_serialization_round_trip(self, rail_kind):
        _, spec_cls = rail_kind
        study = Study(patterns=("01",),
                      loads=(spec_cls(r_snub=22.0, label="snub"),))
        reloaded = Study.from_toml(study.to_toml())
        assert reloaded == study
        assert reloaded.digest() == study.digest()
        assert isinstance(reloaded.loads[0], spec_cls)

    def test_plain_fields_are_read_by_their_default_type(self, rail_kind):
        """An out-of-tree spec declares no schema metadata: its float
        fields take finite numbers (ints read as floats), and a bad value
        is refused naming its path."""
        _, spec_cls = rail_kind
        study = Study.from_dict({"patterns": ["01"], "loads": [
            {"kind": "test-rail", "r_snub": 22, "label": "snub"}]})
        assert study.loads[0] == spec_cls(r_snub=22.0, label="snub")
        for value in ("a", float("inf"), True):
            with pytest.raises(ExperimentError, match=r"loads\[0\]\.r_snub"):
                Study.from_dict({"patterns": ["01"], "loads": [
                    {"kind": "test-rail", "r_snub": value}]})

    def test_unregistered_kind_fails_study_construction(self, rail_kind):
        _, spec_cls = rail_kind
        load = spec_cls()
        KINDS.pop("test-rail")
        with pytest.raises(ExperimentError, match="unknown load kind"):
            Study(patterns=("01",), loads=(load,))

    def test_unregistered_kind_is_contained_per_scenario(self, rail_kind,
                                                         md2_model):
        """Raw-grid users (no Study validation): one unregistered-kind
        scenario fails alone, the rest of the sweep survives."""
        _, spec_cls = rail_kind
        bad = spec_cls()
        KINDS.pop("test-rail")
        grid = scenario_grid(["01"], [bad, LoadSpec(kind="r", r=50.0)])
        result = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                n_workers=1).run(grid)
        assert not result[0].ok
        assert "unknown load kind" in result[0].error
        assert result[1].ok
        assert len(result.failures) == 1
