"""Study serialization: lossless round trips and cache-key stability.

The hypothesis property is the satellite acceptance:
``Study.from_dict(s.to_dict()) == s`` for randomized studies (and the
stronger TOML-text round trip on top).  The pinned-literal tests freeze
the canonical serialized form that *is* the cache-key input -- any
accidental change to the rendering would silently orphan every disk
cache, so it must fail a test first.
"""

import json
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emc import MASKS, LimitMask, register_mask
from repro.errors import ExperimentError
from repro.experiments import AntennaModel
from repro.experiments.cache import scenario_key_digest
from repro.studies import (CORNERS, KINDS, CoupledLoadSpec, LoadSpec,
                           RunnerOptions, Scenario, ScenarioRunner,
                           SpectralSpec, Study, get_kind, register_kind)

FINITE = dict(allow_nan=False, allow_infinity=False)

patterns = st.lists(st.text(alphabet="01", min_size=1, max_size=8),
                    min_size=1, max_size=4).map(tuple)

load_specs = st.one_of(
    st.builds(LoadSpec, kind=st.just("r"),
              r=st.floats(1.0, 1e4, **FINITE),
              label=st.text(max_size=8)),
    st.builds(LoadSpec, kind=st.just("rc"),
              r=st.floats(1.0, 1e4, **FINITE),
              c=st.floats(1e-13, 1e-10, **FINITE)),
    st.builds(LoadSpec, kind=st.just("line"),
              z0=st.floats(10.0, 150.0, **FINITE),
              td=st.floats(0.1e-9, 3e-9, **FINITE),
              r=st.floats(1.0, 1e5, **FINITE)),
    st.builds(LoadSpec, kind=st.just("rx"),
              td=st.floats(0.0, 2e-9, **FINITE),
              r=st.floats(0.0, 100.0, **FINITE)),
    st.builds(CoupledLoadSpec,
              l_mut=st.floats(1e-9, 200e-9, **FINITE),
              c_mut=st.floats(0.0, 50e-12, **FINITE),
              label=st.text(max_size=8)),
)

antennas = st.one_of(
    st.none(),
    st.builds(AntennaModel,
              length=st.floats(0.1, 3.0, **FINITE),
              distance=st.sampled_from([3.0, 10.0]),
              cm_fraction=st.floats(1e-3, 1.0,
                                    exclude_min=False, **FINITE)))


@st.composite
def spectral_specs(draw):
    """Valid SpectralSpec instances (constraints honored)."""
    antenna = draw(antennas)
    quantity = "i_port" if antenna is not None \
        else draw(st.sampled_from(["v_port", "i_port"]))
    detectors = draw(st.lists(
        st.sampled_from(["peak", "quasi-peak", "average"]),
        min_size=1, max_size=3, unique=True))
    mask = draw(st.one_of(
        st.none(),
        st.just("board-b" if quantity == "v_port" else "board-i"),
        st.builds(LimitMask.from_points, st.just("custom"),
                  st.just(((1e6, 80.0), (1e9, 60.0))),
                  unit=st.just("dBuV" if quantity == "v_port"
                               else "dBuA"))))
    return SpectralSpec(
        quantity=quantity,
        window=draw(st.sampled_from(["hann", "blackman", "rect"])),
        n_fft=draw(st.one_of(st.none(), st.integers(64, 4096))),
        mask=mask,
        detectors=tuple(detectors),
        prf=draw(st.one_of(st.none(), st.floats(10.0, 1e6, **FINITE))),
        antenna=antenna,
        radiated_mask="fcc-15b" if antenna is not None
        and draw(st.booleans()) else None)


studies = st.builds(
    Study,
    patterns=patterns,
    loads=st.lists(load_specs, min_size=1, max_size=3).map(tuple),
    drivers=st.lists(st.sampled_from(["MD1", "MD2", "MD3"]),
                     min_size=1, max_size=2, unique=True).map(tuple),
    corners=st.lists(st.sampled_from(CORNERS), min_size=1, max_size=3,
                     unique=True).map(tuple),
    name=st.text(max_size=12),
    bit_time=st.floats(0.5e-9, 4e-9, **FINITE),
    dt=st.one_of(st.none(), st.floats(10e-12, 100e-12, **FINITE)),
    t_stop=st.one_of(st.none(), st.floats(1e-9, 50e-9, **FINITE)),
    spectral=st.one_of(st.none(), spectral_specs()),
    options=st.builds(RunnerOptions,
                      n_workers=st.one_of(st.none(),
                                          st.integers(1, 8)),
                      disk_cache=st.one_of(st.none(),
                                           st.just(".cache-x"))))


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(s=studies)
    def test_dict_round_trip_is_lossless(self, s):
        """Satellite acceptance: Study.from_dict(s.to_dict()) == s."""
        assert Study.from_dict(s.to_dict()) == s

    @settings(max_examples=60, deadline=None)
    @given(s=studies)
    def test_toml_text_round_trip_is_lossless(self, s):
        """Stronger: through the TOML writer + tomllib parser."""
        back = Study.from_toml(s.to_toml())
        assert back == s
        assert back.digest() == s.digest()

    @settings(max_examples=40, deadline=None)
    @given(s=studies)
    def test_json_dict_survives_json_text(self, s):
        """to_dict is honestly JSON-able (what Study.save('.json') does)."""
        back = Study.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back == s

    @settings(max_examples=40, deadline=None)
    @given(s=studies)
    def test_round_trip_preserves_every_scenario_key(self, s):
        """The serialized study produces identical cache keys."""
        back = Study.from_toml(s.to_toml())
        assert [sc.key() for sc in back.scenarios()] == \
            [sc.key() for sc in s.scenarios()]

    def test_file_round_trip_toml_and_json(self, tmp_path):
        s = Study(patterns=("01",), name="files",
                  loads=(LoadSpec(kind="r", r=50.0),
                         CoupledLoadSpec(label="pair")),
                  spectral=SpectralSpec(mask="board-b"),
                  options=RunnerOptions(n_workers=1))
        for fname in ("s.toml", "s.json"):
            path = s.save(tmp_path / fname)
            assert Study.load(path) == s

    def test_load_errors_are_clean(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read"):
            Study.load(tmp_path / "missing.toml")
        bad = tmp_path / "bad.toml"
        bad.write_text("patterns = [unclosed")
        with pytest.raises(ExperimentError, match="invalid study TOML"):
            Study.load(bad)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(ExperimentError, match="invalid study JSON"):
            Study.load(bad_json)
        with pytest.raises(ExperimentError, match="unknown Study fields"):
            Study.from_dict({"patterns": ["01"], "bogus": 1})

    def test_options_spelling_coerces_too(self):
        """'runner' is the schema table, but the dataclass-field
        spelling 'options' must coerce as well -- never ride along as a
        raw dict that explodes later inside Study.run."""
        via_runner = Study.from_dict(
            {"patterns": ["01"], "runner": {"n_workers": 3}})
        via_options = Study.from_dict(
            {"patterns": ["01"], "options": {"n_workers": 3}})
        assert via_runner == via_options
        assert isinstance(via_options.options, RunnerOptions)
        assert via_options.options.n_workers == 3
        with pytest.raises(ExperimentError, match="not both"):
            Study.from_dict({"patterns": ["01"],
                             "runner": {"n_workers": 1},
                             "options": {"n_workers": 2}})

    def test_validation(self):
        with pytest.raises(ExperimentError, match="at least one pattern"):
            Study(patterns=())
        with pytest.raises(ExperimentError, match="0/1 bits"):
            Study(patterns=("01x",))
        with pytest.raises(ExperimentError, match="at least one load"):
            Study(patterns=("01",), loads=())
        with pytest.raises(ExperimentError, match="driver"):
            Study(patterns=("01",), drivers=())

    def test_bare_scalars_normalize_to_one_element_axes(self):
        """A bare string is one value, never a sequence of characters;
        a bare load spec is a one-load axis."""
        s = Study(patterns="0110", drivers="MD2", corners="typ",
                  loads=LoadSpec(kind="r", r=50.0))
        assert s.patterns == ("0110",)
        assert s.drivers == ("MD2",) and s.corners == ("typ",)
        assert len(s) == 1
        assert s == Study(patterns=("0110",),
                          loads=(LoadSpec(kind="r", r=50.0),))

    def test_runner_options_accept_pathlike_disk_cache(self, tmp_path):
        """ScenarioRunner takes any PathLike, so RunnerOptions must too
        -- and still serialize."""
        opts = RunnerOptions(disk_cache=Path(".cache-y"))
        assert opts.disk_cache == ".cache-y"
        s = Study(patterns=("01",), loads=(LoadSpec(),), options=opts)
        assert Study.from_toml(s.to_toml()) == s
        assert Study.load(s.save(tmp_path / "p.json")) == s


class TestCanonicalFormIsPinned:
    """Freeze the cache-key rendering: changing it orphans disk caches."""

    #: the canonical JSON of a plain 50-ohm scenario, verbatim
    PINNED_KEY = ('{"bit_time":2e-09,"corner":"typ","driver":"MD2",'
                  '"dt":null,"load":{"c":0.0,"kind":"r","r":50.0},'
                  '"pattern":"0110","spectral":null,"t_stop":null}')
    PINNED_DIGEST = "3e0cc75a1734c2c14115e797c14aeb76"
    #: digest with the board-b spectral request folded in
    PINNED_SPECTRAL_DIGEST = "7e28721d61076b38d0c7e24f65553460"
    #: study-level identity of the one-scenario board-b study
    PINNED_STUDY_DIGEST = "60067d3f44aa77f884fb223ce0b248a9"

    def test_scenario_key_is_pinned(self):
        sc = Scenario(pattern="0110", load=LoadSpec(kind="r", r=50.0))
        assert sc.key() == self.PINNED_KEY
        assert scenario_key_digest(sc.key()) == self.PINNED_DIGEST

    def test_spectral_and_study_digests_are_pinned(self):
        s = Study(patterns=("0110",), loads=(LoadSpec(kind="r", r=50.0),),
                  spectral=SpectralSpec(mask="board-b"))
        assert scenario_key_digest(s.scenarios()[0].key()) == \
            self.PINNED_SPECTRAL_DIGEST
        assert s.digest() == self.PINNED_STUDY_DIGEST

    def test_key_ignores_cosmetics_and_load_route(self):
        """Same physics, different labels / spec route -> one key."""
        base = Scenario(pattern="0110",
                        load=LoadSpec(kind="r", r=50.0),
                        spectral=SpectralSpec(mask="board-b"))
        relabeled = Scenario(pattern="0110", name="named",
                             load=LoadSpec(kind="r", r=50.0,
                                           label="matched"),
                             spectral=SpectralSpec(mask="board-b"))
        via_load = Scenario(pattern="0110",
                            load=LoadSpec(kind="r", r=50.0,
                                          spectral=SpectralSpec(
                                              mask="board-b")))
        assert base.key() == relabeled.key() == via_load.key()

    def test_load_level_spectral_wins_over_the_study_default(self):
        """The study-wide spectral is a default: a load carrying its own
        request keeps it (the docstring's promise)."""
        own = LoadSpec(kind="r", spectral=SpectralSpec(
            quantity="i_port", mask="board-i"))
        plain = LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e4)
        study = Study(patterns=("01",), loads=(own, plain),
                      spectral=SpectralSpec(mask="board-b"))
        with_own, with_default = study.scenarios()
        assert with_own.spectral_spec().quantity == "i_port"
        assert with_own.spectral_spec().mask == "board-i"
        assert with_default.spectral_spec().mask == "board-b"
        # ... and the load-level request is part of the study identity
        stripped = Study(patterns=("01",),
                         loads=(LoadSpec(kind="r"), plain),
                         spectral=SpectralSpec(mask="board-b"))
        assert study.digest() != stripped.digest()

    def test_study_digest_ignores_cosmetics_and_runner_options(self):
        """Names, load labels and execution knobs never move the digest."""
        base = Study(patterns=("0110",),
                     loads=(LoadSpec(kind="r", r=50.0),),
                     spectral=SpectralSpec(mask="board-b"))
        cosmetic = Study(patterns=("0110",), name="signoff",
                         loads=(LoadSpec(kind="r", r=50.0,
                                         label="matched"),),
                         spectral=SpectralSpec(mask="board-b"),
                         options=RunnerOptions(n_workers=7))
        assert cosmetic.digest() == base.digest()
        different = Study(patterns=("0110",),
                          loads=(LoadSpec(kind="r", r=75.0),),
                          spectral=SpectralSpec(mask="board-b"))
        assert different.digest() != base.digest()

    def test_inline_mask_matches_registered_name(self):
        """Mask names resolve to content in the canonical form."""
        from repro.emc import get_mask
        named = SpectralSpec(mask="board-b")
        inline = SpectralSpec(mask=get_mask("board-b"))
        assert named.canonical() == inline.canonical()

    def test_line_study_disk_key_and_stochastic_digest_are_pinned(
            self, tmp_path):
        """Study digest, disk-cache key and Monte Carlo digest of a
        board-b line study, recorded before the FD backend and the
        shared-memory return were removed: execution changes must not
        move any of them."""
        from repro.experiments.cache import SweepDiskCache
        from repro.studies import (Distribution, ScenarioRunner,
                                   StochasticSpec, StochasticStudy,
                                   TrafficModel)

        class FixedModel:
            """A model whose content fingerprint never changes."""

            def to_dict(self):
                return {"kind": "pwrbf_driver", "name": "pinned",
                        "ts": 25e-12}

        line = LoadSpec(kind="line", z0=50.0, td=1e-9, r=1e4)
        study = Study(patterns=("0110", "01"), loads=(line,),
                      spectral=SpectralSpec(mask="board-b"))
        assert study.digest() == "4f710126d59a1c3740052854e520bfcb"
        runner = ScenarioRunner(models={("MD2", "typ"): FixedModel()},
                                n_workers=1)
        key = runner._disk_key(study.scenarios()[0])
        assert key[1] == "1554f7c640e31c92"
        # the key renders as it did under cache version 4; version 5
        # (the stored verdict dropped) moves only the version folded in
        assert SweepDiskCache(tmp_path, version=4)._digest(key) == \
            "101647724ca1a13c83bd880161554762"
        assert SweepDiskCache(tmp_path)._digest(key) == \
            "59a879b8c53fc4a8335b6fb41b30122a"
        mc = StochasticStudy(
            loads=line, spectral=SpectralSpec(mask="board-b"),
            stochastic=StochasticSpec(
                seed=7, n_draws=16,
                traffic=TrafficModel(model="rll", n_bits=8),
                params={"r": Distribution(dist="uniform", low=40.0,
                                          high=60.0)}))
        assert mc.digest() == "49d6bd7b4f5b0d47b82e4bc24d70aafa"


#: malformed study documents and the field path each error must name
MALFORMED = [
    (5, "table of fields"),
    ({"loads": 5}, "'loads'"),
    ({"patterns": ["01"], "loads": [{"kind": "r", "r": "abc"}]},
     "loads[0].r"),
    ({"patterns": ["01"], "bit_time": "fast"}, "'bit_time'"),
    # removed runner options are rejected, never silently ignored
    ({"patterns": ["01"], "runner": {"backend": "fd"}}, "runner"),
    ({"patterns": ["01"], "runner": {"shared_waveforms": True}}, "runner"),
    ({"patterns": ["01"], "runner": {"batch": False}}, "runner"),
    # runner option values are checked when the study is read
    ({"patterns": ["01"], "runner": {"use_result_cache": "false"}},
     "'use_result_cache'"),
    ({"patterns": ["01"], "runner": {"n_workers": -2}}, "'n_workers'"),
    ({"patterns": ["01"], "runner": {"n_workers": 2.7}}, "'n_workers'"),
    ({"patterns": ["01"], "runner": {"n_workers": True}}, "'n_workers'"),
    ({"patterns": ["01"], "runner": {"disk_cache": 5}}, "'disk_cache'"),
    ({"patterns": ["01"], "runner": {"use_result_cache": False,
                                     "disk_cache": "c"}}, "'disk_cache'"),
    # values that once passed parsing and failed only when rendered
    ({"patterns": ["01"], "bit_time": None}, "'bit_time'"),
    ({"loads": [{"kind": "r"}], "stochastic": {"seed": -1}},
     "stochastic.seed"),
    ({"loads": [{"kind": "r"}], "stochastic": {"params": {"r": "abc"}}},
     "stochastic.params.r"),
    ({"loads": [{"kind": "r"}], "stochastic": {"params": {
        "r": {"dist": "uniform", "low": "a", "high": "b"}}}},
     "stochastic.params.r"),
    # a bad nested field is named by its full path
    ({"patterns": [5]}, "patterns[0]"),
    ({"patterns": ["01", "0x"]}, "patterns[1]"),
    ({"patterns": ["01"], "loads": [{"kind": "rx", "receiver": "NOPE"}]},
     "loads[0].receiver"),
    ({"patterns": ["01"], "drivers": ["MD9"]}, "drivers[0]"),
    ({"patterns": ["01"], "corners": ["typ", "weird"]}, "corners[1]"),
    ({"loads": [{"kind": "r"}], "stochastic": {"corner": "weird"}},
     "stochastic.corner"),
    ({"loads": [{"kind": "r"}], "stochastic": {"corner": 5}},
     "stochastic.corner"),
    ({"patterns": ["01"], "bit_time": 0.0}, "bit_time"),
    ({"patterns": ["01"], "bit_time": -2e-9}, "bit_time"),
    ({"patterns": ["01"], "dt": -1e-12}, "dt"),
    ({"patterns": ["01"], "t_stop": 0.0}, "t_stop"),
    ({"patterns": ["01"], "loads": [{"kind": "r", "r": float("inf")}]},
     "loads[0].r"),
    ({"patterns": ["01"], "loads": [{"kind": "r"},
                                    {"kind": "line", "c": float("nan")}]},
     "loads[1].c"),
    ({"loads": [{"kind": "r"}], "stochastic": {"n_draws": 2.7}},
     "stochastic.n_draws"),
    ({"loads": [{"kind": "r"}], "stochastic": {"seed": 2.7}},
     "stochastic.seed"),
    ({"loads": [{"kind": "r"}], "stochastic": {"seed": True}},
     "stochastic.seed"),
    ({"patterns": ["01"], "spectral": {"n_fft": 2.5}}, "spectral.n_fft"),
    ({"patterns": ["01"], "name": 5}, "name"),
    ({"patterns": ["01"], "loads": [{"kind": "r", "label": 5}]},
     "loads[0].label"),
    ({"loads": [{"kind": "line"}], "stochastic": {"params": {
        "r": {"dist": "uniform", "low": -1e9, "high": 60.0}}}},
     "stochastic.params.r.low"),
    ({"loads": [{"kind": "line"}], "stochastic": {"params": {
        "r": {"dist": "normal", "mean": 50.0, "std": 10.0}}}},
     "stochastic.params.r.mean"),
    ({"loads": [{"kind": "line"}], "stochastic": {"params": {
        "r": {"dist": "uniform", "low": "a", "high": 60.0}}}},
     "stochastic.params.r.low"),
    ({"patterns": ["01"], "spectral": {"quantity": "i_port",
                                       "antenna": {"points": [[1e6]]}}},
     "spectral.antenna.points[0]"),
]


#: non-physical load values and the field each error must name
NONPHYSICAL = [
    ({"kind": "line", "c": -1e-12}, "'c'"),
    ({"kind": "line", "r": -50.0}, "'r'"),
    ({"kind": "line", "z0": -50.0}, "'z0'"),
    ({"kind": "line", "td": -1e-9}, "'td'"),
    ({"kind": "line", "td": 0.0}, "'td'"),
    ({"kind": "r", "r": -50.0}, "'r'"),
    ({"kind": "rc", "r": -75.0, "c": 5e-12}, "'r'"),
    ({"kind": "rc", "r": 75.0, "c": -5e-12}, "'c'"),
    ({"kind": "rx", "td": -1e-9}, "'td'"),
    ({"kind": "rx", "z0": 0.0}, "'z0'"),
    ({"kind": "rx", "c": -1e-12}, "'c'"),
    ({"kind": "line", "r": float("inf")}, "'r'"),
    ({"kind": "rx", "receiver": "NOPE"}, "'receiver'"),
    ({"kind": "coupled", "r_far": 0.0}, "'r_far'"),
    ({"kind": "coupled", "l_mut": 400e-9}, "'l_mut'.*loads.0.\\.l_self"),
    ({"kind": "coupled", "c_mut": 200e-12}, "'c_mut'.*loads.0.\\.c_self"),
]


class TestKeyMemo:
    """``Scenario.key()`` renders once per scenario and registry
    generation, and the memo stays in its process."""

    def test_key_renders_once(self):
        sc = Scenario(pattern="0110", load=LoadSpec(kind="r", r=50.0))
        assert sc.key() is sc.key()

    def test_mask_overwrite_rebuilds_the_key(self):
        def mask(level):
            return LimitMask("memo-test", ((1e6, 1e9, level, level),))
        register_mask(mask(60.0))
        try:
            sc = Scenario(pattern="0110",
                          spectral=SpectralSpec(mask="memo-test"))
            before = sc.key()
            register_mask(mask(50.0), overwrite=True)
            assert sc.key() != before
            assert sc.key() == Scenario(
                pattern="0110", spectral=SpectralSpec(mask="memo-test")).key()
        finally:
            MASKS.pop("memo-test", None)

    def test_kind_overwrite_rebuilds_the_key(self):
        base = type(get_kind("rc"))

        def kind(fields):
            return type("MemoKind", (base,), {"name": "memo-test",
                                              "load_cls": LoadSpec,
                                              "physics_fields": fields})()
        register_kind(kind(("r",)))
        try:
            sc = Scenario(pattern="0110",
                          load=LoadSpec(kind="memo-test", r=50.0, c=1e-12))
            before = sc.key()
            assert '"c"' not in before
            register_kind(kind(("r", "c")), overwrite=True)
            assert '"c":1e-12' in sc.key()
            assert sc.key() != before
        finally:
            KINDS.pop("memo-test", None)

    def test_memos_never_travel_in_a_pickle(self):
        study = Study(patterns=("01", "0110"),
                      loads=(LoadSpec(kind="r", r=50.0),))
        sc = study.scenarios()[0]
        key = sc.key()
        for obj in (sc, study):
            assert "_memos" in vars(obj)
            assert "_memos" not in vars(pickle.loads(pickle.dumps(obj)))
        copy = pickle.loads(pickle.dumps(sc))
        assert copy == sc and copy.key() == key
        assert pickle.loads(pickle.dumps(study)).scenarios() == \
            study.scenarios()

    def test_study_grid_is_rendered_once(self):
        study = Study(patterns=("01", "0110"),
                      loads=(LoadSpec(kind="r", r=50.0),
                             LoadSpec(kind="rc", r=75.0, c=5e-12)))
        first, again = study.scenarios(), study.scenarios()
        assert first == again and first is not again
        assert all(a is b for a, b in zip(first, again))


class TestNonPhysicalLoads:
    """Non-physical load values fail at the boundary, naming the field,
    instead of running (a negative capacitor read as "none") or failing
    later once per scenario."""

    @pytest.mark.parametrize("load, field", NONPHYSICAL)
    def test_from_dict_names_the_field(self, load, field):
        with pytest.raises(ExperimentError, match=field):
            Study.from_dict({"patterns": ["01"], "loads": [load]})

    @pytest.mark.parametrize("load, field", NONPHYSICAL[:2])
    def test_cli_exits_2(self, load, field, tmp_path, capsys):
        from repro.studies.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"patterns": ["01"], "loads": [load]}),
                        encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_boundary_values_are_accepted(self):
        """``td = 0`` (no line) and ``r = 0`` (unterminated) are valid
        receiver loads; ``c = 0`` is a line without a far-end capacitor."""
        Study.from_dict({"patterns": ["01"], "loads": [
            {"kind": "rx", "td": 0.0, "r": 0.0},
            {"kind": "line", "c": 0.0}]})

    def test_spread_inside_the_bounds_is_accepted(self):
        """A normal spread whose mean +- 6 std stays inside the field's
        bounds (the quickstart's N(50, 2.5) on a line's r) is read, and
        a uniform spread may touch a closed bound."""
        Study.from_dict({"loads": [{"kind": "line"}], "stochastic": {
            "params": {"r": {"dist": "normal", "mean": 50.0, "std": 2.5},
                       "c": {"dist": "uniform", "low": 0.0,
                             "high": 1e-12}}}})


#: unknown mask names and the spectral field each error must name
UNKNOWN_MASKS = [
    ({"mask": "no-such-mask"}, "spectral mask.*no-such-mask"),
    ({"mask": ["board-b"]}, "spectral mask"),
    ({"mask": {"name": "inline"}}, "spectral mask"),
    ({"quantity": "i_port", "antenna": {"kind": "cable"},
      "radiated_mask": "no-such-mask"}, "spectral radiated_mask"),
]


class TestUnknownMasks:
    """A mask name missing from the registry fails when the study is
    read, naming the field, instead of failing every scenario after the
    grid has run."""

    @pytest.mark.parametrize("spectral, field", UNKNOWN_MASKS)
    def test_from_dict_names_the_field(self, spectral, field):
        with pytest.raises(ExperimentError, match=field):
            Study.from_dict({"patterns": ["01"], "spectral": spectral})

    def test_constructor_checks_the_type(self):
        with pytest.raises(ExperimentError, match="spectral mask"):
            SpectralSpec(mask=5)

    def test_toml_and_cli(self, tmp_path, capsys):
        from repro.studies.cli import main
        text = (Path(__file__).parents[2] / "examples"
                / "study_minimal.toml").read_text(encoding="utf-8")
        assert 'mask = "board-b"' in text
        path = tmp_path / "bad.toml"
        path.write_text(text.replace('mask = "board-b"',
                                     'mask = "no-such-mask"'),
                        encoding="utf-8")
        with pytest.raises(ExperimentError, match="spectral mask"):
            Study.load(path)
        assert main(["run", str(path)]) == 2
        assert "spectral mask" in capsys.readouterr().err


class TestMalformedInputs:
    """Bad field types surface as ExperimentError naming the field's
    path, not as a bare TypeError/ValueError."""

    @pytest.mark.parametrize("doc, field", MALFORMED)
    def test_from_dict_names_the_field(self, doc, field):
        with pytest.raises(ExperimentError, match=re.escape(field)):
            Study.from_dict(doc)

    def test_study_size_has_an_admission_ceiling(self, tmp_path, capsys):
        """A grid larger than ``MAX_SCENARIOS`` -- the same ceiling as a
        stochastic draw budget -- is refused when described, before any
        scenario renders; the CLI exits 2."""
        from repro.studies.cli import main
        from repro.studies.spec import MAX_SCENARIOS
        loads = (LoadSpec(kind="r", r=50.0),) * (MAX_SCENARIOS // 100)
        at = Study(patterns=("01",) * 100, loads=loads)
        assert len(at) == MAX_SCENARIOS
        assert "_memos" not in at.__dict__  # nothing rendered
        with pytest.raises(ExperimentError, match="admission ceiling"):
            Study(patterns=("01",) * 101, loads=loads)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"patterns": ["01"] * 101,
             "loads": [{"kind": "r", "r": 50.0}] * len(loads)}),
            encoding="utf-8")
        assert main(["show", str(path)]) == 2
        assert "admission ceiling" in capsys.readouterr().err

    def test_removed_batch_option_is_rejected_everywhere(self):
        """Every scenario runs batched; the removed ``batch`` switch is
        refused by plain and Monte Carlo studies alike."""
        from repro.studies import StochasticStudy
        with pytest.raises(ExperimentError, match="batch"):
            StochasticStudy.from_dict({"stochastic": {},
                                       "runner": {"batch": True}})
        with pytest.raises(ExperimentError, match="batch"):
            Study.from_dict({"stochastic": {}, "runner": {"batch": True}})
        with pytest.raises(TypeError):
            ScenarioRunner(batch=False)

    @pytest.mark.parametrize("doc, field", MALFORMED)
    def test_cli_exits_2(self, doc, field, tmp_path, capsys):
        from repro.studies.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the boundary property: any one-field mutation of a valid document
# ---------------------------------------------------------------------------

#: a valid plain study document touching every table of the schema
PLAIN_DOC = {
    "name": "boundary", "patterns": ["01", "0110"],
    "drivers": ["MD2"], "corners": ["slow", "typ"],
    "bit_time": 2e-9, "dt": 25e-12, "t_stop": 8e-9,
    "loads": [
        {"kind": "r", "r": 50.0, "label": "matched"},
        {"kind": "line", "z0": 65.0, "td": 1e-9, "r": 1e3, "c": 2e-12,
         "spectral": {"quantity": "v_port", "window": "blackman",
                      "mask": {"name": "inline", "unit": "dBuV",
                               "segments": [[1e6, 1e8, 80.0, 70.0],
                                            [1e8, 1e9, 70.0, 60.0]]}}},
        {"kind": "rx", "z0": 50.0, "td": 0.0, "r": 0.0,
         "receiver": "MD4"},
        {"kind": "coupled", "length": 0.05, "l_mut": 30e-9},
    ],
    "spectral": {"quantity": "i_port", "n_fft": 4096, "mask": "board-i",
                 "detectors": ["peak", "average"], "prf": 1e3,
                 "antenna": {"kind": "table", "distance": 3.0,
                             "points": [[1e6, -20.0], [1e9, 10.0]],
                             "cm_fraction": 0.01},
                 "radiated_mask": "fcc-15b"},
    "runner": {"n_workers": 1, "use_result_cache": True,
               "disk_cache": ".cache-boundary"},
}

#: a valid Monte Carlo document touching every sampler table
STOCHASTIC_DOC = {
    "bit_time": 1e-9, "drivers": ["MD2"], "corners": ["typ"],
    "loads": [{"kind": "line", "z0": 50.0, "td": 1e-9, "r": 50.0}],
    "spectral": {"mask": "board-b"},
    "stochastic": {
        "seed": 7, "n_draws": 4, "stop_ci": 0.1, "min_draws": 2,
        "traffic": {"model": "rll", "n_bits": 8, "min_run": 1,
                    "max_run": 3},
        "jitter": {"dist": "uniform", "scale": 5e-11, "subdiv": 4},
        "corner": {"dist": "discrete", "choices": ["slow", "fast"],
                   "weights": [1.0, 2.0]},
        "params": {"r": {"dist": "uniform", "low": 40.0, "high": 60.0},
                   "z0": {"dist": "normal", "mean": 50.0, "std": 2.0},
                   "c": {"dist": "constant", "value": 1e-12}}},
}

#: any JSON value; integers stay small or extreme, since a valid draw
#: budget renders every draw (10 s at the 10**5 ceiling)
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(-1000, 1000)
    | st.sampled_from([10**5 + 1, 2**63, -2**63, 10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _paths(doc, prefix=()):
    """Every (path, rendered path) below ``doc``, parents first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = (*prefix, key)
        yield path, "".join(f"[{k}]" if isinstance(k, int)
                            else f".{k}" for k in path).lstrip(".")
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


def _mutated(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestBoundaryProperty:
    """Any JSON value at any path of a valid document gives a study
    whose grid and digest render, or an ExperimentError naming that
    path -- never another exception, never a nameless refusal."""

    @pytest.mark.parametrize("doc", [PLAIN_DOC, STOCHASTIC_DOC],
                             ids=["plain", "stochastic"])
    def test_base_documents_are_valid(self, doc):
        study = Study.from_dict(doc)
        assert Study.from_dict(study.to_dict()) == study
        assert study.scenarios() and study.digest()

    @pytest.mark.parametrize("doc", [PLAIN_DOC, STOCHASTIC_DOC],
                             ids=["plain", "stochastic"])
    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_one_field_mutation_answers_with_its_path(self, doc, data):
        path, text = data.draw(st.sampled_from(list(_paths(doc))))
        bad = _mutated(doc, path, data.draw(json_values))
        try:
            study = Study.from_dict(bad)
            study.scenarios()
            study.digest()
        except ExperimentError as exc:
            assert text in str(exc), (text, str(exc))
