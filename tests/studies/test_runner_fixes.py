"""Runner regressions: cache identity under model swaps, child deaths.

* ``ScenarioRunner._disk_key`` memoized model fingerprints by
  ``(driver, corner)`` and by bare aux label, so swapping the model
  behind a key (a re-estimated driver, two loads reporting different
  aux models under one label) silently reused the first model's
  fingerprint -- and its cached waveforms.
* A dead worker must cost exactly its own job: jobs other children
  are still working through must never be abandoned and recomputed in
  the parent.
"""

import os
import signal
import sys
import time
from dataclasses import replace

import pytest

from repro.circuit import Resistor
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.studies import (KINDS, LoadSpec, ScenarioKind, ScenarioRunner,
                           register_kind, scenario_grid)
from repro.studies import runner as runner_mod


@pytest.fixture()
def models(md2_model):
    return {("MD2", "typ"): md2_model}


class TestFingerprintIdentity:
    def test_driver_swap_changes_disk_key(self, md2_model, models):
        """Swapping the model behind (driver, corner) must re-fingerprint."""
        runner = ScenarioRunner(models=models, n_workers=1)
        sc = scenario_grid(["0110"], [LoadSpec(kind="r", r=50.0)])[0]
        key_orig = runner._disk_key(sc)
        assert runner._disk_key(sc) == key_orig  # memo is stable
        tweaked = replace(md2_model, vdd=md2_model.vdd * 1.01)
        runner._models[("MD2", "typ")] = tweaked
        key_tweaked = runner._disk_key(sc)
        assert key_tweaked[0] == key_orig[0]  # same scenario ...
        assert key_tweaked[1] != key_orig[1]  # ... different content
        # and swapping back restores the original key (no staleness)
        runner._models[("MD2", "typ")] = md2_model
        assert runner._disk_key(sc) == key_orig

    def test_swapped_model_misses_warm_disk_cache(self, md2_model, models,
                                                  tmp_path):
        """A cache warmed by one model must not answer for another."""
        sc = scenario_grid(["0110"], [LoadSpec(kind="r", r=50.0)])[0]
        warm = ScenarioRunner(models=models, n_workers=1,
                              disk_cache=tmp_path)
        assert warm.run([sc]).n_cache_hits == 0
        same = ScenarioRunner(models=models, n_workers=1,
                              disk_cache=tmp_path)
        assert same._lookup(sc) is not None
        tweaked = replace(md2_model, vdd=md2_model.vdd * 1.01)
        other = ScenarioRunner(models={("MD2", "typ"): tweaked},
                               n_workers=1, disk_cache=tmp_path)
        assert other._lookup(sc) is None

    def test_aux_label_collision(self, md2_model, models):
        """Two loads reporting different aux models under one label must
        get different disk-key fingerprints."""
        model_a = md2_model
        model_b = replace(md2_model, vdd=md2_model.vdd * 1.01)

        class _AuxKind(ScenarioKind):
            """Shunt resistor whose aux model depends on the load value."""

            name = "auxswap"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                ckt.add(Resistor("rload", port, "0", load.r))
                return port

            def aux_models(self, load) -> dict:
                return {"rx": model_a if load.r < 60.0 else model_b}

        kind = _AuxKind()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            runner = ScenarioRunner(models=models, n_workers=1)
            sc_a, sc_b = scenario_grid(
                ["0110"], [LoadSpec(kind="auxswap", r=50.0),
                           LoadSpec(kind="auxswap", r=75.0)])
            fp_a = runner._disk_key(sc_a)[1]
            fp_b = runner._disk_key(sc_b)[1]
            assert fp_a != fp_b
            # interleaved lookups stay consistent (the memo answers by
            # model identity, not by whichever model asked last)
            assert runner._disk_key(sc_a)[1] == fp_a
            assert runner._disk_key(sc_b)[1] == fp_b
        finally:
            KINDS.pop("auxswap", None)


_PARENT_PID = os.getpid()


class _KillerKind(ScenarioKind):
    """Wires a shunt resistor -- but SIGKILLs any child process."""

    name = "child-killer"
    physics_fields = ("r",)

    def build_circuit(self, load, ckt, port: str) -> str:
        if os.getpid() != _PARENT_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        ckt.add(Resistor("rload", port, "0", load.r))
        return port


class _SlowKind(ScenarioKind):
    """Shunt resistor that stalls child processes (never the parent).

    No ``batch_structure``, so every slow scenario is its own dispatch
    job -- the point is children that keep working after another
    child's death.
    """

    name = "child-slow"
    physics_fields = ("r",)

    def build_circuit(self, load, ckt, port: str) -> str:
        if os.getpid() != _PARENT_PID:
            time.sleep(1.2)
        ckt.add(Resistor("rload", port, "0", load.r))
        return port


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="relies on fork workers")
class TestKilledChild:
    def test_only_the_killed_job_is_recomputed(self, models, monkeypatch):
        """Only the dead child's job is recomputed in the parent.

        One child is SIGKILLed immediately; three slow jobs keep the
        other children busy well after that death.  Their replies must
        all arrive, only the killed job falls back to the in-parent
        recompute, and the death counts one ``worker_restarts``.
        """
        for cls in (_KillerKind, _SlowKind):
            kind = cls()
            kind.load_cls = LoadSpec
            register_kind(kind, overwrite=True)
        recomputed = []
        orig = runner_mod.simulate_scenario_batch

        def counting(jobs):
            recomputed.append([sc.load.kind for sc, _ in jobs])
            return orig(jobs)

        monkeypatch.setattr(runner_mod, "simulate_scenario_batch",
                            counting)
        mine = MetricsRegistry()
        original = get_metrics()
        set_metrics(mine)
        try:
            loads = [LoadSpec(kind="child-killer", r=50.0)]
            loads += [LoadSpec(kind="child-slow", r=r)
                      for r in (50.0, 75.0, 150.0)]
            runner = ScenarioRunner(models=models, n_workers=2,
                                    use_result_cache=False)
            result = runner.run(scenario_grid(["0110"], loads))
            assert all(o.ok for o in result.outcomes)
            assert len(result.outcomes) == 4
            assert recomputed == [["child-killer"]]
            assert mine.total("worker_restarts") == 1
        finally:
            set_metrics(original)
            KINDS.pop("child-killer", None)
            KINDS.pop("child-slow", None)
