"""Identification records on the grid-batched engine.

Each lockstep group of the estimation pipelines -- a corner's two state
records, the four switching records (up and down into both loads), the
receiver's three records -- must match a fresh serial ``run_transient``
of every member's bench at 1e-9, from the DC operating point on.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.circuit import TransientOptions, run_transient, run_transient_batch
from repro.devices import MD2, MD4
from repro.ident import (default_identification_loads, driver_state_bench,
                         driver_switching_bench, receiver_bench, run_benches)
from repro.obs import Tracer, set_tracer

TOL = 1e-9


def assert_group_matches_serial(make_group):
    """``make_group()`` builds fresh benches; batched == serial."""
    group = make_group()
    t_stops = [b.t_stop for b in group]
    opts = TransientOptions(dt=group[0].ts, t_stop=max(t_stops),
                            method="damped", ic="dcop")
    batched = run_transient_batch([b.circuit for b in group], opts,
                                  t_stops=t_stops)
    for bench, res in zip(make_group(), batched):
        assert res.batched
        ref = run_transient(bench.circuit, replace(opts, t_stop=bench.t_stop))
        np.testing.assert_array_equal(res.t, ref.t)
        np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("corner", ["slow", "typ", "fast"])
def test_state_records_match_serial(corner):
    assert_group_matches_serial(lambda: [
        driver_state_bench(MD2, state, duration=8e-9, seed=seed,
                           corner=corner, v_min=-0.8, v_max=MD2.vdd + 0.8)
        for state, seed in (("1", 0), ("0", 1))])


@pytest.mark.parametrize("load", default_identification_loads(),
                         ids=lambda ld: ld.label())
def test_switching_records_match_serial(load):
    assert_group_matches_serial(lambda: [
        driver_switching_bench(MD2, load, pattern, bit_time=2e-9)
        for pattern in ("01", "10")])


def test_fused_switching_records_equal_two_groups():
    """The four switching records of MD2-typ at the pipeline's default
    settings run as one group; each record is bitwise what the group of
    its own load's two records gives."""
    def benches(load):
        return [driver_switching_bench(MD2, load, pattern)
                for pattern in ("01", "10")]
    loads = default_identification_loads()
    [fused] = run_benches([benches(loads[0]) + benches(loads[1])])
    per_load = [rec for group in run_benches([benches(ld) for ld in loads])
                for rec in group]
    assert len(fused) == len(per_load) == 4
    for a, b in zip(fused, per_load):
        assert a.meta == b.meta
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.i, b.i)


def test_receiver_records_match_serial():
    assert_group_matches_serial(lambda: [
        receiver_bench(MD4, region, duration=8e-9, seed=seed)
        for region, seed in (("linear", 0), ("up", 1), ("down", 2))])


def test_run_benches_records_and_span():
    """One ``ident.records`` span holds the groups' transients: the
    batched pair, and a singleton group, a lockstep batch of one; no
    group falls back and none runs on the serial engine."""
    tracer = Tracer(collect=True)
    set_tracer(tracer)
    try:
        load = default_identification_loads()[0]
        [[up, down], [lone]] = run_benches([
            [driver_switching_bench(MD2, load, pattern, bit_time=1e-9)
             for pattern in ("01", "10")],
            [receiver_bench(MD4, "up", duration=2e-9)]])
    finally:
        set_tracer(None)
    assert (up.meta["pattern"], down.meta["pattern"]) == ("01", "10")
    assert len(up) == len(down) == 81 and len(lone) == 81
    [records] = [sp for sp in tracer.finished if sp.name == "ident.records"]
    assert records.attrs == {"groups": 2, "members": 3}
    pair, single = [sp for sp in tracer.finished
                    if sp.name == "transient.batch"]
    assert not [sp for sp in tracer.finished if sp.name == "transient.run"]
    assert pair.parent_id == single.parent_id == records.span_id
    assert (pair.attrs["members"], single.attrs["members"]) == (2, 1)
    assert "fallback" not in pair.attrs and "fallback" not in single.attrs
