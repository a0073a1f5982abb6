"""Estimation pipelines on the lockstep engine: equivalence, validation
and the spans that show where estimation time goes."""

import numpy as np
import pytest

import repro.models.pipeline as pipeline
from repro.devices import MD2, MD4
from repro.errors import ExperimentError
from repro.ident import ResistiveLoad, run_benches
from repro.models import estimate_driver_model, estimate_receiver_model
from repro.obs import Tracer, set_tracer

#: reduced settings: the pipelines' phases at a fraction of the cost
DRIVER = {"order": 2, "n_bases_high": 4, "n_bases_low": 4,
          "state_duration": 12e-9, "bit_time": 10e-9}
RECEIVER = {"duration": 12e-9}


def _serial_benches(groups):
    """``run_benches`` one bench at a time: the serial engine."""
    return [[run_benches([[b]])[0][0] for b in g] for g in groups]


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_receiver_model_matches_serial(monkeypatch):
    """The batched records (agreeing with serial to ~1e-15) give the
    serial estimate to 1e-9 relative."""
    batched = estimate_receiver_model(MD4, **RECEIVER)
    monkeypatch.setattr(pipeline, "run_benches", _serial_benches)
    serial = estimate_receiver_model(MD4, **RECEIVER)
    for part in ("b", "a"):
        assert _rel(getattr(batched.linear, part),
                    getattr(serial.linear, part)) < 1e-9
    for name in ("up", "down"):
        b, s = getattr(batched, name), getattr(serial, name)
        assert b.sigma == pytest.approx(s.sigma, rel=1e-12)
        np.testing.assert_allclose(b.centers, s.centers, atol=1e-12)
        assert _rel(b.weights, s.weights) < 1e-9


def test_pipelines_stay_batched(fresh_metrics):
    """Every record group of both pipelines runs batched: no fallback."""
    estimate_driver_model(MD2, **DRIVER)
    estimate_receiver_model(MD4, **RECEIVER)
    assert fresh_metrics.total("batch_fallbacks_total") == 0


@pytest.mark.parametrize("loads", [
    (ResistiveLoad(40.0), ResistiveLoad(40.0, to_rail=True),
     ResistiveLoad(80.0)),
    (ResistiveLoad(40.0), ResistiveLoad(40.0))],
    ids=["three loads", "identical loads"])
def test_identification_loads_are_validated(loads):
    with pytest.raises(ExperimentError):
        estimate_driver_model(MD2, loads=loads, **DRIVER)


def test_estimation_spans():
    """``model.estimate`` holds the records (with their batched
    transients), the static sweep and the fits."""
    tracer = Tracer(collect=True)
    set_tracer(tracer)
    try:
        estimate_driver_model(MD2, corner="fast", **DRIVER)
    finally:
        set_tracer(None)
    spans = {sp.span_id: sp for sp in tracer.finished}
    [est] = [sp for sp in spans.values() if sp.name == "model.estimate"]
    assert est.attrs == {"kind": "driver", "name": "MD2", "corner": "fast"}
    children = {sp.name: sp for sp in spans.values()
                if sp.parent_id == est.span_id}
    assert set(children) == {"ident.records", "ident.static_iv",
                             "model.fit"}
    records = children["ident.records"]
    assert records.attrs == {"groups": 2, "members": 6}
    batches = [sp for sp in spans.values() if sp.name == "transient.batch"]
    assert len(batches) == 2
    assert all(sp.parent_id == records.span_id and "fallback" not in
               sp.attrs for sp in batches)
