"""Shared fixtures: estimated macromodels are expensive, build them once."""

import numpy as np
import pytest

from repro.devices import MD2, MD4
from repro.models import (PWRBFDriverModel, estimate_cv_receiver,
                          estimate_driver_model, estimate_receiver_model)


@pytest.fixture(scope="session")
def md2_model():
    """PW-RBF model of the MD2 driver (paper Example 2 class)."""
    return estimate_driver_model(MD2, order=2, n_bases_high=9, n_bases_low=9)


@pytest.fixture(scope="session")
def md4_model():
    """Parametric (ARX + RBF) model of the MD4 receiver."""
    return estimate_receiver_model(MD4)


@pytest.fixture(scope="session")
def md4_cv():
    """C-V baseline model of the MD4 receiver."""
    return estimate_cv_receiver(MD4)


@pytest.fixture(scope="session")
def md2_corners(md2_model):
    """Three distinct models of one driver standing in for its slow /
    typ / fast corners (estimating the real ones costs seconds each):
    the MD2 model and two copies with rescaled weights and widths, one
    of them a center short in each submodel."""
    def variant(scale, drop_weakest):
        model = PWRBFDriverModel.from_dict(md2_model.to_dict())
        for sub in (model.sub_high, model.sub_low):
            sub.weights = sub.weights * scale
            sub.sigma *= 2.0 - scale
            if drop_weakest:
                keep = np.sort(np.argsort(np.abs(sub.weights))[1:])
                sub.centers = sub.centers[keep]
                sub.weights = sub.weights[keep]
        return model
    return {"slow": variant(0.95, True), "typ": md2_model,
            "fast": variant(1.05, False)}
