"""The stacked, history-split RBF kernel against the scalar evaluator.

:class:`repro.models.rbf.StackedRBF` is what the grid-batched transient
backend runs on every Newton pass; :meth:`GaussianRBF.compile`'s
``eval_grad`` is what the serial driver element runs.  For any regressor
-- inside the fitted box or clipped on the present-voltage column or on
a history column -- the two must agree on ``(f, df/dv)``, over the full
member axis and over a member subset sliced from the step's history
terms (the batched Newton's retry path), whether the members share one
network per row or each carries its own (a group spanning corners).
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import GaussianRBF, RegressorScaler
from repro.models.rbf import StackedRBF

RTOL = 1e-12


def random_rbf(rng, n_bases, dim):
    """A random network over a random scaler with a finite clip box."""
    lo = rng.uniform(-2.0, -0.5, dim)
    hi = rng.uniform(0.5, 2.0, dim)
    scaler = RegressorScaler(mean=rng.normal(0.0, 0.2, dim),
                             scale=rng.uniform(0.3, 1.5, dim), lo=lo, hi=hi)
    return GaussianRBF(centers=rng.normal(0.0, 1.0, (n_bases, dim)),
                       sigma=float(rng.uniform(0.5, 1.5)),
                       weights=rng.normal(0.0, 2.0, n_bases),
                       affine=rng.normal(0.0, 0.5, dim),
                       bias=float(rng.normal()), scaler=scaler)


def regressors(rng, models, n):
    """``n`` regressor rows spread to 1.5x the widest clip box, so rows
    clip on the present-voltage column and on history columns."""
    lo = np.min([m.scaler.lo for m in models], axis=0)
    hi = np.max([m.scaler.hi for m in models], axis=0)
    mid, half = 0.5 * (lo + hi), 0.75 * (hi - lo)
    return rng.uniform(mid - half, mid + half, (n, lo.size))


def scalar_reference(rows, X):
    """``(f, g)`` of every member's networks at its row, from
    ``_CompiledRBF``; ``rows[s][n]`` is network ``s`` of member ``n``."""
    f = np.empty((len(rows), len(X)))
    g = np.empty_like(f)
    for s, row in enumerate(rows):
        for n, (m, x) in enumerate(zip(row, X.tolist())):
            f[s, n], g[s, n] = m.compile().eval_grad(x)
    return f, g


def assert_kernel_matches(models, X, idx=None, per_member=None):
    """``models`` is one network per row shared by every member, unless
    ``per_member`` gives each row's networks member by member."""
    rows = per_member or [[m] * len(X) for m in models]
    kernel = StackedRBF(rows)
    D, A = kernel.history(X[:, 1:].T)
    V = X[:, 0]
    if idx is not None:
        D, A, V, X = D[:, :, idx], A[:, idx], V[idx], X[idx]
        rows = [[row[i] for i in idx] for row in rows]
    f, g = kernel.eval(V, D, A, idx)
    f_ref, g_ref = scalar_reference(rows, X)
    np.testing.assert_allclose(f, f_ref, rtol=RTOL, atol=RTOL)
    np.testing.assert_allclose(g, g_ref, rtol=RTOL, atol=RTOL)
    np.testing.assert_array_equal(kernel.eval(V, D, A, idx, grad=False), f)
    return f, g


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_pair_matches_scalar(seed):
    """Two networks with different center counts (the shorter pads with
    zero-weight centers), full batch and an index subset."""
    rng = np.random.default_rng(seed)
    models = [random_rbf(rng, 7, 5), random_rbf(rng, 4, 5)]
    X = regressors(rng, models, 200)
    lo0 = np.array([m.scaler.lo[0] for m in models])[:, None]
    hi0 = np.array([m.scaler.hi[0] for m in models])[:, None]
    clipped0 = (X[:, 0] < lo0) | (X[:, 0] > hi0)
    hist_clipped = np.array([((X[:, 1:] < m.scaler.lo[1:])
                              | (X[:, 1:] > m.scaler.hi[1:])).any(axis=1)
                             for m in models])
    assert clipped0.any() and (~clipped0).any()
    assert hist_clipped.any() and (~hist_clipped).any()
    _, g = assert_kernel_matches(models, X)
    assert (g[clipped0] == 0.0).all()
    idx = rng.choice(len(X), size=37, replace=False)
    assert_kernel_matches(models, X, idx=np.sort(idx))


def test_driver_submodels_match_scalar(md2_model):
    """The estimated pw-RBF driver's own submodel pair."""
    rng = np.random.default_rng(5)
    models = [md2_model.sub_high, md2_model.sub_low]
    X = regressors(rng, models, 150)
    assert_kernel_matches(models, X)
    assert_kernel_matches(models, X, idx=np.arange(3, 150, 4))


@pytest.mark.parametrize("seed", [3, 4])
def test_per_member_networks_match_scalar(seed):
    """Members cycling over three network pairs with different center
    counts, scalers and widths, as a group spanning driver corners."""
    rng = np.random.default_rng(seed)
    pairs = [(random_rbf(rng, n_h, 5), random_rbf(rng, n_l, 5))
             for n_h, n_l in ((9, 9), (6, 8), (11, 4))]
    X = regressors(rng, [m for p in pairs for m in p], 120)
    rows = [[pairs[n % 3][s] for n in range(len(X))] for s in range(2)]
    assert_kernel_matches(None, X, per_member=rows)
    assert_kernel_matches(None, X, idx=np.arange(1, 120, 5),
                          per_member=rows)


def test_order_zero_has_no_history():
    rng = np.random.default_rng(9)
    models = [random_rbf(rng, 3, 1), random_rbf(rng, 5, 1)]
    assert_kernel_matches(models, regressors(rng, models, 40))


def test_dimension_mismatch_is_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(ModelError):
        StackedRBF([[random_rbf(rng, 3, 5)], [random_rbf(rng, 3, 3)]])
