"""Estimation primitives: regressors, RBF networks, OLS, ARX."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError, ModelError
from repro.models import (ARXModel, GaussianRBF, OLSOptions, RegressorScaler,
                          build_regressors, fit_arx, fit_rbf_ols,
                          regressor_dim)
from repro.models.regressors import build_nfir_regressors, static_anchor_rows


class TestRegressors:
    def test_layout(self):
        v = np.arange(10.0)
        i = 100.0 + np.arange(10.0)
        X, y = build_regressors(v, i, order=2)
        assert X.shape == (8, 5)
        # row 0 is k=2: [v2, v1, v0, i1, i0]
        np.testing.assert_allclose(X[0], [2.0, 1.0, 0.0, 101.0, 100.0])
        assert y[0] == 102.0

    def test_order_zero(self):
        v = np.arange(5.0)
        i = np.arange(5.0) * 2
        X, y = build_regressors(v, i, order=0)
        assert X.shape == (5, 1)
        np.testing.assert_allclose(X[:, 0], v)
        np.testing.assert_allclose(y, i)

    def test_dim_helper(self):
        assert regressor_dim(0) == 1
        assert regressor_dim(2) == 5

    def test_nfir_layout(self):
        v = np.arange(6.0)
        y_in = np.arange(6.0) * 3
        X, y = build_nfir_regressors(v, y_in, order=1)
        assert X.shape == (5, 2)
        np.testing.assert_allclose(X[0], [1.0, 0.0])
        assert y[0] == 3.0

    def test_too_short_rejected(self):
        with pytest.raises(EstimationError):
            build_regressors(np.zeros(3), np.zeros(3), order=3)

    def test_mismatched_rejected(self):
        with pytest.raises(EstimationError):
            build_regressors(np.zeros(5), np.zeros(6), order=1)

    @given(st.integers(0, 3), st.integers(12, 40))
    @settings(max_examples=30, deadline=None)
    def test_shapes_property(self, order, n):
        rng = np.random.default_rng(0)
        v, i = rng.normal(size=n), rng.normal(size=n)
        X, y = build_regressors(v, i, order)
        assert X.shape == (n - order, 2 * order + 1)
        assert y.shape == (n - order,)

    def test_static_anchor_rows(self):
        vg = np.array([0.0, 1.0])
        ig = np.array([0.5, -0.5])
        X, y = static_anchor_rows(vg, ig, order=2, n_dynamic=100,
                                  fraction=0.1)
        assert X.shape[1] == 5
        assert X.shape[0] % 2 == 0
        np.testing.assert_allclose(X[0], [0.0, 0.0, 0.0, 0.5, 0.5])
        np.testing.assert_allclose(y[:2], ig)


class TestScaler:
    def test_transform_standardizes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(loc=3.0, scale=2.0, size=(200, 3))
        sc = RegressorScaler().fit(X)
        Z = sc.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, rtol=1e-9)

    def test_constant_column_survives(self):
        X = np.ones((50, 2))
        X[:, 1] = np.linspace(0, 1, 50)
        sc = RegressorScaler().fit(X)
        Z = sc.transform(X)
        assert np.all(np.isfinite(Z))

    def test_clip_box(self):
        X = np.linspace(0, 1, 50)[:, None]
        sc = RegressorScaler().fit(X)
        z_out = sc.transform(np.array([[10.0]]), clip=True)
        z_max = sc.transform(np.array([[sc.hi[0]]]), clip=False)
        np.testing.assert_allclose(z_out, z_max)

    def test_unfitted_rejected(self):
        with pytest.raises(EstimationError):
            RegressorScaler().transform(np.zeros((2, 2)))

    def test_roundtrip_dict(self):
        X = np.random.default_rng(2).normal(size=(30, 2))
        sc = RegressorScaler().fit(X)
        sc2 = RegressorScaler.from_dict(sc.to_dict())
        np.testing.assert_allclose(sc.transform(X), sc2.transform(X))


class TestGaussianRBF:
    def make_simple(self):
        sc = RegressorScaler().fit(np.linspace(-1, 1, 50)[:, None])
        return GaussianRBF(centers=[[0.0]], sigma=1.0, weights=[2.0],
                           affine=[0.0], bias=0.5, scaler=sc)

    def test_eval_peak_at_center(self):
        m = self.make_simple()
        v_center = m.scaler.mean[0]
        assert m.eval(np.array([[v_center]])) == pytest.approx(2.5)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1]
        m = fit_rbf_ols(X, y, OLSOptions(n_bases=8))
        x0 = X[10]
        f, g = m.eval_with_gradient(x0, clip=False)
        eps = 1e-6
        x1 = x0.copy()
        x1[0] += eps
        f1 = m.eval(x1[None, :], clip=False)
        assert (f1 - f) / eps == pytest.approx(g, rel=1e-3, abs=1e-8)

    def test_gradient_zero_when_clipped(self):
        m = self.make_simple()
        f, g = m.eval_with_gradient(np.array([100.0]), clip=True)
        assert g == 0.0

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] ** 2
        m = fit_rbf_ols(X, y, OLSOptions(n_bases=5))
        m2 = GaussianRBF.from_dict(m.to_dict())
        np.testing.assert_allclose(m.eval(X), m2.eval(X))

    def test_bad_sigma_rejected(self):
        with pytest.raises(ModelError):
            GaussianRBF(centers=[[0.0]], sigma=0.0, weights=[1.0],
                        affine=[0.0], bias=0.0)


class TestOLS:
    def test_fits_known_static_nonlinearity(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(500, 1))
        y = np.tanh(2 * X[:, 0])
        m = fit_rbf_ols(X, y, OLSOptions(n_bases=14))
        pred = m.eval(X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.05

    def test_error_trace_monotone_decreasing(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-2, 2, size=(400, 2))
        y = np.sin(X[:, 0]) * np.cos(X[:, 1])
        m = fit_rbf_ols(X, y, OLSOptions(n_bases=15))
        trace = np.array(m.meta_err)
        assert len(trace) > 3
        assert np.all(np.diff(trace) <= 1e-12)

    def test_more_bases_fit_better(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, size=(500, 1))
        y = np.sin(3 * X[:, 0])
        errs = []
        for nb in (2, 6, 14):
            m = fit_rbf_ols(X, y, OLSOptions(n_bases=nb))
            errs.append(np.sqrt(np.mean((m.eval(X) - y) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_affine_disabled(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = 0.5 * X[:, 0]
        m = fit_rbf_ols(X, y, OLSOptions(n_bases=4, affine=False))
        np.testing.assert_allclose(m.affine, 0.0)

    def test_pure_linear_data_needs_no_gaussians(self):
        X = np.linspace(-1, 1, 100)[:, None]
        y = 3.0 * X[:, 0] + 1.0
        m = fit_rbf_ols(X, y, OLSOptions(n_bases=10))
        pred = m.eval(X)
        assert np.max(np.abs(pred - y)) < 1e-4
        # the affine tail carries the fit; Gaussian weights stay negligible
        assert np.max(np.abs(m.weights)) < 0.05

    def test_too_few_samples_rejected(self):
        with pytest.raises(EstimationError):
            fit_rbf_ols(np.zeros((5, 2)), np.zeros(5))

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_in_place_activations_are_bit_identical(self, d):
        """The column-by-column, in-place activation matrix and
        orthogonalization give bit for bit what the (N, M, d) broadcast
        formula gives, on data with repeated rows like a settled record."""
        rng = np.random.default_rng(40 + d)
        X = rng.normal(size=(1500, d))
        X[500:700] = X[499]
        y = np.tanh(X @ rng.normal(size=d)) + 0.01 * rng.normal(size=1500)
        opts = OLSOptions(n_bases=9, seed=3)
        _assert_fits_equal(fit_rbf_ols(X, y, opts),
                           _dense_fit_rbf_ols(X, y, opts)[0])

    @pytest.mark.parametrize("affine, width_scale", [(True, 1.0),
                                                      (False, 0.5)])
    def test_one_candidate_matrix_is_bit_identical(self, affine,
                                                   width_scale):
        """The row-blocked fit on one candidate matrix gives bit for bit
        what the dense fit (every (N, M) array whole) gives.  The narrow
        widths without an affine tail push far rows' activations into
        exp underflow, as the receiver's fits do."""
        rng = np.random.default_rng(12)
        # rows spread over seven decades of scale: the activations span
        # the subnormal range too
        X = rng.normal(size=(2999, 3)) \
            * np.exp(rng.uniform(-5.0, 2.0, size=(2999, 1)))
        y = np.tanh(X @ rng.normal(size=3)) + 0.01 * rng.normal(size=2999)
        opts = OLSOptions(n_bases=9, seed=2, affine=affine,
                          width_scale=width_scale)
        ref, P = _dense_fit_rbf_ols(X, y, opts)
        if not affine:
            assert np.any((P > 0.0) & (P < np.finfo(float).tiny))
        _assert_fits_equal(fit_rbf_ols(X, y, opts), ref)

    def test_blocked_column_energies_are_bit_identical(self):
        """The row-blocked deflation returns the column energies of the
        whole-array ``np.sum(P * P, axis=0)``, bit for bit."""
        from repro.models import ols
        rng = np.random.default_rng(13)
        P = rng.normal(size=(3 * ols.ROW_BLOCK + 77, 37))
        q, r = rng.normal(size=P.shape[0]), rng.normal(size=37)
        ref = P - np.outer(q, r)
        energy = ols._deflate(P, lambda a, b: np.outer(q[a:b], r))
        np.testing.assert_array_equal(P, ref)
        np.testing.assert_array_equal(energy, np.sum(ref * ref, axis=0))

    def test_peak_memory_under_two_candidate_matrices(self):
        """A 6000 x 400 fit holds one (N, M) candidate matrix plus row
        blocks; the dense fit held three at once."""
        rng = np.random.default_rng(12)
        X = rng.normal(size=(6000, 5))
        y = np.tanh(X @ rng.normal(size=5))
        tracemalloc.start()
        try:
            fit_rbf_ols(X, y, OLSOptions(n_bases=9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 6000 * 400 * 8

    @given(st.integers(0, 10000))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_given_seed(self, seed):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(600, 2))
        y = X[:, 0] * X[:, 1]
        m1 = fit_rbf_ols(X, y, OLSOptions(n_bases=5, seed=seed,
                                          max_candidates=50))
        m2 = fit_rbf_ols(X, y, OLSOptions(n_bases=5, seed=seed,
                                          max_candidates=50))
        np.testing.assert_array_equal(m1.weights, m2.weights)


def _dense_fit_rbf_ols(X, y, opts):
    """The fit with every array whole: the (N, M, d) broadcast distances,
    the activations, their orthogonalized copy, the squares and the
    outer-product update.  Returns the model and the activations."""
    from repro.models import ols
    scaler = RegressorScaler().fit(X)
    Z = scaler.transform(X)
    n, d = Z.shape
    centers = ols._candidate_centers(Z, opts)
    sigma = opts.width_scale * ols._median_distance(centers, opts.seed)
    d2 = np.sum((Z[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    P = np.exp(-d2 / (2.0 * sigma ** 2))
    A = np.hstack([np.ones((n, 1)), Z]) if opts.affine else np.ones((n, 1))
    Q_aff, _ = np.linalg.qr(A)
    y_res = y - Q_aff @ (Q_aff.T @ y)
    Pw = P - Q_aff @ (Q_aff.T @ P)
    y_energy = float(y_res @ y_res)
    sel, err_trace = [], []
    resid = y_res.copy()
    col_energy = np.sum(Pw * Pw, axis=0)
    for _ in range(min(opts.n_bases, centers.shape[0])):
        proj = Pw.T @ resid
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(col_energy > 1e-30 * y_energy,
                           proj ** 2 / (col_energy * y_energy), 0.0)
        err[sel] = 0.0
        j = int(np.argmax(err))
        if err[j] <= 0.0:
            break
        sel.append(j)
        q = Pw[:, j].copy()
        qn = q / (q @ q)
        resid = resid - q * (qn @ resid)
        Pw -= np.outer(q, qn @ Pw)
        col_energy = np.sum(Pw * Pw, axis=0)
        err_trace.append(float(resid @ resid) / y_energy)
        if err_trace[-1] < opts.err_tol:
            break
    M = np.hstack([A, P[:, sel]])
    reg = opts.ridge * np.trace(M.T @ M) / M.shape[1]
    theta = np.linalg.solve(M.T @ M + reg * np.eye(M.shape[1]), M.T @ y)
    k = A.shape[1]
    model = GaussianRBF(centers=centers[sel], sigma=sigma,
                        weights=theta[k:],
                        affine=theta[1:k] if opts.affine else np.zeros(d),
                        bias=float(theta[0]), scaler=scaler)
    model.meta_err = err_trace
    return model, P


def _assert_fits_equal(got, ref):
    assert got.sigma == ref.sigma
    np.testing.assert_array_equal(got.centers, ref.centers)
    np.testing.assert_array_equal(got.weights, ref.weights)
    np.testing.assert_array_equal(got.affine, ref.affine)
    assert got.bias == ref.bias
    assert got.meta_err == ref.meta_err


class TestARX:
    def simulate_true_system(self, n=2000, seed=0):
        """First-order discrete lowpass: i(k) = 0.8 i(k-1) + 0.2 v(k)."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n)
        i = np.zeros(n)
        for k in range(1, n):
            i[k] = 0.8 * i[k - 1] + 0.2 * v[k]
        return v, i

    def test_recovers_known_system(self):
        v, i = self.simulate_true_system()
        m = fit_arx(v, i, order=1, fit_offset=False)
        assert m.a[0] == pytest.approx(-0.8, abs=1e-6)
        assert m.b[0] == pytest.approx(0.2, abs=1e-6)

    def test_free_run_matches(self):
        v, i = self.simulate_true_system(seed=3)
        m = fit_arx(v, i, order=1)
        i_sim = m.simulate(v, i_init=i[:1])
        assert np.max(np.abs(i_sim - i)) < 1e-6

    def test_stability_check(self):
        stable = ARXModel(a=[-0.5], b=[1.0, 0.0])
        unstable = ARXModel(a=[-1.5], b=[1.0, 0.0])
        assert stable.is_stable()
        assert not unstable.is_stable()

    def test_dc_gain(self):
        m = ARXModel(a=[-0.8], b=[0.2, 0.0])
        assert m.dc_gain() == pytest.approx(1.0)

    def test_offset_recovered(self):
        v, i = self.simulate_true_system(seed=4)
        i = i + 0.05
        m = fit_arx(v, i, order=1, fit_offset=True)
        # steady offset: c / (1 + sum a) == 0.05 * (1 - 0.8) / (1 - 0.8)
        assert m.c / (1.0 + np.sum(m.a)) == pytest.approx(0.05, rel=1e-3)

    def test_order_zero_is_static_fit(self):
        v = np.linspace(-1, 1, 100)
        i = 0.3 * v
        m = fit_arx(v, i, order=0)
        assert m.b[0] == pytest.approx(0.3, abs=1e-9)

    def test_poles_of_order_zero_empty(self):
        m = ARXModel(a=np.empty(0), b=[1.0])
        assert m.poles().size == 0
        assert m.is_stable()

    def test_length_guard(self):
        with pytest.raises(EstimationError):
            fit_arx(np.zeros(4), np.zeros(4), order=2)

    def test_roundtrip_dict(self):
        m = ARXModel(a=[-0.5, 0.1], b=[1.0, 0.2, 0.1], c=0.01)
        m2 = ARXModel.from_dict(m.to_dict())
        np.testing.assert_allclose(m2.a, m.a)
        np.testing.assert_allclose(m2.b, m.b)
        assert m2.c == m.c
