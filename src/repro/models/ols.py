"""Orthogonal least squares training of Gaussian RBF networks.

Implements the forward-selection algorithm of Chen, Cowan and Grant (1991),
reference [4] of the paper: candidate centers are drawn from the training
data, and at each step the candidate whose orthogonalized regressor removes
the largest fraction of the residual energy (error reduction ratio) is
selected.  The affine tail (bias + linear-in-regressors) is always part of
the regression and is orthogonalized out first, so Gaussian units compete
only for the nonlinear residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EstimationError
from .rbf import GaussianRBF
from .regressors import RegressorScaler

__all__ = ["OLSOptions", "fit_rbf_ols"]


@dataclass(frozen=True)
class OLSOptions:
    """Training controls.

    ``n_bases``: number of Gaussian units to select; ``max_candidates``:
    candidate centers subsampled from the data; ``width_scale``: shared
    sigma as a multiple of the median candidate-to-candidate distance;
    ``err_tol``: stop early once the unexplained energy fraction drops below
    this; ``ridge``: Tikhonov term of the final weight solve; ``seed``:
    candidate subsampling seed.
    """

    n_bases: int = 12
    max_candidates: int = 400
    width_scale: float = 1.0
    err_tol: float = 1e-6
    ridge: float = 1e-8
    seed: int = 0
    affine: bool = True  # include the linear-in-regressors tail


def _candidate_centers(Z: np.ndarray, opts: OLSOptions) -> np.ndarray:
    n = Z.shape[0]
    if n <= opts.max_candidates:
        return Z.copy()
    rng = np.random.default_rng(opts.seed)
    idx = rng.choice(n, size=opts.max_candidates, replace=False)
    return Z[np.sort(idx)]


def _median_distance(C: np.ndarray, seed: int) -> float:
    """Median pairwise distance of (a subsample of) the candidate set."""
    rng = np.random.default_rng(seed + 1)
    m = C.shape[0]
    take = min(m, 200)
    idx = rng.choice(m, size=take, replace=False)
    S = C[idx]
    d2 = np.sum((S[:, None, :] - S[None, :, :]) ** 2, axis=2)
    vals = np.sqrt(d2[np.triu_indices(take, k=1)])
    vals = vals[vals > 0]
    if vals.size == 0:
        raise EstimationError("degenerate candidate set (all points equal)")
    return float(np.median(vals))


#: rows per block of the passes over the candidate matrix: a multiple of
#: 8, so every block starts where a whole-array pass starts a SIMD lane
ROW_BLOCK = 512


def _row_blocks(n: int):
    return [(a, min(a + ROW_BLOCK, n)) for a in range(0, n, ROW_BLOCK)]


def _activations(Z: np.ndarray, centers: np.ndarray, sigma: float,
                 out: np.ndarray) -> np.ndarray:
    """Write the Gaussian activations of the rows ``Z`` at every candidate
    center into ``out`` (len(Z), M), without a (len(Z), M, d) temporary;
    the squared distances accumulate column by column, the order in which
    numpy sums fewer than 8 terms."""
    out[:] = 0.0
    diff = np.empty_like(out)
    for j in range(Z.shape[1]):
        np.subtract(Z[:, j, None], centers[None, :, j], out=diff)
        diff *= diff
        out += diff
    np.negative(out, out=out)
    out /= 2.0 * sigma ** 2
    np.exp(out, out=out)
    return out


def _deflate(P: np.ndarray, delta) -> np.ndarray:
    """``P[a:b] -= delta(a, b)`` row block by row block, in place; returns
    the column energies ``np.sum(P * P, axis=0)`` of the result, bit for
    bit: an axis-0 sum of a C-contiguous array adds its rows one after
    another, so each block continues from the running total."""
    energy = None
    for a, b in _row_blocks(P.shape[0]):
        blk = P[a:b]
        blk -= delta(a, b)
        sq = blk * blk
        if energy is not None:
            sq[0] += energy
        energy = np.add.reduce(sq, axis=0)
    return energy


def fit_rbf_ols(X: np.ndarray, y: np.ndarray,
                opts: OLSOptions = OLSOptions()) -> GaussianRBF:
    """Fit a :class:`GaussianRBF` to raw regressors ``X`` and targets ``y``.

    Returns the fitted network; ``model.meta_err`` (attached attribute) holds
    the per-step residual-energy fractions for diagnostics/ablation.  The
    selection holds one (N, M) candidate matrix, orthogonalized in place;
    the final solve recomputes the activations of the selected centers.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise EstimationError("X must be (N, d) and y (N,)")
    if X.shape[0] < 10:
        raise EstimationError("not enough samples to fit an RBF model")

    scaler = RegressorScaler().fit(X)
    Z = scaler.transform(X)
    n, d = Z.shape

    centers = _candidate_centers(Z, opts)
    sigma = opts.width_scale * _median_distance(centers, opts.seed)
    blocks = _row_blocks(n)

    # affine tail columns: [1, z_1..z_d] (bias only when affine is off);
    # orthogonalize them out of y and the candidate activations
    A = np.hstack([np.ones((n, 1)), Z]) if opts.affine else np.ones((n, 1))
    Q_aff, _ = np.linalg.qr(A)
    y_res = y - Q_aff @ (Q_aff.T @ y)

    y_energy = float(y_res @ y_res)
    sel: list[int] = []
    err_trace: list[float] = []
    if y_energy > 0.0:
        # (y_energy 0: the affine tail already explains everything)
        Pw = np.empty((n, centers.shape[0]))
        for a, b in blocks:
            _activations(Z[a:b], centers, sigma, Pw[a:b])
        W = Q_aff.T @ Pw
        col_energy = _deflate(Pw, lambda a, b: Q_aff[a:b] @ W)
        resid = y_res.copy()
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
            # orthogonalize remaining candidates against the chosen one
            r = qn @ Pw
            col_energy = _deflate(Pw, lambda a, b: np.outer(q[a:b], r))
            err_trace.append(float(resid @ resid) / y_energy)
            if err_trace[-1] < opts.err_tol:
                break
        del Pw

    # final joint least-squares solve: affine + selected Gaussians, their
    # activations recomputed full width (a narrower array can round the
    # underflowing exp differently) into the F order of a column gather,
    # which sets the layout of M and so the bits of M.T @ y
    cols = [A]
    if sel:
        G = np.empty((len(sel), n)).T
        rows = np.empty((min(ROW_BLOCK, n), centers.shape[0]))
        for a, b in blocks:
            G[a:b] = _activations(Z[a:b], centers, sigma,
                                  rows[:b - a])[:, sel]
        cols.append(G)
    M = np.hstack(cols)
    reg = opts.ridge * np.trace(M.T @ M) / M.shape[1]
    theta = np.linalg.solve(M.T @ M + reg * np.eye(M.shape[1]), M.T @ y)

    bias = float(theta[0])
    if opts.affine:
        affine = theta[1:d + 1]
        weights = theta[d + 1:]
    else:
        affine = np.zeros(d)
        weights = theta[1:]
    model = GaussianRBF(centers=centers[sel] if sel else np.zeros((1, d)),
                        sigma=sigma,
                        weights=weights if sel else np.zeros(1),
                        affine=affine, bias=bias, scaler=scaler)
    model.meta_err = err_trace  # type: ignore[attr-defined]
    return model
