"""Gaussian radial-basis-function network with affine tail.

The paper's nonlinear submodels are "linear combinations of gaussian
functions ... properly centered in the vector space of the voltage and
current sequences" [Sjoberg et al. 1995].  We add the customary affine tail
(linear-in-regressors + bias), which carries the nearly linear bulk behavior
so the Gaussian units only model the nonlinear residue:

    f(x) = sum_j w_j exp(-||z - c_j||^2 / (2 sigma^2)) + a . z + b,
    z = scaler(x)

Distances are computed in scaled regressor space (see
:class:`~repro.models.regressors.RegressorScaler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp

import numpy as np

from ..errors import ModelError
from .regressors import RegressorScaler

__all__ = ["GaussianRBF", "StackedRBF"]


@dataclass
class GaussianRBF:
    """A fitted RBF network over scaled regressors.

    ``centers``: (M, d) in scaled space; ``sigma``: shared width;
    ``weights``: (M,); ``affine``: (d,); ``bias``: scalar;
    ``scaler``: the fitted column scaler (owns the clip box).
    """

    centers: np.ndarray
    sigma: float
    weights: np.ndarray
    affine: np.ndarray
    bias: float
    scaler: RegressorScaler = field(default_factory=RegressorScaler)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        self.affine = np.asarray(self.affine, dtype=float)
        if self.sigma <= 0.0:
            raise ModelError("sigma must be positive")
        if self.centers.shape[0] != self.weights.size:
            raise ModelError("one weight per center required")

    @property
    def n_bases(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    # -- evaluation ------------------------------------------------------------
    def phi(self, Z: np.ndarray) -> np.ndarray:
        """Basis activations for scaled regressors ``Z`` (N, d) -> (N, M)."""
        d2 = np.sum((Z[:, None, :] - self.centers[None, :, :]) ** 2, axis=2)
        return np.exp(-d2 / (2.0 * self.sigma ** 2))

    def eval(self, X: np.ndarray, clip: bool = True) -> np.ndarray:
        """Evaluate on raw regressors ``X`` (N, d) or a single (d,) vector."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = self.scaler.transform(X, clip=clip)
        out = self.phi(Z) @ self.weights + Z @ self.affine + self.bias
        return out if out.size > 1 else float(out[0])

    def eval_with_gradient(self, x: np.ndarray,
                           clip: bool = True) -> tuple[float, float]:
        """Return ``(f(x), df/dx[0])`` for a single regressor vector.

        The gradient w.r.t. the *present voltage* (first regressor component)
        is what the circuit Newton loop needs.  When clipping saturates the
        first component the reported derivative is 0, consistent with the
        clipped surface.
        """
        x = np.asarray(x, dtype=float)
        z = self.scaler.transform(x[None, :], clip=clip)[0]
        diff = z - self.centers          # (M, d)
        d2 = np.sum(diff * diff, axis=1)
        act = np.exp(-d2 / (2.0 * self.sigma ** 2))
        f = float(act @ self.weights + z @ self.affine + self.bias)
        # d z0 / d x0 = 1/scale[0], unless x0 was clipped
        if clip and (x[0] <= self.scaler.lo[0] or x[0] >= self.scaler.hi[0]):
            return f, 0.0
        dz0 = 1.0 / self.scaler.scale[0]
        dphi = act * (-diff[:, 0] / self.sigma ** 2)
        grad = float((dphi @ self.weights + self.affine[0]) * dz0)
        return f, grad

    # -- free-run simulation -------------------------------------------------------
    def simulate(self, v: np.ndarray, order: int,
                 i_init: np.ndarray | None = None) -> np.ndarray:
        """Free-run the NARX recursion along a voltage sequence.

        ``i(k) = f([v(k..k-r), i(k-1..k-r)])`` with the model's own outputs
        fed back.  ``i_init`` supplies the first ``order`` current samples
        (zeros by default).
        """
        v = np.asarray(v, dtype=float)
        n = v.size
        i = np.zeros(n)
        if i_init is not None:
            i[:order] = np.asarray(i_init, dtype=float)[:order]
        # the feedback recursion is inherently sequential; run it through the
        # compiled scalar evaluator (plain floats) instead of paying numpy's
        # N=1 dispatch on every sample
        fast = self.compile()
        vf = v.tolist()
        out = i.tolist()
        x = [0.0] * (2 * order + 1)
        for k in range(order, n):
            x[0] = vf[k]
            for j in range(1, order + 1):
                x[j] = vf[k - j]
                x[order + j] = out[k - j]
            out[k] = fast.eval(x)
        return np.asarray(out)

    def compile(self) -> "_CompiledRBF":
        """Return a pure-Python evaluator for scalar hot loops.

        Circuit elements call the network once per Newton iteration with a
        handful of Gaussians; numpy's per-call overhead dominates at that
        size, so the compiled form unrolls everything into float lists.
        """
        return _CompiledRBF(self)

    # -- persistence ---------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"centers": self.centers.tolist(), "sigma": self.sigma,
                "weights": self.weights.tolist(),
                "affine": self.affine.tolist(), "bias": self.bias,
                "scaler": self.scaler.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianRBF":
        return cls(centers=np.asarray(d["centers"]), sigma=float(d["sigma"]),
                   weights=np.asarray(d["weights"]),
                   affine=np.asarray(d["affine"]), bias=float(d["bias"]),
                   scaler=RegressorScaler.from_dict(d["scaler"]))


class _CompiledRBF:
    """Scalar evaluator mirroring :meth:`GaussianRBF.eval_with_gradient`.

    Stores everything as plain Python float lists; a 10-basis, 5-dim call
    costs ~50 multiplications with no numpy dispatch.
    """

    __slots__ = ("centers", "weights", "affine", "bias", "inv_two_sigma2",
                 "inv_sigma2", "mean", "scale", "lo", "hi", "dim")

    def __init__(self, model: GaussianRBF):
        self.centers = [list(map(float, row)) for row in model.centers]
        self.weights = list(map(float, model.weights))
        self.affine = list(map(float, model.affine))
        self.bias = float(model.bias)
        self.inv_two_sigma2 = 1.0 / (2.0 * model.sigma ** 2)
        self.inv_sigma2 = 1.0 / model.sigma ** 2
        sc = model.scaler
        self.mean = list(map(float, sc.mean))
        self.scale = list(map(float, sc.scale))
        self.lo = list(map(float, sc.lo))
        self.hi = list(map(float, sc.hi))
        self.dim = len(self.mean)

    def eval(self, x) -> float:
        """Value-only evaluation with box clipping, like the model's eval."""
        mean, scale, lo, hi = self.mean, self.scale, self.lo, self.hi
        z = [0.0] * self.dim
        for j in range(self.dim):
            xv = x[j]
            if xv < lo[j]:
                xv = lo[j]
            elif xv > hi[j]:
                xv = hi[j]
            z[j] = (xv - mean[j]) / scale[j]
        f = self.bias
        for c_row, w in zip(self.centers, self.weights):
            d2 = 0.0
            for j in range(self.dim):
                diff = z[j] - c_row[j]
                d2 += diff * diff
            f += w * exp(-d2 * self.inv_two_sigma2)
        aff = self.affine
        for j in range(self.dim):
            f += aff[j] * z[j]
        return f

    def eval_grad(self, x) -> tuple[float, float]:
        """Return ``(f(x), df/dx[0])`` with box clipping, like the model."""
        mean, scale, lo, hi = self.mean, self.scale, self.lo, self.hi
        z = [0.0] * self.dim
        clipped0 = False
        for j in range(self.dim):
            xv = x[j]
            if xv < lo[j]:
                xv = lo[j]
                clipped0 = clipped0 or j == 0
            elif xv > hi[j]:
                xv = hi[j]
                clipped0 = clipped0 or j == 0
            z[j] = (xv - mean[j]) / scale[j]
        f = self.bias
        g = 0.0
        for c_row, w in zip(self.centers, self.weights):
            d2 = 0.0
            for j in range(self.dim):
                diff = z[j] - c_row[j]
                d2 += diff * diff
            a = w * exp(-d2 * self.inv_two_sigma2)
            f += a
            g += a * (-(z[0] - c_row[0]) * self.inv_sigma2)
        aff = self.affine
        for j in range(self.dim):
            f += aff[j] * z[j]
        g += aff[0]
        if clipped0:
            return f, 0.0
        return f, g / scale[0]


class StackedRBF:
    """Lockstep evaluator of S networks per member over N members, split
    at the present-voltage column.

    The grid-batched transient backend evaluates a driver's submodels at
    every member's port voltage on every Newton pass of a time step, but
    within a step only the regressor's first column ``v(k)`` changes: the
    history columns ``[v(k-1..k-r), i(k-1..k-r)]`` are fixed until the
    step is accepted.  :meth:`history` therefore reduces them once per
    step to each network's squared distance to its centers plus its
    affine part, and :meth:`eval` adds only the ``v(k)`` term.

    ``models[s][n]`` is network ``s`` of member ``n``: every member
    carries its own centers, weights, clip box, scaling, affine part,
    sigma and bias, so members built on different models (the slow, typ
    and fast corners of one driver) share one bank.  Those parameters
    sit on the innermost axis N of every array, next to the members'
    data, so numpy's inner loops run over N rather than over the handful
    of centers or regressor columns; a network with fewer centers pads
    with zero-weight ones.  All networks need one regressor dimension.

    Semantics match :meth:`_CompiledRBF.eval_grad`, the evaluator the
    serial elements run: box clipping on every column, and a zero
    gradient when the present-voltage column clips.
    """

    __slots__ = ("lo0", "hi0", "mean0", "scale0", "a0", "c0", "w",
                 "neg_inv_two_sigma2", "neg_inv_sigma2",
                 "lo_h", "hi_h", "mean_h", "scale_h", "c_h", "a_h", "bias")

    def __init__(self, models):
        rows = [list(row) for row in models]
        n_s, n = len(rows), len(rows[0])
        if any(len(row) != n for row in rows):
            raise ModelError("stacked networks need one network per "
                             "member in every row")
        nets = [m for row in rows for m in row]
        if len({m.dim for m in nets}) != 1:
            raise ModelError("stacked networks need one regressor dimension")
        n_m, dim = max(m.n_bases for m in nets), nets[0].dim
        centers = np.zeros((n_s, n_m, dim, n))
        weights = np.zeros((n_s, n_m, n))
        box = np.empty((5, n_s, dim, n))    # mean, scale, lo, hi, affine
        sigma2 = np.empty((n_s, n))
        bias = np.empty((n_s, n))
        for s, row in enumerate(rows):
            for j, m in enumerate(row):
                centers[s, :m.n_bases, :, j] = m.centers
                weights[s, :m.n_bases, j] = m.weights
                sc = m.scaler
                box[:, s, :, j] = (sc.mean, sc.scale, sc.lo, sc.hi, m.affine)
                sigma2[s, j] = m.sigma ** 2
                bias[s, j] = m.bias
        mean, scale, lo, hi, affine = box
        # every parameter is a contiguous array of the shape it meets in
        # the arithmetic: numpy then runs its contiguous inner loops
        c = np.ascontiguousarray
        # present-voltage column, shaped as (S, N) / (S, M, N)
        self.lo0, self.hi0 = c(lo[:, 0]), c(hi[:, 0])
        self.mean0, self.scale0 = c(mean[:, 0]), c(scale[:, 0])
        self.a0 = c(affine[:, 0])
        self.c0 = c(centers[:, :, 0])
        self.w = weights
        self.neg_inv_two_sigma2 = c(np.broadcast_to(
            (-0.5 / sigma2)[:, None], weights.shape))
        self.neg_inv_sigma2 = -1.0 / sigma2
        # history columns, shaped to broadcast on (S, dim - 1, [M,] N)
        self.lo_h, self.hi_h = c(lo[:, 1:]), c(hi[:, 1:])
        self.mean_h, self.scale_h = c(mean[:, 1:]), c(scale[:, 1:])
        self.c_h = c(centers[:, :, 1:].transpose(0, 2, 1, 3))
        self.a_h = c(affine[:, 1:])
        self.bias = bias

    def history(self, H: np.ndarray, out=None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Per-step terms of the raw history columns ``H`` (dim - 1, N).

        Returns ``(D, A)``: ``D`` (S, M, N) is the squared scaled distance
        of each member's history to every center, ``A`` (S, N) the
        history's affine part plus the bias.  Slices of both on the last
        axis are the terms of the matching member subset.  ``out``, a
        ``(D, A)`` pair of those shapes, receives the terms in place (a
        bank rewriting its terms on every accepted step).
        """
        D, A = (None, None) if out is None else out
        Z = np.maximum(H, self.lo_h)
        np.minimum(Z, self.hi_h, out=Z)
        Z -= self.mean_h
        Z /= self.scale_h
        diff = Z[:, :, None, :] - self.c_h
        diff *= diff
        A = np.add.reduce(self.a_h * Z, axis=1, out=A)
        A += self.bias
        return np.add.reduce(diff, axis=1, out=D), A

    def eval(self, V: np.ndarray, D: np.ndarray, A: np.ndarray,
             idx=None, grad: bool = True):
        """Every network at present voltages ``V`` on the history terms
        ``(D, A)`` of :meth:`history`.

        ``idx`` selects the member subset ``V``, ``D`` and ``A`` belong
        to (all members when None).  Returns ``(f, df/dv)``, each
        (S, len(V)), or ``f`` alone when ``grad`` is false.
        """
        lo0, hi0, mean0, scale0, a0, c0, w, nits2, nis2 = (
            self.lo0, self.hi0, self.mean0, self.scale0, self.a0, self.c0,
            self.w, self.neg_inv_two_sigma2, self.neg_inv_sigma2)
        if idx is not None:
            lo0, hi0, mean0, scale0, a0, c0, w, nits2, nis2 = (
                p[..., idx] for p in (lo0, hi0, mean0, scale0, a0, c0, w,
                                      nits2, nis2))
        Vc = np.maximum(V, lo0)
        np.minimum(Vc, hi0, out=Vc)
        z0 = Vc - mean0
        z0 /= scale0
        diff = z0[:, None, :] - c0
        act = diff * diff
        act += D
        act *= nits2
        np.exp(act, out=act)
        act *= w
        f = np.add.reduce(act, axis=1)
        f += A
        f += a0 * z0
        if not grad:
            return f
        act *= diff
        g = np.add.reduce(act, axis=1)
        g *= nis2
        g += a0
        g /= scale0
        g *= Vc == V        # zero where the present-voltage column clipped
        return f, g
