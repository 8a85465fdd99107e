"""Gaussian state-sequence densities in three interchangeable forms.

A sequence density is the joint Gaussian over the states of one trajectory,
spanning the steps of its window.  Three representations are provided:

* ``MomentSeq``   -- full mean and dense joint covariance,
* ``InfoSeq``     -- information vector and block-tridiagonal information
                     matrix (sparse without approximation, a consequence of
                     the Markov dynamics), with cached last-state moments,
* ``LScanSeq``    -- mean plus a covariance that keeps a dense block over the
                     most recent L steps and treats older steps as mutually
                     independent.

Each backend carries its own operations as methods: ``predict`` (append one
step), ``update`` (condition on a measurement of the last state; it returns
the new sequence only), ``last_moments``, ``full_mean``, ``marginalize``,
``to_moment`` and ``dump`` (its JSON form, which ``load_seq`` reads back).
The module functions ``predict_seq``, ``update_seq``, ``last_state_moments``,
``mean_sequence``, ``marginalize_steps`` and ``to_moment`` delegate to them;
``gate_likelihoods`` scores a batch of measurements against any backend's
last state and is the only measurement likelihood.  Values are immutable;
every operation returns a new value.

The information form answers a marginal over its last step alone from the
last-state moments its filter recursion caches, in O(1); every other window
is recovered by a band solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.stats import chi2

from .trajectory import TimeWindow, _frozen_array

__all__ = [
    "ModelLG",
    "gate_likelihoods",
    "MomentSeq",
    "InfoSeq",
    "LScanSeq",
    "make_seq",
    "load_seq",
    "predict_seq",
    "update_seq",
    "recover_moments",
    "marginalize_steps",
    "last_state_moments",
    "mean_sequence",
    "to_moment",
]

LOG_2PI = math.log(2.0 * math.pi)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


@dataclass(frozen=True)
class ModelLG:
    """Linear-Gaussian transition and measurement model (F, Q, H, R)."""

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        F = _frozen_array(self.F)
        Q = _frozen_array(self.Q)
        H = _frozen_array(np.atleast_2d(self.H))
        R = _frozen_array(np.atleast_2d(self.R))
        for name, M in (("Q", Q), ("R", R)):
            try:
                cholesky(np.asarray(M), lower=True)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"{name} is not positive definite") from exc
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", R)

    @property
    def nx(self) -> int:
        return self.F.shape[0]

    @property
    def nz(self) -> int:
        return self.H.shape[0]

    @cached_property
    def Qinv(self) -> np.ndarray:
        return _symmetrize(cho_solve(cho_factor(np.asarray(self.Q), lower=True), np.eye(self.nx)))

    @cached_property
    def Rinv(self) -> np.ndarray:
        return _symmetrize(cho_solve(cho_factor(np.asarray(self.R), lower=True), np.eye(self.nz)))


# ---------------------------------------------------------------------------
# shared single-block arithmetic (moment and L-scan use the same code path so
# that L >= length reproduces the moment form exactly)
# ---------------------------------------------------------------------------


def _append_step(mean: np.ndarray, cov: np.ndarray, m: ModelLG):
    """Joint (mean, cov) extended with the one-step-ahead state."""
    nx = m.nx
    F, Q = np.asarray(m.F), np.asarray(m.Q)
    last = mean[-nx:]
    cross = cov[:, -nx:] @ F.T
    corner = _symmetrize(F @ cov[-nx:, -nx:] @ F.T + Q)
    n = len(mean)
    new_mean = np.concatenate([mean, F @ last])
    new_cov = np.empty((n + nx, n + nx))
    new_cov[:n, :n] = cov
    new_cov[:n, n:] = cross
    new_cov[n:, :n] = cross.T
    new_cov[n:, n:] = corner
    return new_mean, new_cov


def _measurement_update(mean: np.ndarray, cov: np.ndarray, m: ModelLG, z: np.ndarray):
    """Update the joint (mean, cov) with a measurement of the last state."""
    nx, H, R = m.nx, np.asarray(m.H), np.asarray(m.R)
    z = np.asarray(z, dtype=float).reshape(-1)
    P_tail = cov[:, -nx:]
    S = _symmetrize(H @ P_tail[-nx:, :] @ H.T + R)
    v = z - H @ mean[-nx:]
    K = np.linalg.solve(S, H @ P_tail.T).T
    new_mean = mean + K @ v
    new_cov = _symmetrize(cov - K @ H @ P_tail.T)
    return new_mean, new_cov


class _Seq:
    """Operations every backend shares; a backend supplies ``window``,
    ``nx``, ``_predict``, ``update``, ``last_moments``, ``_select`` and
    ``to_moment``, and ``dump`` unless its moment view is its JSON form."""

    def predict(self, m: ModelLG):
        """Append the one-step-ahead state."""
        if self.nx != m.nx:
            raise ValueError("state dimension mismatch")
        return self._predict(m, TimeWindow(self.window.alpha, self.window.gamma + 1))

    def full_mean(self) -> np.ndarray:
        """Full mean over the window, flattened."""
        return np.asarray(self.mean)

    def marginalize(self, keep: TimeWindow):
        """Gaussian marginal over a contiguous kept sub-window."""
        if not self.window.contains(keep):
            raise ValueError("kept steps outside the sequence window")
        if keep == self.window:
            return self
        i0 = (keep.alpha - self.window.alpha) * self.nx
        i1 = (keep.gamma - self.window.alpha + 1) * self.nx
        return self._select(keep, i0, i1)

    def dump(self) -> dict:
        """JSON-serializable form: the dense moments of the sequence."""
        s = self.to_moment()
        return {"mean": np.asarray(s.mean).tolist(), "cov": np.asarray(s.cov).tolist()}


# ---------------------------------------------------------------------------
# moment form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSeq(_Seq):
    """Joint Gaussian over the window's states as (mean, covariance)."""

    window: TimeWindow
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen_array(np.asarray(self.mean, dtype=float).reshape(-1))
        cov = _frozen_array(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean length")
        if mean.size % self.window.length:
            raise ValueError("mean length not a multiple of the window length")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def nx(self) -> int:
        return self.mean.size // self.window.length

    def _predict(self, m: ModelLG, window: TimeWindow) -> "MomentSeq":
        mean, cov = _append_step(np.asarray(self.mean), np.asarray(self.cov), m)
        return MomentSeq(window, mean, cov)

    def update(self, m: ModelLG, z) -> "MomentSeq":
        """Condition the whole sequence on a measurement of the last state."""
        mean, cov = _measurement_update(np.asarray(self.mean), np.asarray(self.cov), m, z)
        return MomentSeq(self.window, mean, cov)

    def last_moments(self) -> tuple:
        nx = self.nx
        return np.asarray(self.mean[-nx:]), np.asarray(self.cov[-nx:, -nx:])

    def _select(self, keep: TimeWindow, i0: int, i1: int) -> "MomentSeq":
        return MomentSeq(keep, self.mean[i0:i1], self.cov[i0:i1, i0:i1])

    def to_moment(self) -> "MomentSeq":
        return self


# ---------------------------------------------------------------------------
# information form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfoSeq(_Seq):
    """Information-form joint Gaussian with block-tridiagonal structure.

    ``diag`` holds the length-many diagonal blocks of the information matrix
    and ``off`` the superdiagonal blocks (subdiagonal blocks follow by
    symmetry); everything outside the band is exactly zero.  The mean and
    covariance of the *last* state are carried alongside so that likelihoods
    and gating never require a solve.  They are also the marginal over the
    last step: the filter recursion computes them directly, where the band
    solve accumulates rounding over the window.  Marginals over other
    windows and the moment view are recovered by sparse solves and returned
    in moment form.  ``dump`` writes the band and the cached moments,
    O(length * nx^2).
    """

    window: TimeWindow
    ivec: np.ndarray
    diag: np.ndarray  # (length, nx, nx)
    off: np.ndarray  # (length-1, nx, nx), block (i, i+1)
    last_mean: np.ndarray
    last_cov: np.ndarray

    def __post_init__(self):
        ivec = _frozen_array(np.asarray(self.ivec, dtype=float).reshape(-1))
        diag = _frozen_array(self.diag)
        off = _frozen_array(np.asarray(self.off, dtype=float).reshape((-1,) + diag.shape[1:]))
        if diag.shape[0] != self.window.length or off.shape[0] != self.window.length - 1:
            raise ValueError("band block count does not match the window")
        object.__setattr__(self, "ivec", ivec)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)
        object.__setattr__(self, "last_mean", _frozen_array(self.last_mean))
        object.__setattr__(self, "last_cov", _frozen_array(self.last_cov))

    @property
    def nx(self) -> int:
        return self.diag.shape[1]

    def _predict(self, m: ModelLG, window: TimeWindow) -> "InfoSeq":
        """Grow the band by one step.

        The previous last diagonal block gains F'Q^{-1}F, the new off-diagonal
        block is -F'Q^{-1}, the new diagonal block is Q^{-1}, and the information
        vector is padded with zeros; the corners stay exactly zero.
        """
        F, Qinv = np.asarray(m.F), m.Qinv
        diag = np.concatenate([self.diag, Qinv[None]])
        diag[-2] = diag[-2] + F.T @ Qinv @ F
        off = np.concatenate([self.off, (-F.T @ Qinv)[None]])
        ivec = np.concatenate([self.ivec, np.zeros(m.nx)])
        last_mean = F @ self.last_mean
        last_cov = _symmetrize(F @ self.last_cov @ F.T + np.asarray(m.Q))
        return InfoSeq(window, ivec, diag, off, last_mean, last_cov)

    def update(self, m: ModelLG, z) -> "InfoSeq":
        """Add H'R^{-1}z / H'R^{-1}H to the trailing entries; nothing else moves."""
        H, R, Rinv = np.asarray(m.H), np.asarray(m.R), m.Rinv
        z = np.asarray(z, dtype=float).reshape(-1)
        ivec = self.ivec.copy()
        ivec[-m.nx :] += H.T @ Rinv @ z
        diag = self.diag.copy()
        diag[-1] = diag[-1] + H.T @ Rinv @ H
        S = _symmetrize(H @ self.last_cov @ H.T + R)
        v = z - H @ self.last_mean
        K = self.last_cov @ H.T @ np.linalg.inv(S)
        last_mean = self.last_mean + K @ v
        last_cov = _symmetrize(self.last_cov - K @ H @ self.last_cov)
        return InfoSeq(self.window, ivec, diag, self.off, last_mean, last_cov)

    def last_moments(self) -> tuple:
        return np.asarray(self.last_mean), np.asarray(self.last_cov)

    def full_mean(self) -> np.ndarray:
        return _BandCholesky(np.asarray(self.diag), np.asarray(self.off)).solve(np.asarray(self.ivec))

    def _select(self, keep: TimeWindow, i0: int, i1: int) -> MomentSeq:
        if keep.alpha == self.window.gamma:
            return MomentSeq(keep, self.last_mean, self.last_cov)
        return MomentSeq(keep, *recover_moments(self, keep))

    def to_moment(self) -> MomentSeq:
        return MomentSeq(self.window, *recover_moments(self, self.window))

    def dump(self) -> dict:
        return {name: np.asarray(getattr(self, name)).tolist() for name in _BAND}


_BAND = ("ivec", "diag", "off", "last_mean", "last_cov")  # the dumped fields of an InfoSeq


class _BandCholesky:
    """Block Cholesky factorization of a block-tridiagonal SPD matrix."""

    MAX_CONDITION = 1e14

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        nu, nx = diag.shape[0], diag.shape[1]
        self.nx = nx
        self.L = np.empty_like(diag)  # diagonal blocks, lower triangular
        self.B = np.empty_like(off)  # subdiagonal blocks of the factor
        d_ext = (np.inf, 0.0)
        prev = None
        try:
            for i in range(nu):
                D = diag[i]
                if i > 0:
                    # subdiagonal: solve L_{i-1} X = off[i-1], B_i = X'
                    X = solve_triangular(prev, off[i - 1], lower=True)
                    self.B[i - 1] = X.T
                    D = D - X.T @ X
                Li = cholesky(_symmetrize(D), lower=True)
                self.L[i] = Li
                d = np.diag(Li)
                d_ext = (min(d_ext[0], d.min()), max(d_ext[1], d.max()))
                prev = Li
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("information matrix is numerically singular") from exc
        # cheap condition estimate from the factor's diagonal spread
        if (d_ext[1] / max(d_ext[0], np.finfo(float).tiny)) ** 2 > self.MAX_CONDITION:
            raise np.linalg.LinAlgError("information matrix is numerically singular")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve Y x = rhs for one or several right-hand sides."""
        nx = self.nx
        b = rhs.reshape(-1, nx, rhs.shape[1]) if rhs.ndim == 2 else rhs.reshape(-1, nx, 1)
        nu = b.shape[0]
        z = np.empty_like(b, dtype=float)
        for i in range(nu):
            t = b[i] - (self.B[i - 1] @ z[i - 1] if i > 0 else 0.0)
            z[i] = solve_triangular(self.L[i], t, lower=True)
        x = np.empty_like(z)
        for i in reversed(range(nu)):
            t = z[i] - (self.B[i].T @ x[i + 1] if i < nu - 1 else 0.0)
            x[i] = solve_triangular(self.L[i].T, t, lower=False)
        out = x.reshape(nu * nx, -1)
        return out if rhs.ndim == 2 else out[:, 0]


def recover_moments(s: InfoSeq, steps: TimeWindow) -> tuple:
    """Mean and covariance blocks for ``steps``, via sparse SPD solves.

    The dense inverse is never formed: the mean solves the full band system
    once, and the covariance block solves against the identity columns of the
    requested steps only.
    """
    if not s.window.contains(steps):
        raise ValueError("requested steps outside the sequence window")
    nx = s.nx
    fac = _BandCholesky(np.asarray(s.diag), np.asarray(s.off))
    mean = fac.solve(np.asarray(s.ivec))
    i0 = (steps.alpha - s.window.alpha) * nx
    i1 = (steps.gamma - s.window.alpha + 1) * nx
    rhs = np.zeros((s.ivec.size, i1 - i0))
    rhs[i0:i1] = np.eye(i1 - i0)
    cov = fac.solve(rhs)[i0:i1]
    return mean[i0:i1], _symmetrize(cov)


# ---------------------------------------------------------------------------
# L-scan approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LScanSeq(_Seq):
    """Mean plus covariance that is dense only over the most recent steps.

    ``old_blocks`` holds one marginal covariance per step older than the tail;
    those states are treated as independent of each other and of the tail.
    The tail covers the trailing ``tail_len`` steps (at most L, fewer while
    the sequence is still short or after marginalization).
    """

    window: TimeWindow
    L: int
    mean: np.ndarray
    old_blocks: np.ndarray  # (n_old, nx, nx)
    tail_cov: np.ndarray

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1")
        mean = _frozen_array(np.asarray(self.mean, dtype=float).reshape(-1))
        nx = mean.size // self.window.length
        old = _frozen_array(np.asarray(self.old_blocks, dtype=float).reshape(-1, nx, nx))
        tail = _frozen_array(np.atleast_2d(np.asarray(self.tail_cov, dtype=float)))
        t = tail.shape[0] // nx
        if old.shape[0] + t != self.window.length:
            raise ValueError("old blocks plus tail do not cover the window")
        if t > self.L or t < 1:
            raise ValueError("tail must cover between 1 and L steps")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "old_blocks", old)
        object.__setattr__(self, "tail_cov", tail)

    @property
    def nx(self) -> int:
        return self.mean.size // self.window.length

    @property
    def tail_len(self) -> int:
        return self.tail_cov.shape[0] // self.nx

    def _predict(self, m: ModelLG, window: TimeWindow) -> "LScanSeq":
        """Append the new state to the tail, detaching the oldest tail step
        into ``old_blocks`` once the tail would exceed L steps."""
        nx = self.nx
        n_old = self.old_blocks.shape[0]
        tail_mean, tail = _append_step(np.asarray(self.mean[n_old * nx :]), np.asarray(self.tail_cov), m)
        mean = np.concatenate([np.asarray(self.mean[: n_old * nx]), tail_mean])
        old = np.asarray(self.old_blocks)
        if self.tail_len == self.L:
            old = np.concatenate([old, tail[:nx, :nx][None]])
            tail = tail[nx:, nx:]
        return LScanSeq(window, self.L, mean, old, tail)

    def update(self, m: ModelLG, z) -> "LScanSeq":
        """Measurement update confined to the tail; old blocks are untouched."""
        nx = self.nx
        n_old = self.old_blocks.shape[0]
        tail_mean, tail_cov = _measurement_update(np.asarray(self.mean[n_old * nx :]), np.asarray(self.tail_cov), m, z)
        mean = np.concatenate([np.asarray(self.mean[: n_old * nx]), tail_mean])
        return LScanSeq(self.window, self.L, mean, self.old_blocks, tail_cov)

    def last_moments(self) -> tuple:
        nx = self.nx
        return np.asarray(self.mean[-nx:]), np.asarray(self.tail_cov[-nx:, -nx:])

    def _select(self, keep: TimeWindow, i0: int, i1: int) -> "LScanSeq":
        nx = self.nx
        n_old = self.old_blocks.shape[0]
        first_tail = self.window.alpha + n_old
        if keep.gamma >= first_tail:
            old = np.asarray(self.old_blocks[keep.alpha - self.window.alpha : n_old])
            t0 = (max(keep.alpha, first_tail) - first_tail) * nx
            t1 = (keep.gamma - first_tail + 1) * nx
            tail = np.asarray(self.tail_cov[t0:t1, t0:t1])
        else:
            # kept window lies entirely in the independent prefix: the last
            # kept block becomes a one-step tail
            old = np.asarray(self.old_blocks[keep.alpha - self.window.alpha : keep.gamma - self.window.alpha])
            tail = np.asarray(self.old_blocks[keep.gamma - self.window.alpha])
        return LScanSeq(keep, self.L, self.mean[i0:i1], old, tail)

    def to_moment(self) -> MomentSeq:
        """Dense moment-form view of the implied joint covariance."""
        nx, nu = self.nx, self.window.length
        cov = np.zeros((nu * nx, nu * nx))
        n_old = self.old_blocks.shape[0]
        for i in range(n_old):
            cov[i * nx : (i + 1) * nx, i * nx : (i + 1) * nx] = self.old_blocks[i]
        cov[n_old * nx :, n_old * nx :] = self.tail_cov
        return MomentSeq(self.window, self.mean, cov)


# ---------------------------------------------------------------------------
# backend-generic operations
# ---------------------------------------------------------------------------


def make_seq(backend: str, window: TimeWindow, mean, cov, L: int = 1):
    """Single-window sequence density of the requested backend from moments."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if backend == "moment":
        return MomentSeq(window, mean, cov)
    nx, nu = mean.size // window.length, window.length
    if backend == "info":
        Y = np.linalg.inv(cov)
        diag = np.stack([Y[i * nx : (i + 1) * nx, i * nx : (i + 1) * nx] for i in range(nu)])
        off = np.stack([Y[i * nx : (i + 1) * nx, (i + 1) * nx : (i + 2) * nx] for i in range(nu - 1)]) if nu > 1 else np.zeros((0, nx, nx))
        return InfoSeq(window, Y @ mean, diag, off, mean[-nx:], _symmetrize(cov[-nx:, -nx:]))
    if backend == "lscan":
        t = min(L, nu)
        n_old = nu - t
        if n_old:
            # only single-step construction needs no decorrelation; longer
            # windows are accepted when the prefix is already independent
            old = np.stack([cov[i * nx : (i + 1) * nx, i * nx : (i + 1) * nx] for i in range(n_old)])
        else:
            old = np.zeros((0, nx, nx))
        return LScanSeq(window, L, mean, old, cov[n_old * nx :, n_old * nx :])
    raise ValueError(f"unknown backend {backend!r}")


def load_seq(window: TimeWindow, d: dict):
    """Inverse of the backends' ``dump``: an ``InfoSeq`` from a band, a
    ``MomentSeq`` from dense moments.  Raises ValueError on a shape that does
    not fit the window."""
    if "ivec" not in d:
        return MomentSeq(window, d["mean"], d["cov"])
    nu = window.length
    band = {name: np.array(d[name], dtype=float) for name in _BAND}
    nx = band["diag"].shape[-1] if band["diag"].ndim == 3 else 0
    want = {
        "ivec": (nu * nx,),
        "diag": (nu, nx, nx),
        "off": (nu - 1, nx, nx) if nu > 1 else (0,),  # an empty list dumps no block shape
        "last_mean": (nx,),
        "last_cov": (nx, nx),
    }
    for name, shape in want.items():
        if band[name].shape != shape:
            raise ValueError(f"band {name} has shape {band[name].shape}, window {window} needs {shape}")
    return InfoSeq(window, **band)


def predict_seq(s, m: ModelLG):
    return s.predict(m)


def update_seq(s, m: ModelLG, z):
    return s.update(m, z)


def last_state_moments(s) -> tuple:
    """Mean and covariance of the most recent state."""
    return s.last_moments()


def mean_sequence(s) -> np.ndarray:
    """Full mean over the window, flattened."""
    return s.full_mean()


def marginalize_steps(s, keep: TimeWindow):
    """Gaussian marginal over a contiguous kept sub-window (moment form for
    the information backend)."""
    return s.marginalize(keep)


def to_moment(s) -> MomentSeq:
    """Dense moment-form view of any backend (covariance fully materialized)."""
    return s.to_moment()


@lru_cache(maxsize=32)
def _gate_threshold(gate_prob: float, df: int) -> float:
    return float(chi2.ppf(gate_prob, df=df))


def gate_likelihoods(s, m: ModelLG, Z: np.ndarray, gate_prob: float = 1.0):
    """Vectorized ellipsoidal gating and Gaussian evidence of a batch of
    measurements against the predicted last state.

    Returns (mask, likelihoods) over the rows of Z; ungated entries keep
    their likelihood value (callers decide whether to zero them).
    """
    mean, cov = s.last_moments()
    H, R = np.asarray(m.H), np.asarray(m.R)
    S = _symmetrize(H @ cov @ H.T + R)
    try:
        L = cholesky(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance") from exc
    v = np.atleast_2d(np.asarray(Z, dtype=float)) - (H @ mean)[None, :]
    w = solve_triangular(L, v.T, lower=True)
    d2 = np.einsum("ij,ij->j", w, w)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    liks = np.exp(-0.5 * (m.nz * LOG_2PI + logdet + d2))
    if gate_prob >= 1.0:
        mask = np.ones(len(v), dtype=bool)
    else:
        mask = d2 <= _gate_threshold(gate_prob, m.nz)
    return mask, liks
