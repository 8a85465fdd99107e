"""Gaussian state-sequence densities in two forms behind three backends.

A sequence density is the joint Gaussian over the states of one trajectory,
spanning the steps of its window.  Two representations are provided:

* ``MomentSeq``   -- mean plus the dense joint covariance of the trailing
                     steps.  With no depth limit (``L`` None, backend
                     ``moment``) that is every step; with a depth L (backend
                     ``lscan``, the L-scan approximation) at most the last L,
                     and each older step keeps only its marginal covariance
                     and is treated as independent of every other step,
* ``InfoSeq``     -- information vector and block-tridiagonal information
                     matrix (sparse without approximation, a consequence of
                     the Markov dynamics), with cached last-state moments
                     (backend ``info``).

Each form carries its own operations as methods: ``predict`` (append one
step), ``update`` (condition on a measurement of the last state from its row
of the gating batch; it returns the new sequence only), ``last_moments``,
``full_mean``, ``marginalize``, ``to_moment`` and ``dump`` (its JSON form,
which ``load_seq`` reads back as the same form).  The module functions
``predict_seq``, ``update_seq``, ``last_state_moments``, ``mean_sequence``,
``marginalize_steps`` and ``to_moment`` delegate to them;
``gate_likelihoods``, the only measurement likelihood and the only place S =
HPH' + R is formed, gates, scores and conditions a batch of measurements
against a stack of last-state moments (``last_moments`` of any form): one
batched Cholesky for the likelihoods and one inverse for the gains of every
row.  Values are immutable; every operation returns a new value.
Constructors only convert and store; ``load_seq`` checks outside input
(missing entries, non-finite values, shapes) and raises ValueError.

The information form answers a marginal over its last step alone from the
last-state moments its filter recursion caches, in O(1); the full mean and
every other window come from LAPACK's banded Cholesky solve.  It holds each
measured step once, in read-only arrays shared with its parent, children
and the siblings one measurement updated, so prediction and update copy no
band: its constructor takes those stored parts, and ``InfoSeq.from_band``
alone converts a full band (from ``make_seq`` and ``load_seq``) into them.
The chi-square gate threshold comes from ``scipy.special``; ``scipy.stats``
is not imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cho_solve_banded, cholesky, cholesky_banded
from scipy.special import gammaincinv

from .trajectory import TimeWindow, _frozen_array

__all__ = [
    "ModelLG",
    "gate_likelihoods",
    "MomentSeq",
    "InfoSeq",
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
    """The symmetric part of a matrix, or of each in a stack."""
    return 0.5 * (P + P.swapaxes(-1, -2))


@lru_cache(maxsize=4096)
def _window(alpha: int, gamma: int) -> TimeWindow:
    """One shared TimeWindow per (alpha, gamma): predicted sequences of the
    same window hold the same (immutable) value."""
    return TimeWindow(alpha, gamma)


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only (no copy)."""
    a.setflags(write=False)
    return a


def _stacked(top, rest, shape: tuple) -> np.ndarray:
    """A new read-only array of ``shape`` (..., nx + 1, nx) in the
    information form's layout: ``top`` in row 0, ``rest`` in rows 1.."""
    out = np.empty(shape)
    out[..., 0, :] = top
    out[..., 1:, :] = rest
    return _readonly(out)


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

    # the constant blocks of the information form's predict and update,
    # computed once and shared by every sequence of the model

    @cached_property
    def FtQinvF(self) -> np.ndarray:
        return _readonly(self.F.T @ self.Qinv @ self.F)

    @cached_property
    def HtRinvH(self) -> np.ndarray:
        return _readonly(self.H.T @ self.Rinv @ self.H)

    @cached_property
    def info_off(self) -> np.ndarray:
        """The superdiagonal block -F'Q^{-1} between a step and its successor."""
        return _readonly(-self.F.T @ self.Qinv)

    @cached_property
    def info_head(self) -> np.ndarray:
        """A freshly predicted step's entries: zero information vector, Q^{-1}."""
        return _readonly(np.concatenate([np.zeros((1, self.nx)), self.Qinv]))


class _Seq:
    """Operations every form shares; a form supplies ``window``,
    ``nx``, ``_predict``, ``update``, ``last_moments``, ``_select``,
    ``to_moment`` and ``dump``."""

    __slots__ = ()

    def predict(self, m: ModelLG):
        """Append the one-step-ahead state."""
        return self._predict(m, _window(self.window.alpha, self.window.gamma + 1))

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


# ---------------------------------------------------------------------------
# moment form, exact (no depth limit) or L-scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MomentSeq(_Seq):
    """Joint Gaussian over the window's states as a mean and the dense joint
    covariance of its trailing steps.

    With ``L`` None, ``cov`` covers every step: the exact moment form.  With
    ``L`` set, it covers at most the trailing L steps; each older step keeps
    only its marginal covariance in ``old_blocks`` and is treated as
    independent of every other step, and prediction detaches the oldest
    dense step once the dense part would exceed L steps.  The exact form is
    the L -> infinity limit, computed by the same arithmetic.
    """

    window: TimeWindow
    mean: np.ndarray
    cov: np.ndarray
    L: Optional[int] = None
    old_blocks: np.ndarray = ()  # (n_old, nx, nx), empty unless L is set

    def __post_init__(self):
        object.__setattr__(self, "mean", _readonly(np.array(self.mean, dtype=float).reshape(-1)))
        object.__setattr__(self, "cov", _readonly(np.array(self.cov, dtype=float, ndmin=2)))
        if self.L is not None:
            nx = self.nx
            object.__setattr__(self, "old_blocks", _frozen_array(np.reshape(self.old_blocks, (-1, nx, nx))))

    @property
    def nx(self) -> int:
        return self.mean.size // self.window.length

    def _predict(self, m: ModelLG, window: TimeWindow) -> "MomentSeq":
        nx = m.nx
        F, Q = np.asarray(m.F), np.asarray(m.Q)
        cov = self.cov
        n = cov.shape[0]
        cross = cov[:, -nx:] @ F.T
        corner = _symmetrize(F @ cov[-nx:, -nx:] @ F.T + Q)
        mean = np.concatenate([self.mean, F @ self.mean[-nx:]])
        new_cov = np.empty((n + nx, n + nx))
        new_cov[:n, :n] = cov
        new_cov[:n, n:] = cross
        new_cov[n:, :n] = cross.T
        new_cov[n:, n:] = corner
        old = self.old_blocks
        if self.L is not None and n == self.L * nx:
            old = np.concatenate([old, new_cov[:nx, :nx][None]])
            new_cov = new_cov[nx:, nx:]
        return MomentSeq(window, mean, new_cov, self.L, old)

    def update(self, m: ModelLG, z, post: tuple, shared: Optional[dict] = None) -> "MomentSeq":
        """Condition the dense steps on a measurement of the last state from
        its S and innovation in ``post`` (see ``gate_likelihoods``); detached
        steps are untouched.  Nothing is ``shared``."""
        S, v = post[:2]
        H = np.asarray(m.H)
        P_tail = self.cov[:, -m.nx :]
        K = np.linalg.solve(S, H @ P_tail.T).T
        mean = np.array(self.mean)
        mean[-len(self.cov) :] += K @ v
        cov = _symmetrize(self.cov - K @ H @ P_tail.T)
        return MomentSeq(self.window, mean, cov, self.L, self.old_blocks)

    def last_moments(self) -> tuple:
        nx = self.nx
        return np.asarray(self.mean[-nx:]), np.asarray(self.cov[-nx:, -nx:])

    def _select(self, keep: TimeWindow, i0: int, i1: int) -> "MomentSeq":
        n_old = len(self.old_blocks)
        first_dense = self.window.alpha + n_old
        a, g = keep.alpha - self.window.alpha, keep.gamma - self.window.alpha
        if keep.gamma >= first_dense:
            t0 = max(i0 - n_old * self.nx, 0)
            t1 = i1 - n_old * self.nx
            old, cov = self.old_blocks[a:n_old], self.cov[t0:t1, t0:t1]
        else:
            # kept window lies entirely in the independent prefix: the last
            # kept block becomes a one-step dense part
            old, cov = self.old_blocks[a:g], self.old_blocks[g]
        return MomentSeq(keep, self.mean[i0:i1], cov, self.L, old)

    def to_moment(self) -> "MomentSeq":
        """Exact moment-form view: the implied joint covariance, dense."""
        if self.L is None:
            return self
        nx, n_old = self.nx, len(self.old_blocks)
        cov = np.zeros((self.mean.size, self.mean.size))
        for i in range(n_old):
            cov[i * nx : (i + 1) * nx, i * nx : (i + 1) * nx] = self.old_blocks[i]
        cov[n_old * nx :, n_old * nx :] = self.cov
        return MomentSeq(self.window, self.mean, cov)

    def dump(self) -> dict:
        """JSON form: ``mean`` and ``cov``, and ``L`` and ``old_blocks`` when
        the depth is limited."""
        out = {"mean": self.mean.tolist(), "cov": self.cov.tolist()}
        if self.L is not None:
            out.update(L=self.L, old_blocks=self.old_blocks.tolist())
        return out


# ---------------------------------------------------------------------------
# information form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InfoSeq(_Seq):
    """Information-form joint Gaussian with block-tridiagonal structure.

    The information matrix has a diagonal block per step and a superdiagonal
    block between consecutive steps (subdiagonal blocks follow by symmetry);
    everything outside the band is exactly zero.  Only the last step's
    entries change under an update, so the band is stored as:

    * ``done``, the completed steps, as a flat tuple of read-only arrays.
      A step's entries are nx + 1 rows of nx: its information-vector
      entries, then its diagonal block.  First come the rows of the steps
      ``from_band`` stored, in one array, and their superdiagonal blocks,
      one (nx, nx) block for all or an (m, nx, nx) array.  A predicted
      sequence goes on with the model's F'Q^{-1}F and -F'Q^{-1}, then each
      predicted step's entries as they were while it was last, which
      prediction shares with the parent: ``band()`` adds the F'Q^{-1}F a
      step gains on completion, and -F'Q^{-1} is its superdiagonal block.
      A tuple of arrays holds no reference the garbage collector has to
      follow, so it leaves the collector's tracking at its first pass;
    * ``head``, the last step's (nx + 1, nx) entries, laid out the same way;
    * ``last``, the mean (row 0) and covariance (rows 1..) of the last
      state.  They are also the marginal over the last step: the filter
      recursion computes them directly, where the band solve accumulates
      rounding over the window, and likelihoods and gating never require a
      solve.

    The constructor stores these four fields and shares, not copies, the
    arrays.  ``from_band`` builds one from a full band, and ``band()`` and
    ``last_moments()`` gather it back.  The full mean, marginals over other
    windows and the moment view come from one banded Cholesky solve of the
    band; marginals and the moment view are returned in moment form.
    ``dump`` writes the band and the cached moments, O(length * nx^2).
    """

    window: TimeWindow
    done: tuple
    head: np.ndarray
    last: np.ndarray

    @classmethod
    def from_band(cls, window, ivec, diag, off, last_mean, last_cov) -> "InfoSeq":
        """Copy a full band (``diag`` (length, nx, nx), ``off`` (length - 1,
        nx, nx), block (i, i + 1)) and the last-state moments into storage."""
        diag = np.asarray(diag, dtype=float)
        nu, nx = diag.shape[0], diag.shape[-1]
        steps = _stacked(np.reshape(ivec, (nu, nx)), diag, (nu, nx + 1, nx))
        off = np.array(off, dtype=float).reshape(nu - 1, nx, nx)
        if nu > 1 and (off.view(np.uint64) == off[0].view(np.uint64)).all():  # bitwise, signed zeros too
            off = off[0].copy()  # one block for every step, as prediction writes it
        last = _stacked(np.reshape(last_mean, nx), np.reshape(last_cov, (nx, nx)), (nx + 1, nx))
        return cls(window, (steps[:-1].reshape(-1, nx), _readonly(off)), steps[-1], last)

    @property
    def nx(self) -> int:
        return self.head.shape[1]

    def band(self) -> tuple:
        """The full band as (ivec, diag, off) arrays, gathered from ``done``
        in one concatenation; the predicted steps gain F'Q^{-1}F in one add."""
        nx, done = self.nx, self.done
        steps = np.concatenate(done[:1] + done[4:] + (self.head,)).reshape(-1, nx + 1, nx)
        n0 = len(done[0]) // (nx + 1)
        off = np.broadcast_to(done[1], (n0, nx, nx)) if n0 or len(done) == 2 else None
        if len(done) > 2:
            steps[n0:-1, 1:] += done[2]
            predicted = np.broadcast_to(done[3], (len(steps) - 1 - n0, nx, nx))
            off = predicted if off is None else np.concatenate([off, predicted])
        return steps[:, 0].reshape(-1), steps[:, 1:], off

    def _predict(self, m: ModelLG, window: TimeWindow) -> "InfoSeq":
        """Grow the band by one step.

        The previous last step completes: its entries join ``done`` as they
        are, and ``band()`` adds the F'Q^{-1}F its diagonal block gains.  The
        new off-diagonal block is -F'Q^{-1}, the new diagonal block is
        Q^{-1}, and the new information-vector entries are zero; the corners
        stay exactly zero.
        """
        F, done = m.F, self.done
        if len(done) > 2 and done[2] is not m.FtQinvF:  # steps predicted under another model: complete them
            done = InfoSeq.from_band(self.window, *self.band(), *self.last_moments()).done
        if len(done) == 2:
            done += (m.FtQinvF, m.info_off)
        last = _stacked(F @ self.last[0], _symmetrize(F @ self.last[1:] @ F.T + m.Q), self.last.shape)
        return InfoSeq(window, done + (self.head,), m.info_head, last)

    def update(self, m: ModelLG, z, post: tuple, shared: Optional[dict] = None) -> "InfoSeq":
        """Add H'R^{-1}z / H'R^{-1}H to the last step's entries; the last
        state takes the mean m + K v from the gain and innovation in ``post``
        (see ``gate_likelihoods``) and its posterior covariance, copied.
        Nothing else moves.  Updates under one model passing one ``shared``
        dict share the new entries of equal last steps updated with equal z."""
        H, Rinv = m.H, m.Rinv
        z = np.asarray(z, dtype=float).reshape(-1)
        shared, key = {} if shared is None else shared, self.head.tobytes() + z.tobytes()
        if key not in shared:
            shared[key] = _stacked(self.head[0] + H.T @ Rinv @ z, self.head[1:] + m.HtRinvH, self.head.shape)
        last = _stacked(self.last[0] + post[2] @ post[1], post[3], self.last.shape)
        return InfoSeq(self.window, self.done, shared[key], last)

    def last_moments(self) -> tuple:
        return self.last[0], self.last[1:]

    def full_mean(self) -> np.ndarray:
        ivec, diag, off = self.band()
        return _band_solve(diag, off, ivec)

    def _select(self, keep: TimeWindow, i0: int, i1: int) -> MomentSeq:
        if keep.alpha == self.window.gamma:
            return MomentSeq(keep, self.last[0], self.last[1:])
        return MomentSeq(keep, *recover_moments(self, keep))

    def to_moment(self) -> MomentSeq:
        return MomentSeq(self.window, *recover_moments(self, self.window))

    def dump(self) -> dict:
        """The band and the cached moments as lists.  Bitwise-identical
        blocks (the shared superdiagonal, the diagonal blocks of steps alike)
        are converted once and share one list, which JSON writes out in full;
        treat the result as read-only."""
        ivec, diag, off = self.band()
        lists: dict = {}

        def block(b: np.ndarray) -> list:
            key = b.tobytes()
            out = lists.get(key)
            if out is None:
                out = lists[key] = b.tolist()
            return out

        return {
            "ivec": ivec.tolist(),
            "diag": [block(b) for b in diag],
            "off": [block(b) for b in off],
            "last_mean": self.last[0].tolist(),
            "last_cov": self.last[1:].tolist(),
        }


_BAND = ("ivec", "diag", "off", "last_mean", "last_cov")  # the dumped fields of an InfoSeq


MAX_CONDITION = 1e14  # above this condition estimate a band counts as singular


def _band_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve Y x = rhs for one or several right-hand sides, Y the
    block-tridiagonal SPD matrix of ``diag`` and ``off``, by LAPACK's banded
    Cholesky (``pbtrf``/``pbtrs``) on Y packed in one step into lower banded
    storage: bandwidth 2 nx - 1, entry (d, j) holding Y[j + d, j]."""
    nu, nx = diag.shape[0], diag.shape[-1]
    cols = np.zeros((nu, nx, 3 * nx))  # cols[i, b, r]: Y[i nx + r, i nx + b], zero past the band
    cols[:, :, :nx] = diag.transpose(0, 2, 1)
    cols[:-1, :, nx : 2 * nx] = off
    b, d = np.ogrid[:nx, : 2 * nx]
    ab = cols[:, b, b + d].reshape(nu * nx, 2 * nx).T
    try:
        factor = cholesky_banded(ab, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("information matrix is numerically singular") from exc
    pivots = factor[0]  # the factor's diagonal, that of the block factors
    if (pivots.max() / max(pivots.min(), np.finfo(float).tiny)) ** 2 > MAX_CONDITION:
        raise np.linalg.LinAlgError("information matrix is numerically singular")
    return cho_solve_banded((factor, True), rhs, check_finite=False)


def recover_moments(s: InfoSeq, steps: TimeWindow) -> tuple:
    """Mean and covariance blocks for ``steps``, via one banded SPD solve.

    The dense inverse is never formed: the band system is solved for the
    information vector (the mean) and for the identity columns of the
    requested steps only (the covariance block).
    """
    if not s.window.contains(steps):
        raise ValueError("requested steps outside the sequence window")
    nx = s.nx
    ivec, diag, off = s.band()
    i0 = (steps.alpha - s.window.alpha) * nx
    i1 = (steps.gamma - s.window.alpha + 1) * nx
    rhs = np.zeros((ivec.size, 1 + i1 - i0))
    rhs[:, 0] = ivec
    rhs[i0:i1, 1:] = np.eye(i1 - i0)
    x = _band_solve(diag, off, rhs)[i0:i1]
    return x[:, 0], _symmetrize(x[:, 1:])


# ---------------------------------------------------------------------------
# backend-generic operations
# ---------------------------------------------------------------------------


def make_seq(backend: str, window: TimeWindow, mean, cov, L: int = 1):
    """Sequence density of the requested backend from the joint moments of
    the window's states (at most L steps for ``lscan``)."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if backend == "info":
        nx, nu = mean.size // window.length, window.length
        Y = np.linalg.inv(cov)
        diag = np.stack([Y[i * nx : (i + 1) * nx, i * nx : (i + 1) * nx] for i in range(nu)])
        off = np.stack([Y[i * nx : (i + 1) * nx, (i + 1) * nx : (i + 2) * nx] for i in range(nu - 1)]) if nu > 1 else np.zeros((0, nx, nx))
        return InfoSeq.from_band(window, Y @ mean, diag, off, mean[-nx:], _symmetrize(cov[-nx:, -nx:]))
    if backend == "moment":
        return MomentSeq(window, mean, cov)
    if backend == "lscan":
        if window.length > L:
            raise ValueError(f"window of {window.length} steps is longer than the L-scan depth {L}")
        return MomentSeq(window, mean, cov, L)
    raise ValueError(f"unknown backend {backend!r}")


def _load_arrays(d: dict, names: tuple) -> list:
    """The named entries of a sequence dump as finite float arrays."""
    if missing := [name for name in names if name not in d]:
        raise ValueError(f"sequence dump has no {', '.join(missing)}")
    out = [np.array(d[name], dtype=float) for name in names]
    if not all(np.isfinite(a).all() for a in out):
        raise ValueError(f"sequence dump of {', '.join(names)} has a non-finite entry")
    return out


def load_seq(window: TimeWindow, d: dict):
    """Inverse of the backends' ``dump``: an ``InfoSeq`` from a band, a
    ``MomentSeq`` from a mean and dense covariance, with its depth ``L`` and
    detached ``old_blocks`` when the dump has them.  Raises ValueError on a
    missing entry, a non-finite value or a shape that does not fit the
    window."""
    nu = window.length
    if "ivec" not in d:
        mean, cov = _load_arrays(d, ("mean", "cov"))
        (old,) = _load_arrays(d, ("old_blocks",)) if "old_blocks" in d else (np.zeros(0),)
        L = d.get("L")
        nx = mean.size // nu
        t = nu - len(old)  # steps in the dense part
        if nx < 1 or mean.shape != (nu * nx,):
            raise ValueError(f"mean of shape {mean.shape} does not fit window {window}")
        if L is not None and (not float(L).is_integer() or L < 1):
            raise ValueError(f"L-scan depth {L} is not an integer >= 1")
        if len(old) and (L is None or old.shape[1:] != (nx, nx)):
            raise ValueError(f"detached blocks of shape {old.shape} need L and ({nx}, {nx}) blocks")
        if not 1 <= t <= (nu if L is None else L) or cov.shape != (t * nx, t * nx):
            raise ValueError(f"{len(old)} detached blocks and a covariance of shape {cov.shape} do not cover window {window} with L={L}")
        return MomentSeq(window, mean, cov) if L is None else MomentSeq(window, mean, cov, int(L), old)
    band = dict(zip(_BAND, _load_arrays(d, _BAND)))
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
    return InfoSeq.from_band(window, **band)


def predict_seq(s, m: ModelLG):
    return s.predict(m)


def update_seq(s, m: ModelLG, z, post: tuple, shared: Optional[dict] = None):
    """``s.update`` from its gating-batch row: sibling updates by one z may pass one ``shared`` dict."""
    return s.update(m, z, post, shared)


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
    """The chi-square quantile of ``gate_prob`` with ``df`` degrees of
    freedom, computed as ``scipy.stats.chi2.ppf`` does, without loading
    ``scipy.stats``."""
    return float(2.0 * gammaincinv(df / 2.0, gate_prob))


def gate_likelihoods(means: np.ndarray, covs: np.ndarray, m: ModelLG, Z: np.ndarray, gate_prob: float = 1.0):
    """Vectorized ellipsoidal gating, Gaussian evidence and Kalman update of
    a batch of measurements against a stack of last-state moments.

    ``means`` (n, nx) and ``covs`` (n, nx, nx) are the last-state moments of
    n components, ``Z`` (m, nz) the measurements.  Returns (mask,
    likelihoods, post): mask and likelihoods (n, m), ungated entries keeping
    their likelihood value (callers decide whether to zero them); post is
    (S, innovations, gains, posterior covariances), shaped (n, nz, nz),
    (n, m, nz), (n, nx, nz) and (n, nx, nx).  The gain K = P H' S^{-1} and
    the posterior covariance do not depend on the measurement: each row
    forms them once, by the arithmetic of one component's Kalman update,
    and an update of a row with measurement j is the affine m + K v[j].
    """
    H, R = np.asarray(m.H), np.asarray(m.R)
    S = _symmetrize(H @ covs @ H.T + R)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance") from exc
    v = np.asarray(Z, dtype=float)[None, :, :] - (means @ H.T)[:, None, :]
    # w = L^-1 v by forward substitution, one measurement coordinate at a time
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    w = np.empty_like(v)
    for i in range(m.nz):
        w[..., i] = (v[..., i] - np.einsum("nk,njk->nj", L[:, i, :i], w[..., :i])) * (1.0 / diag[:, i, None])
    d2 = np.einsum("nji,nji->nj", w, w)
    logdet = 2.0 * np.log(diag).sum(axis=-1)
    liks = np.exp(-0.5 * (m.nz * LOG_2PI + logdet[:, None] + d2))
    if gate_prob >= 1.0:
        mask = np.ones(d2.shape, dtype=bool)
    else:
        mask = d2 <= _gate_threshold(gate_prob, m.nz)
    K = covs @ H.T @ np.linalg.inv(S)
    return mask, liks, (S, v, K, _symmetrize(covs - K @ H @ covs))
