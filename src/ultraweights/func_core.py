"""Weight functions and their transforms, in the log domain.

A weight function is held as phi(y) = omega(e^y); every transform below
evaluates phi at log arguments, and `WeightFn.omega(t)` is the view
phi(log t) for t grids.  Covers the Young conjugate phi* (bracketed concave
maximization), the associated function of a sequence (sup_k (k y - log M_k),
binary search on quotients, the same bracketed maximization past them), the
two integral transforms used by the Borel-optimality constructions (the
average kappa(t) = int_0^inf phi(log t + u) e^-u du and the harmonic
extension P along the imaginary axis), and the canonical weight matrix
attached to a weight function via the scaled conjugate.

For associated functions both transforms are closed forms over the quotients
(`kappa_assoc`, `poisson_batch`).  Other functions are integrated only when
they carry a certified growth envelope phi(y) <= a + b e^(theta y)
(theta < 1), which supplies the cutoff and an explicit tail bracket.
kappa_interval and poisson_interval share one adaptive engine
(`_quadrature`): a 9-point Gauss-Legendre rule, global bisection over the
panels of all arguments at once, and one panel budget (PANEL_BUDGET per four
arguments) whose exhaustion widens the brackets of the arguments left open.

The conjugate and Ti2 work over their arguments in blocks (PHI_STAR_BLOCK x
values, TI2_ROWS rows), so that no temporary exceeds 64 KiB: glibc serves
larger arrays with mmap, and each fresh one costs a page fault per page.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import (
    EnvelopeRequired,
    NotAWeightSequence,
    QuasianalyticInput,
    TruncationExhausted,
    UnboundedConjugate,
)
from .seq_core import WeightSeq, _dyadic_exponent, _log_mid, is_non_quasianalytic, log_tail_bracket
from .verdicts import (
    Interval,
    Status,
    Verdict,
    subsample,
    trend_bounded,
    trend_liminf_positive,
    trend_to_infinity,
)

__all__ = [
    "Envelope",
    "WeightFn",
    "WeightMatrix",
    "phi_star",
    "phi_star_involution_check",
    "omega_from_seq",
    "omega_tilde_from_seq",
    "kappa",
    "kappa_interval",
    "kappa_assoc",
    "kappa_fn",
    "poisson_imag",
    "poisson_interval",
    "poisson_batch",
    "matrix_from_omega",
    "normalize_fn",
    "fn_preceq",
    "prec_st",
    "fn_predicates",
    "FnPredicateReport",
    "DEFAULT_GRID",
    "log_t_grid",
]

QUAD_ABS_TOL = 1e-10
PANEL_BUDGET = 10_000
GAUSS_ORDER = 9
TI2_ORDER = 16
P_WINDOW = 8.0
P_CHUNK = 2**14
TI2_ROWS = 2**9
PHI_STAR_BLOCK = 2**13
PHI_Y_START = 8.0
DOUBLINGS = 64
GOLDEN_ITERS = 80
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID = 2.0 ** np.arange(-3, 4)


def log_t_grid(lo: float = 1.0, hi: float = 1e8, n: int = 50) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


@dataclass(frozen=True)
class Envelope:
    """Certificate phi(y) <= a + b * e^(theta y) for all real y, theta in (0,1)."""

    theta: float
    a: float
    b: float

    def bound(self, y):
        return self.a + self.b * np.exp(self.theta * np.asarray(y, dtype=float))


class WeightFn:
    """A weight (or pre-weight) function given by phi(y) = omega(e^y).

    `phi` must accept float64 arrays of any y, -inf (t = 0) included, be
    pure, and stay finite wherever phi is: the conjugate's bracket doubles y
    up to 8 * 2^64.  `kappa_ref` (in y) is a closed form that `kappa_fn`
    evaluates through; `phi_star_ref` (in x) is catalog metadata used as a
    test oracle, never as the production path of the conjugate.
    """

    def __init__(
        self,
        name: str,
        phi: Callable[[np.ndarray], np.ndarray],
        *,
        envelope: Optional[Envelope] = None,
        normalized: bool = False,
        kappa_ref: Optional[Callable] = None,
        phi_star_ref: Optional[Callable] = None,
        assoc: Optional["_AssocEvaluator"] = None,
        include_log_term: bool = False,
        note: str = "",
    ):
        self.name = name
        self._phi = phi
        self.envelope = envelope
        self.normalized = normalized
        self.kappa_ref = kappa_ref
        self.phi_star_ref = phi_star_ref
        self.assoc = assoc
        self.include_log_term = include_log_term
        self.note = note

    def phi(self, y):
        yy = np.asarray(y, dtype=float)
        out = self._phi(np.atleast_1d(yy))
        return float(out[0]) if yy.ndim == 0 else out

    def omega(self, t):
        """omega(t) = phi(log t), for t grids (t = 0 gives y = -inf)."""
        with np.errstate(divide="ignore"):
            return self.phi(np.log(t))

    def __repr__(self) -> str:
        return f"WeightFn({self.name!r})"


# -- Young conjugate ---------------------------------------------------------


def _doubling(y: np.ndarray, still_open: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Double each component of y while `still_open` holds there, at most
    DOUBLINGS times; returns y and the mask of components still open."""
    for _ in range(DOUBLINGS):
        grow = still_open(y)
        if not np.any(grow):
            return y, grow
        y = np.where(grow, 2.0 * y, y)
    return y, still_open(y)


def _golden_max(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Maximizer of a unimodal f on [a, b] per component: fixed-count golden
    section (GOLDEN_ITERS steps), returning the better of the last two probes."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERS):
        left = fc >= fd  # keep [a, d] where the left probe wins
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_new = b - _INVPHI * (b - a)
        d_new = a + _INVPHI * (b - a)
        fresh = np.where(left, c_new, d_new)
        f_fresh = f(fresh)
        fc, fd = np.where(left, f_fresh, fd), np.where(left, fc, f_fresh)
        c, d = c_new, d_new
    return np.where(fc >= fd, c, d)


def _phi_star_impl(w: WeightFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup_{y>=0} (x y - phi(y)) per component, with the maximizer,
    PHI_STAR_BLOCK components at a time.  Every step of `_phi_star_block`
    is elementwise, so the blocks give the values of a single pass."""
    val, y_best = np.empty_like(xs), np.empty_like(xs)
    for i in range(0, len(xs), PHI_STAR_BLOCK):
        block = slice(i, i + PHI_STAR_BLOCK)
        val[block], y_best[block] = _phi_star_block(w, xs[block])
    return val, y_best


def _phi_star_block(w: WeightFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conjugate and its maximizer on one block of xs.

    The objective is concave in y (phi is convex), so: expand the bracket
    [0, Y] by doubling until the objective decreases at the right end, then
    fixed-count golden section.  If it still rises after DOUBLINGS doublings
    (y = 8 * 2^64) the conjugate is unbounded (omega is at most logarithmic).
    """

    def f(y: np.ndarray) -> np.ndarray:
        return xs * y - w.phi(y)

    # a NaN slope counts as rising, so it ends in UnboundedConjugate
    y_hi, rising = _doubling(np.full_like(xs, PHI_Y_START), lambda y: ~(f(y) - f(y * (1 - 1e-6)) < 0))
    if np.any(rising):
        bad = float(xs[np.argmax(rising)])
        raise UnboundedConjugate(f"{w.name}: no finite bracket for the conjugate at x={bad:.6g}")

    y_best = _golden_max(f, np.zeros_like(xs), y_hi)
    val = np.maximum(f(y_best), f(np.zeros_like(xs)))
    return val, y_best


def phi_star(w: WeightFn, x):
    """Young conjugate of phi at x >= 0 (scalar or array)."""
    xx = np.asarray(x, dtype=float)
    if np.any(xx < 0):
        raise ValueError("conjugate is defined for x >= 0")
    val, _ = _phi_star_impl(w, np.atleast_1d(xx.astype(float)))
    return float(val[0]) if xx.ndim == 0 else val


def phi_star_maximizer(w: WeightFn, x):
    """Maximizing y of the conjugate objective; increasing in x."""
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    _, ym = _phi_star_impl(w, xx)
    return ym if np.asarray(x).ndim else float(ym[0])


def phi_star_involution_check(w: WeightFn) -> Verdict:
    """Check that conjugating twice recovers phi(y) within 1e-4 relative on
    24 log-spaced t in [1, 100]."""
    t_grid = log_t_grid(1.0, 100.0, 24)
    ys = np.log(t_grid)
    direct = w.phi(ys)

    # outer conjugate: sup_x (y*x - phi_star(x)), concave in x
    star = WeightFn(f"conj({w.name})", lambda xs: phi_star(w, xs))
    bi = phi_star(star, ys)

    err = np.abs(bi - direct) / np.maximum(1.0, np.abs(direct))
    i = int(np.argmax(err))
    status = Status.HOLDS if err[i] <= 1e-4 else Status.FAILS
    return Verdict(
        status,
        relation="biconjugate-identity",
        lhs=w.name,
        witness=float(t_grid[i]),
        trajectory=subsample(t_grid, err),
        note=f"max rel deviation {float(err[i]):.3g} at t={float(t_grid[i]):.6g}",
    )


# -- associated function -----------------------------------------------------


class _AssocEvaluator:
    """Evaluator of phi_M(y) = omega_M(e^y) = sup_k (k y - log M_k), the
    Young conjugate of k -> log M_k, with the count k*(y) that attains it.

    For log-convex sequences k*(y) = #{j : log mu_j <= y}.  A cached quotient
    array answers every y up to its last quotient by binary search.  It is
    grown by fours (up to ARRAY_CAP terms) until its last quotient covers
    the largest y asked for; the sequence extends its prefix of values, so
    each log M_k is evaluated once, and the tail brackets are computed once
    per growth, at the final length.  Past the array (the conjugate's
    bracket probes in seq_K) the sup is taken over real k >= n of the
    sequence's own evaluator (`_far`), with the golden section that phi_star
    uses.  Non-log-convex positive sequences use a full scan over the
    truncation.
    """

    ARRAY_START = 4096
    ARRAY_CAP = 2**17

    def __init__(self, seq: WeightSeq):
        self.seq = seq
        self.convex = seq.is_weight_seq
        self._lock = threading.Lock()
        vals = seq.values(min(self.ARRAY_START, self._cap()))
        if self.convex:
            # cover log mu_J >= 55: with 4096 terms the fitted far tail moves K-power by 2.9e-4
            vals = self._grown(vals, 55.0)
        self._set(vals)

    def _cap(self) -> int:
        return int(min(self.ARRAY_CAP, self.seq.max_index))

    def _grown(self, vals: np.ndarray, max_log_t: float) -> np.ndarray:
        """log M_0 .. log M_n, n grown by fours from len(vals) - 1 up to the
        cap, until the last quotient log mu_n reaches max_log_t."""
        cap = self._cap()
        while len(vals) - 1 < cap and vals[-1] - vals[-2] < max_log_t:
            vals = self.seq.values(min(4 * (len(vals) - 1), cap))
        return vals

    def _set(self, vals: np.ndarray) -> None:
        n = len(vals) - 1
        # log_tail_lo/hi[c] bracket log sum_{j > c} 1/mu_j for counts c = 0..n
        lo, hi = log_tail_bracket(self.seq, np.arange(1, n + 2), n)
        self._n, self._vals, self._log_mu, self._log_tail_lo, self._log_tail_hi = n, vals, np.diff(vals), lo, hi

    def ensure_cover(self, max_log_t: float) -> None:
        with self._lock:
            vals = self._grown(self._vals, max_log_t)
            if len(vals) - 1 > self._n:
                self._set(vals)

    # -- evaluation ---------------------------------------------------------

    def _far(self, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sup_{k >= n} (k y - log M_k), its k) for y past the array's last
        quotient, where k* >= n: the conjugate of the sequence's own evaluator
        over real k.  The objective is concave in k, so unimodal in u = log k:
        double u from log n while it rises, golden section on the bracket,
        then the better of floor(k) and ceil(k) is the integer sup.  A
        bracket still open after DOUBLINGS raises TruncationExhausted.
        """
        n = float(self._n)

        def f(u: np.ndarray) -> np.ndarray:
            k = np.exp(u)
            return k * log_t - self.seq.log_m(k)

        u0 = np.full_like(log_t, math.log(n))
        with np.errstate(over="ignore", invalid="ignore"):  # k overflows only in a bracket that stays open
            # a NaN slope counts as rising, so it ends in TruncationExhausted
            u_hi, rising = _doubling(u0, lambda u: ~(f(u) - f(u * (1 - 1e-6)) < 0))
        if np.any(rising):
            bad = float(log_t[np.argmax(rising)])
            raise TruncationExhausted(f"{self.seq.name}: associated function at y = {bad:.6g} has no finite bracket")
        k = np.exp(_golden_max(f, u0, u_hi))
        k_lo, k_hi = np.maximum(np.floor(k), n), np.maximum(np.ceil(k), n)
        v_lo, v_hi = k_lo * log_t - self.seq.log_m(k_lo), k_hi * log_t - self.seq.log_m(k_hi)
        return np.maximum(v_lo, v_hi), np.where(v_hi > v_lo, k_hi, k_lo)

    def eval(self, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi_M(y), k*(y)) for an array of y = log t, -inf (t = 0) included."""
        log_t = np.asarray(log_t, dtype=float)
        out = np.zeros_like(log_t)
        kstar = np.zeros_like(log_t)
        pos = log_t > 0  # omega_M vanishes for t <= 1 (M_k >= M_0 = 1 need not hold, handled by sup with k=0)
        if not self.convex:
            vals = self.seq.values(self._cap())
            finite = log_t > -np.inf  # t = 0: omega_M = 0 and k* = 0
            sup, arg = _kernels.assoc_sup(vals, np.where(finite, log_t, 0.0))
            if np.any((arg >= len(vals) - 1) & pos):
                raise TruncationExhausted(f"{self.seq.name}: associated-function scan hit the truncation")
            return np.where(finite, np.maximum(sup, 0.0), 0.0), np.where(finite, arg, 0).astype(float)

        self.ensure_cover(float(np.max(log_t, initial=0.0)))
        near = (log_t <= self._log_mu[-1]) | (self._n == self.seq.max_index)  # all of a finite M: k* <= n
        if np.any(near):
            lt = log_t[near]
            ks = np.searchsorted(self._log_mu, lt, side="right")
            k_log_t = np.multiply(ks, lt, out=np.zeros_like(lt), where=ks > 0)  # k* = 0 at y = -inf
            out[near] = np.maximum(k_log_t - self._vals[ks], 0.0)
            kstar[near] = ks
        far = ~near
        if np.any(far):
            val, kf = self._far(log_t[far])
            out[far] = np.maximum(val, 0.0)
            kstar[far] = kf
        out[~pos] = 0.0
        return out, kstar

    def log_tail_mid_after(self, kstar: np.ndarray, log_t: np.ndarray) -> np.ndarray:
        """Log of the midpoint of sum_{j > k*} 1/mu_j for the counts k* = k*(y)
        at an array of y = log t."""
        kstar, log_t = np.asarray(kstar, dtype=float), np.asarray(log_t, dtype=float)
        out = np.zeros_like(kstar)
        near = kstar <= self._n  # the tail arrays have entries for counts 0..n
        c = kstar[near].astype(np.int64)
        out[near] = _log_mid(self._log_tail_lo[c], self._log_tail_hi[c])
        far = ~near
        if np.any(far):
            # power-law remainder from the last window fit: T(k) ~ k / ((p-1) mu_k),
            # with log mu_k* <= y < log mu_{k*+1}
            p = _dyadic_exponent(self._log_mu)
            if p > 1:
                out[far] = np.log(kstar[far] / (p - 1.0)) - log_t[far]
            else:
                out[far] = np.inf
        return out


def omega_from_seq(seq: WeightSeq) -> WeightFn:
    """Associated function of a positive sequence with M_k^{1/k} -> infinity."""
    growth = trend_to_infinity(seq.values(int(min(512, seq.max_index)))[1:] / np.arange(1, int(min(512, seq.max_index)) + 1))
    if growth.fails:
        raise NotAWeightSequence(f"{seq.name}: M_k^{{1/k}} appears bounded, associated function degenerates")
    ev = _AssocEvaluator(seq)
    return WeightFn(
        f"omega[{seq.name}]",
        lambda ys: ev.eval(ys)[0],
        normalized=True,  # omega_M(t) = 0 for t <= 1 when M_0 = 1 and M_k >= 1
        assoc=ev,
        note="associated function",
    )


def omega_tilde_from_seq(seq: WeightSeq) -> WeightFn:
    """omega_M + log(1+t^2), in y logaddexp(0, 2y): the non-quasianalytic
    representative used by the moment-problem constructions; equivalent to omega_M."""
    base = omega_from_seq(seq)
    return WeightFn(
        f"omega~[{seq.name}]",
        lambda ys: base._phi(ys) + np.logaddexp(0.0, 2.0 * ys),
        normalized=False,  # log(1+t^2) > 0 on (0,1]
        assoc=base.assoc,
        include_log_term=True,
        note="associated function plus log(1+t^2)",
    )


# -- integral transforms -----------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _quadrature(g, edges: list[np.ndarray], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of g(u, i) over [edges[i][0], edges[i][-1]], with error bounds.

    The one adaptive engine behind kappa and P: a global bisection loop with
    a fixed Gauss-Legendre rule over the open panels of all arguments at
    once.  A panel's error is its difference from the sum of its two halves.
    Argument i starts with the len(edges[i]) - 1 panels given (none when its
    edges are empty), each with the share tol / n0_i of the tolerance, and
    a bisection halves a panel's share.  All arguments draw on one budget of
    PANEL_BUDGET panels per four arguments (at least PANEL_BUDGET), read at
    call time.  When it runs out, the open panels are summed as they are and
    their argument's bound widens by max(tol, 1e-8 * sum of |open panels|).
    Deterministic by construction.
    """
    n = len(edges)
    counts = np.array([max(len(e) - 1, 0) for e in edges], dtype=np.int64)
    idx = np.repeat(np.arange(n), counts)
    lo = np.concatenate([np.empty(0), *(e[:-1] for e in edges)])
    hi = np.concatenate([np.empty(0), *(e[1:] for e in edges)])
    share = tol / counts[idx]

    def panels(lo_: np.ndarray, hi_: np.ndarray, idx_: np.ndarray) -> np.ndarray:
        if len(lo_) == 0:
            return np.empty(0)
        half = 0.5 * (hi_ - lo_)
        pts = (0.5 * (lo_ + hi_))[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = g(pts.ravel(), np.repeat(idx_, GAUSS_ORDER)).reshape(pts.shape)
        return half * (vals @ _GL_WEIGHTS)

    val = np.zeros(n)
    err = np.zeros(n)
    vals = panels(lo, hi, idx)
    n_panels = len(lo)
    budget = PANEL_BUDGET * max(1, n // 4)
    for _ in range(64):
        if len(lo) == 0 or n_panels > budget:
            break
        mid = 0.5 * (lo + hi)
        halves = panels(np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([idx, idx]))
        left, right = halves[: len(lo)], halves[len(lo) :]
        refined = left + right
        perr = np.abs(vals - refined)
        done = perr <= share
        val += np.bincount(idx[done], refined[done], minlength=n)
        err += np.bincount(idx[done], perr[done], minlength=n)
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        idx = np.concatenate([idx[keep], idx[keep]])
        share = np.tile(0.5 * share[keep], 2)
        vals = np.concatenate([left[keep], right[keep]])
        n_panels += 2 * int(keep.sum())
    if len(lo):
        val += np.bincount(idx, vals, minlength=n)
        widen = np.maximum(tol, 1e-8 * np.bincount(idx, np.abs(vals), minlength=n))
        err += np.where(np.bincount(idx, minlength=n) > 0, widen, 0.0)
    return val, err


def _cutoff(env: Envelope, y, tol: float, c: float):
    """Cutoff U per argument y = log x: `_envelope_tail(env, y, U, c)` is
    below tol (each of its two terms below tol / 2), and U >= 4."""
    th = env.theta
    u_a = math.log(max(2 * c * env.a / tol, 1.0) + 1.0)
    log_b = math.log(2 * c * env.b / ((1 - th) * tol)) if env.b > 0 else -math.inf
    u_b = np.logaddexp(np.maximum(th * np.asarray(y, dtype=float) + log_b, 0.0), 0.0) / (1 - th)
    return np.maximum(np.maximum(u_a, u_b), 4.0)


def _envelope_tail(env: Envelope, y, U, c: float):
    """c * int_U^inf (a + b e^(theta (y+u))) e^-u du, which bounds both transforms'
    integrals beyond U: kappa with c = 1, and P with c = 2/pi (1/cosh u <= 2 e^-u)."""
    th = env.theta
    return c * (env.a * np.exp(-U) + env.b * np.exp(th * y - (1 - th) * U) / (1 - th))


def _require_envelope(w: WeightFn, op: str) -> Envelope:
    if w.envelope is None:
        raise EnvelopeRequired(f"{op} refused for {w.name}: no growth envelope attached")
    if not (0 < w.envelope.theta < 1):
        raise QuasianalyticInput(f"{op} refused for {w.name}: envelope exponent {w.envelope.theta} >= 1")
    return w.envelope


def kappa_interval(w: WeightFn, t: float) -> Interval:
    """Bracketed kappa(t) = int_0^inf phi(log t + u) e^-u du by adaptive quadrature.

    The cutoff U makes the envelope tail < 1e-10; the remaining tail is
    bracketed between phi(log t + U) e^-U (monotonicity) and the envelope bound.
    """
    env = _require_envelope(w, "kappa")
    if t < 0:
        raise ValueError("kappa is defined for t >= 0")
    if t == 0.0:
        return Interval(0.0, 0.0)
    return _kappa_bracket(w, env, math.log(t))


def _kappa_bracket(w: WeightFn, env: Envelope, y: float) -> Interval:
    U = float(_cutoff(env, y, QUAD_ABS_TOL, 1.0))

    def g(u: np.ndarray, i: np.ndarray) -> np.ndarray:
        return w.phi(y + u) * np.exp(-u)

    vals, errs = _quadrature(g, [_initial_edges(w, 0.0, U, y)], QUAD_ABS_TOL)
    val, err = float(vals[0]), float(errs[0])
    err += 4e-15 * abs(val)  # accumulated rounding of the panel sums
    tail_lo = float(w.phi(y + U)) * math.exp(-U)
    tail_hi = max(float(_envelope_tail(env, y, U, 1.0)), tail_lo)
    return Interval(val - err + tail_lo, val + err + tail_hi)


def kappa(w: WeightFn, t: float) -> float:
    """Midpoint of the bracketed transform; see kappa_interval."""
    return kappa_interval(w, t).mid


def _kappa_log_term(ys: np.ndarray) -> np.ndarray:
    """Exact transform of log(1+t^2) at y = log t: log(1+t^2) + 2t arctan(1/t),
    with s = e^-|y|: 2 arctan(s)/s for t >= 1 and 2s (pi/2 - arctan s) below."""
    s = np.exp(-np.abs(ys))
    atan = np.arctan(s)
    above = np.divide(atan, s, out=np.ones_like(s), where=s > 0)
    return np.logaddexp(0.0, 2.0 * ys) + 2.0 * np.where(ys >= 0, above, s * (0.5 * math.pi - atan))


def _kappa_assoc(w: WeightFn, ys: np.ndarray) -> np.ndarray:
    """kappa_assoc at y = log t: phi_M(y) + k* + e^(y + log T_{k*+1}), plus
    the transform of log(1+t^2) for the tilde representative."""
    om, kstar = w.assoc.eval(ys)
    out = om + kstar + np.exp(ys + w.assoc.log_tail_mid_after(kstar, ys))
    return out + _kappa_log_term(ys) if w.include_log_term else out


def kappa_assoc(w: WeightFn, t) -> np.ndarray | float:
    """Exact piecewise closed form of kappa for sequence-associated functions.

    For log-convex M the associated function is piecewise linear in log s
    with breakpoints at the quotients, and the transform telescopes to
    omega_M(t) + k*(t) + t * sum_{j > k*} 1/mu_j.  The log(1+s^2) component
    of the tilde representative has its own closed form.  Cross-validated
    against the generic quadrature in the test suite.
    """
    if w.assoc is None:
        raise ValueError(f"{w.name} is not sequence-associated")
    tt = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        out = _kappa_assoc(w, np.log(np.atleast_1d(tt)))
    return out if tt.ndim else float(out[0])


def _initial_edges(w: WeightFn, L: float, U: float, y: float) -> np.ndarray:
    """Coarse panel edges on [L, U], none when U <= L; for sequence-associated
    integrands the first quotient breakpoints (where the integrand has kinks)
    are inserted, which removes most of the bisection depth."""
    if U <= L:
        return np.empty(0)
    n0 = max(8, int(math.ceil((U - L) / 2.0)))
    edges = np.linspace(L, U, n0 + 1)
    if w.assoc is not None and w.assoc.convex:
        kinks = w.assoc._log_mu[:64] - y
        kinks = kinks[(kinks > L + 1e-9) & (kinks < U - 1e-9)]
        edges = np.unique(np.concatenate([edges, kinks]))
    return edges


def _poisson_brackets(w: WeightFn, env: Envelope, ys: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of the P(ir) bracket for every y = log r in ys.

    P(ir) = (2/pi) int_0^inf omega(rs)/(1+s^2) ds becomes, after s = e^u,
    (1/pi) int phi(log r + u) sech(u) du, integrated over [L, U] per radius.
    For a normalized omega the integrand vanishes for log r + u <= 0, so
    L = -log r; otherwise L is where the part below it is under tol, and
    that part is bracketed by [0, (2/pi) phi(log r + L) e^L].  The part
    beyond U = max(cutoff, L) is bracketed by [0, envelope tail], so a
    radius with nothing between L and U still gets a certified bracket.
    """
    c = 2.0 / math.pi
    if w.normalized:
        L = -ys
        below = np.zeros(len(ys))
    else:
        L = -(np.log(np.maximum(w.phi(ys), 1.0) / tol) + 2.0)
        below = c * w.phi(ys + L) * np.exp(L)
    U = np.maximum(_cutoff(env, ys, tol, c), L)

    def g(u: np.ndarray, i: np.ndarray) -> np.ndarray:
        return w.phi(ys[i] + u) / (np.pi * np.cosh(u))

    edges = [_initial_edges(w, lo, hi, y) for lo, hi, y in zip(L, U, ys)]
    val, err = _quadrature(g, edges, tol)
    err += 4e-15 * np.abs(val)
    return np.maximum(val - err, 0.0), val + err + _envelope_tail(env, ys, U, c) + below


def poisson_interval(w: WeightFn, r: float) -> Interval:
    """Bracketed harmonic extension P(ir) on the imaginary axis, with
    envelope-certified cutoffs at absolute tolerance 1e-10; see
    `_poisson_brackets`."""
    env = _require_envelope(w, "poisson")
    if r <= 0:
        raise ValueError("the harmonic extension is evaluated at ir with r > 0")
    lo, hi = _poisson_brackets(w, env, np.array([math.log(r)]), QUAD_ABS_TOL)
    return Interval(float(lo[0]), float(hi[0]))


def poisson_imag(w: WeightFn, r: float) -> float:
    return poisson_interval(w, r).mid


def poisson_batch(w: WeightFn, log_rs) -> np.ndarray:
    """Closed-form P(ir) of a sequence-associated function at y = log r (as
    `kappa_assoc` is the closed form of kappa); see `_poisson_assoc`."""
    return _poisson_assoc(w, np.asarray(log_rs, dtype=float))[0]


_TI2_NODES, _TI2_WEIGHTS = np.polynomial.legendre.leggauss(TI2_ORDER)
_TI2_NODES = 0.5 * (_TI2_NODES + 1.0)
_TI2_COEFFS = 0.5 * _TI2_WEIGHTS / _TI2_NODES


def _ti2(x: np.ndarray) -> np.ndarray:
    """Ti2(x) = int_0^x arctan(v)/v dv = int_0^1 arctan(x w)/w dw, 0 <= x <= 1
    (Lewin 1981, ch. 2), by a 16-point Gauss-Legendre rule, exact to rounding:
    the poles w = +-i/x lie outside the Bernstein ellipse rho ~ 4.6 of [0, 1].
    TI2_ROWS values at a time; each row's sum is the same in any block."""
    out = np.empty_like(x)
    for i in range(0, len(x), TI2_ROWS):
        out[i : i + TI2_ROWS] = np.arctan(np.multiply.outer(x[i : i + TI2_ROWS], _TI2_NODES)) @ _TI2_COEFFS
    return out


def _poisson_assoc(w: WeightFn, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(ir) at every y = log r, and the ends of its bracket.

    For log-convex M, omega_M(t) = sum_j log+(t/mu_j) extends to (2/pi) sum_j
    Ti2(r/mu_j) at ir; by Ti2(x) = Ti2(1/x) + (pi/2) log x this is omega_M(r)
    + (2/pi) sum_j Ti2(e^-|log r - log mu_j|), and log(1+t^2) adds 2 log(1+r).
    Terms with |log mu_j - log r| <= P_WINDOW are summed exactly, P_CHUNK at a
    time; the rest as mu_j / r (a prefix log-sum) below and r T (the tail
    bracket) above, off by at most e^(-2 P_WINDOW)/9 relative as x - x^3/9 <=
    Ti2(x) <= x.  Past the array, Ti2(x)/x >= Ti2(x_J)/x_J with x_J = r/mu_J;
    a finite M has no terms there.  A radius beyond the last quotient of an
    array at its cap raises TruncationExhausted.
    """
    ev = w.assoc
    if ev is None or not ev.convex:
        raise ValueError(f"{w.name} is not associated with a log-convex sequence")
    ev.ensure_cover(float(np.max(ys, initial=-np.inf)) + P_WINDOW)
    log_mu, n = ev._log_mu, ev._n
    complete = n == ev.seq.max_index
    if not complete and np.any(ys > log_mu[-1]):
        raise TruncationExhausted(f"{ev.seq.name}: P at log r = {float(np.max(ys)):.6g}, past the {n}-term array")
    i_lo = np.searchsorted(log_mu, ys - P_WINDOW, side="left")
    i_hi = np.searchsorted(log_mu, ys + P_WINDOW, side="right")
    offsets = np.concatenate([[0], np.cumsum(i_hi - i_lo)])
    window = np.zeros(len(ys))
    for start in range(0, int(offsets[-1]), P_CHUNK):
        term = np.arange(start, min(start + P_CHUNK, int(offsets[-1])))
        at = np.searchsorted(offsets, term, side="right") - 1  # the radius of each term
        x = np.exp(-np.abs(ys[at] - log_mu[i_lo[at] + term - offsets[at]]))
        window += np.bincount(at, _ti2(x), minlength=len(ys))

    below = np.exp(np.concatenate([[-np.inf], np.logaddexp.accumulate(log_mu)])[i_lo] - ys)
    past = i_hi == n
    above_lo = np.where(past & complete, 0.0, np.exp(ys + ev._log_tail_lo[i_hi]))
    above_hi = np.where(past & complete, 0.0, np.exp(ys + ev._log_tail_hi[i_hi]))
    above = 0.5 * (above_lo + above_hi)
    first_order = 1.0 - math.exp(-2.0 * P_WINDOW) / 9.0
    x_last = np.exp(np.minimum(ys - log_mu[-1], 0.0))
    above_lo *= np.where(past, np.divide(_ti2(x_last), x_last, out=np.ones_like(ys), where=x_last > 0), first_order)

    c = 2.0 / math.pi
    exact = ev.eval(ys)[0] + c * window
    if w.include_log_term:
        exact = exact + 2.0 * np.logaddexp(0.0, ys)
    p = exact + c * (below + above)
    err = 1e-14 * np.abs(p)  # rounding: summing 1.3e5 window terms in order measured below 5.2e-15 |P|
    return p, exact + c * (first_order * below + above_lo) - err, exact + c * (below + above_hi) + err


# -- normalization and derived weight functions ------------------------------


def normalize_fn(w: WeightFn) -> WeightFn:
    """Normalized representative: max(0, phi(y) - phi(0)), zero for y <= 0.

    A closed-form conjugate transports exactly through this shift: with
    c = phi(0) and y_c the largest y where phi(y) <= c, the normalized
    conjugate is max(x y_c, phi*(x) + c) (the objective is x y on the
    clamped region and shifts by c beyond it).
    """
    if w.normalized:
        return w
    c = float(w.phi(0.0))

    def phi_vec(ys: np.ndarray) -> np.ndarray:
        return np.where(ys <= 0.0, 0.0, np.maximum(w._phi(ys) - c, 0.0))

    # plateau end: the conjugate's bounded doubling, then bisection
    (hi,), (flat,) = _doubling(np.array([1e-6]), lambda y: w.phi(y) <= c)
    if flat:
        raise UnboundedConjugate(f"{w.name}: constant up to y = {hi:.3g}, the normalized conjugate is unbounded")
    y_c = 0.0
    if hi > 1e-6:
        lo = hi / 2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(w.phi(mid)) <= c:
                lo = mid
            else:
                hi = mid
        y_c = lo

    ref = None
    if w.phi_star_ref is not None:
        base_ref = w.phi_star_ref

        def ref(xs):
            xs = np.asarray(xs, dtype=float)
            return np.maximum(xs * y_c, np.asarray(base_ref(xs), dtype=float) + c)

    return WeightFn(
        f"norm({w.name})",
        phi_vec,
        envelope=w.envelope,  # still an upper bound
        normalized=True,
        phi_star_ref=ref,
        assoc=None,
        note=f"normalized by omega(1) = {c:.6g}",
    )


def kappa_fn(w: WeightFn) -> WeightFn:
    """kappa as a WeightFn (normalized representative), for chaining transforms.

    Evaluates through the attached closed form when there is one, else the
    piecewise closed form of an associated function, else memoized
    quadrature midpoints (which need an envelope).
    """
    if w.kappa_ref is not None:
        raw = w.kappa_ref
        how = "closed form"
    elif w.assoc is not None:
        raw = lambda ys: _kappa_assoc(w, ys)
        how = "piecewise closed form"
    else:
        env = _require_envelope(w, "kappa")
        cache: dict[float, float] = {}
        lock = threading.Lock()

        def raw(ys: np.ndarray) -> np.ndarray:
            out = np.empty_like(ys)
            with lock:
                for i, y in enumerate(ys):
                    y = float(y)
                    if y not in cache:
                        cache[y] = _kappa_bracket(w, env, y).mid
                    out[i] = cache[y]
            return out

        how = "memoized quadrature"
    c = float(raw(np.array([0.0]))[0])

    def phi_vec(ys: np.ndarray) -> np.ndarray:
        return np.where(ys <= 0.0, 0.0, np.maximum(raw(ys) - c, 0.0))

    env = w.envelope  # kappa(t) <= a + b t^th / (1-th)
    kap_env = None if env is None else Envelope(env.theta, env.a, env.b / (1 - env.theta))
    return WeightFn(
        f"kappa({w.name})",
        phi_vec,
        envelope=kap_env,
        normalized=True,
        note=f"kappa via {how}, normalized by kappa(1) = {c:.6g}",
    )


# -- weight matrices ----------------------------------------------------------


class WeightMatrix:
    """One-parameter family of weight sequences, non-decreasing in the parameter."""

    def __init__(self, name: str, member_fn: Callable[[float], WeightSeq], grid=None, provenance: dict | None = None,
                 source_fn: Optional[WeightFn] = None):
        self.name = name
        self._member_fn = member_fn
        self.grid = np.asarray(DEFAULT_GRID if grid is None else grid, dtype=float)
        self.provenance = provenance or {}
        self.source_fn = source_fn  # the weight function of a canonical matrix
        self.warnings: list[str] = []
        self._cache: dict[float, WeightSeq] = {}
        self._lock = threading.Lock()

    def member(self, alpha: float) -> WeightSeq:
        alpha = float(alpha)
        with self._lock:
            if alpha not in self._cache:
                self._cache[alpha] = self._member_fn(alpha)
            return self._cache[alpha]

    def members(self) -> list[WeightSeq]:
        return [self.member(a) for a in self.grid]

    def check_monotone(self, n: int = 64) -> Verdict:
        """Pointwise log-domain monotonicity across the grid (sampled), within 1e-7."""
        vals = [m.values(int(min(n, m.max_index))) for m in self.members()]
        n_eff = min(len(v) for v in vals)
        worst = 0.0
        where = None
        for i in range(len(vals) - 1):
            gap = float(np.max(vals[i][:n_eff] - vals[i + 1][:n_eff]))
            if gap > worst:
                worst, where = gap, (float(self.grid[i]), float(self.grid[i + 1]))
        if worst > 1e-7:
            return Verdict(Status.FAILS, relation="matrix-monotone", lhs=self.name, witness=where,
                           note=f"log gap {worst:.3g} between members {where}")
        return Verdict(Status.HOLDS, relation="matrix-monotone", lhs=self.name)

    def to_json(self, n: int = 64) -> dict:
        from .seq_core import seq_to_json

        return {
            "name": self.name,
            "grid": [float(a) for a in self.grid],
            "members": [seq_to_json(m, int(min(n, m.max_index))) for m in self.members()],
            "provenance": self.provenance,
            "warnings": self.warnings,
        }

    def __repr__(self) -> str:
        return f"WeightMatrix({self.name!r}, grid={self.grid.tolist()})"


def matrix_from_omega(w: WeightFn, grid=None) -> WeightMatrix:
    """Canonical weight matrix of a pre-weight function.

    Member alpha has log M^(alpha)_k = phi*_omega(alpha k)/alpha, computed on
    the normalized representative; for integer n the member n coincides with
    the n-fold power shift of member 1.
    """
    wn = normalize_fn(w)

    def make(alpha: float) -> WeightSeq:
        def ev(kk: np.ndarray) -> np.ndarray:
            return phi_star(wn, alpha * kk) / alpha

        return WeightSeq(f"M[{w.name};a={alpha:g}]", ev, is_weight_seq=True,
                         note=f"scaled-conjugate member, parameter {alpha:g}")

    return WeightMatrix(
        f"matrix[{w.name}]",
        make,
        grid=grid,
        provenance={"source": w.name, "construction": "scaled Young conjugate"},
        source_fn=w,
    )


# -- order relations on functions ---------------------------------------------


def fn_preceq(sigma: WeightFn, omega: WeightFn) -> Verdict:
    """sigma precedes omega when omega(t) = O(sigma(t)): trend on the ratio
    over 64 log-spaced t in [4, 1e8]."""
    t_grid = log_t_grid(4.0, 1e8, 64)
    num = omega.omega(t_grid)
    den = np.maximum(sigma.omega(t_grid), 1e-300)
    return trend_bounded(num / den, t_grid, relation="fn-preceq", lhs=sigma.name, rhs=omega.name)


def prec_st(sigma: WeightFn, omega: WeightFn) -> Verdict:
    """Strong order: kappa_omega(t) <= C sigma(t) + C over 40 log-spaced t in
    [4, 1e8] (trend)."""
    t_grid = log_t_grid(4.0, 1e8, 40)
    if omega.assoc is not None:
        kap = np.asarray(kappa_assoc(omega, t_grid), dtype=float)
    else:
        kap = np.array([kappa(omega, float(t)) for t in t_grid])
    ratio = kap / (sigma.omega(t_grid) + 1.0)
    return trend_bounded(ratio, t_grid, relation="prec_st", lhs=sigma.name, rhs=omega.name)


@dataclass
class FnPredicateReport:
    doubling: Verdict
    om6: Verdict
    non_quasianalytic: Verdict
    little_o: Verdict


def fn_predicates(w: WeightFn) -> FnPredicateReport:
    """Structure predicates of a weight function, each as a Verdict.

    doubling: omega(2t) = O(omega(t)); om6: exists H >= 1 with
    2 omega(t) <= omega(Ht) + H (H searched over a dyadic grid);
    non-quasianalyticity of int omega(t)/(1+t^2) dt (for an associated
    function, the tail bracket of its sequence decides; otherwise the
    envelope, with a linear-growth divergence certificate); omega(t) = o(t).
    Sampled on 64 log-spaced t in [4, 1e8].
    """
    t_grid = log_t_grid(4.0, 1e8, 64)
    om = w.omega(t_grid)
    den = np.maximum(om, 1e-300)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(om) - np.log(t_grid)  # -inf where omega vanishes

    doubling = trend_bounded(w.omega(2 * t_grid) / den, t_grid, relation="doubling", lhs=w.name)

    # H candidates must stay decidable at grid scale: once H >= omega(t_max)/4
    # the additive +H makes the inequality vacuous on every sampled t
    h_cap = max(4.0, float(om[-1]) / 4.0)
    h_grid = 2.0 ** np.arange(1, 21)
    h_grid = h_grid[h_grid <= h_cap]
    om6 = None
    for H in h_grid:
        viol = 2 * om - w.omega(H * t_grid) - H
        if np.all(viol <= 1e-9):
            om6 = Verdict(Status.HOLDS, relation="om6", lhs=w.name, witness=float(H),
                          note=f"2 omega(t) <= omega(Ht)+H holds on the grid with H={H:g}")
            break
    if om6 is None:
        h_top = float(h_grid[-1])
        viol = 2 * om - w.omega(h_top * t_grid) - h_top
        grow = trend_to_infinity(viol, t_grid)
        status = Status.FAILS if grow.holds else Status.INCONCLUSIVE
        om6 = Verdict(status, relation="om6", lhs=w.name,
                      note=f"no dyadic H <= {h_top:g} works on the grid"
                           + ("; violation grows" if grow.holds else ""))

    if w.assoc is not None and w.assoc.convex:
        nq = is_non_quasianalytic(w.assoc.seq)  # the tail bracket of the quotients decides
        nq.relation = "fn-non-quasianalytic"
        nq.lhs = w.name
    elif w.envelope is not None and w.envelope.theta < 1:
        nq = Verdict(Status.HOLDS, relation="fn-non-quasianalytic", lhs=w.name,
                     note=f"envelope exponent {w.envelope.theta:g} < 1 certifies the integral")
    else:
        lim = trend_liminf_positive(log_ratio, t_grid)
        if lim.holds:
            nq = Verdict(Status.FAILS, relation="fn-non-quasianalytic", lhs=w.name,
                         note="omega(t)/t bounded below: integral diverges")
        else:
            nq = Verdict(Status.INCONCLUSIVE, relation="fn-non-quasianalytic", lhs=w.name,
                         note="no envelope and no divergence certificate")

    ratio = om / t_grid
    lim = trend_liminf_positive(log_ratio, t_grid)
    if lim.holds:
        little_o = Verdict(Status.FAILS, relation="omega=o(t)", lhs=w.name,
                           witness=lim.witness, note="omega(t)/t bounded away from zero")
    else:
        dec = trend_bounded(np.log(np.maximum(ratio, 1e-300)), t_grid)
        half = len(ratio) // 2
        shrinking = float(np.max(ratio[half:])) < 0.5 * float(np.max(ratio[:half]))
        if dec.holds and shrinking:
            little_o = Verdict(Status.HOLDS, relation="omega=o(t)", lhs=w.name,
                               trajectory=subsample(t_grid, ratio), note="ratio decays across windows")
        else:
            little_o = Verdict(Status.INCONCLUSIVE, relation="omega=o(t)", lhs=w.name,
                               trajectory=subsample(t_grid, ratio), note="decay not certified")

    return FnPredicateReport(doubling, om6, nq, little_o)
