"""Weight functions and their transforms.

Covers the Young conjugate (bracketed concave maximization), the associated
function of a sequence (sup_k log(t^k/M_k), binary search on quotients), the
two integral transforms used by the Borel-optimality constructions (the
average kappa(t) = t * int_t^inf omega(s)/s^2 ds and the harmonic extension
along the imaginary axis), and the canonical weight matrix attached to a
weight function via the scaled conjugate.

Improper integrals are only computed for functions carrying a certified
growth envelope omega(u) <= a + b u^theta (theta < 1); the envelope supplies
the cutoff and an explicit tail bracket, so every transform value comes with
an error bound.  kappa_interval, poisson_interval and poisson_batch share one
adaptive engine (`_quadrature`): a single 9-point Gauss-Legendre rule,
global bisection over the panels of all arguments at once, and one panel
budget (PANEL_BUDGET per four arguments) whose exhaustion widens the
brackets of the arguments left open instead of passing silently.
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
from .seq_core import WeightSeq, _dyadic_exponent, tail_recip_mu
from .verdicts import (
    Interval,
    Status,
    Verdict,
    _regression_slope,
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
BATCH_ABS_TOL = 1e-7
PANEL_BUDGET = 10_000
GAUSS_ORDER = 9
PHI_Y_START = 8.0
PHI_Y_MAX = 700.0
GOLDEN_ITERS = 80
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID = 2.0 ** np.arange(-3, 4)


def log_t_grid(lo: float = 1.0, hi: float = 1e8, n: int = 50) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


@dataclass(frozen=True)
class Envelope:
    """Certificate omega(u) <= a + b * u^theta for all u >= 0, theta in (0,1)."""

    theta: float
    a: float
    b: float

    def bound(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            pw = np.where(t > 0, np.exp(self.theta * np.log(np.maximum(t, 1e-300))), 0.0)
        return self.a + self.b * pw


class WeightFn:
    """A weight (or pre-weight) function given by a vectorized evaluator.

    `omega` must accept float64 arrays of non-negative arguments (possibly
    huge: quadrature tails probe t up to ~1e70) and be pure.  Optional
    closed-form reference evaluators (kappa_ref, poisson_ref, phi_star_ref)
    are catalog metadata used as test oracles, never as the production path
    of the generic transforms.
    """

    def __init__(
        self,
        name: str,
        omega_vec: Callable[[np.ndarray], np.ndarray],
        *,
        envelope: Optional[Envelope] = None,
        normalized: bool = False,
        kappa_ref: Optional[Callable] = None,
        poisson_ref: Optional[Callable] = None,
        phi_star_ref: Optional[Callable] = None,
        assoc: Optional["_AssocEvaluator"] = None,
        include_log_term: bool = False,
        quasi_suspect: bool = False,
        note: str = "",
    ):
        self.name = name
        self._omega = omega_vec
        self.envelope = envelope
        self.normalized = normalized
        self.kappa_ref = kappa_ref
        self.poisson_ref = poisson_ref
        self.phi_star_ref = phi_star_ref
        self.assoc = assoc
        self.include_log_term = include_log_term
        self.quasi_suspect = quasi_suspect
        self.note = note

    def omega(self, t):
        tt = np.asarray(t, dtype=float)
        out = self._omega(np.atleast_1d(tt.astype(float)))
        return float(out[0]) if tt.ndim == 0 else out

    def __repr__(self) -> str:
        return f"WeightFn({self.name!r})"


# -- Young conjugate ---------------------------------------------------------


def _phi_star_impl(w: WeightFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup_{y>=0} (x y - omega(e^y)) per component, with the maximizer.

    The objective is concave in y (phi_omega is convex), so: expand the
    bracket [0, Y] by doubling until the objective decreases at the right
    end, then fixed-count golden section.  If no decrease is seen before
    y = 700 the conjugate is unbounded (omega is at most logarithmic).
    """

    def f(y: np.ndarray) -> np.ndarray:
        return xs * y - w.omega(np.exp(y))

    y_hi = np.full_like(xs, PHI_Y_START)
    for _ in range(64):
        probe = np.minimum(y_hi, PHI_Y_MAX)
        slope_ok = f(probe) - f(probe * (1 - 1e-6)) < 0  # decreasing at right end
        if np.all(slope_ok | (y_hi >= PHI_Y_MAX)):
            break
        y_hi = np.where(slope_ok, y_hi, y_hi * 2.0)
    y_hi = np.minimum(y_hi, PHI_Y_MAX)
    still_rising = f(y_hi) - f(y_hi * (1 - 1e-6)) >= 0
    if np.any(still_rising & (y_hi >= PHI_Y_MAX)):
        bad = float(xs[np.argmax(still_rising)])
        raise UnboundedConjugate(f"{w.name}: no finite bracket for the conjugate at x={bad:.6g}")

    a = np.zeros_like(xs)
    b = y_hi
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
    y_best = np.where(fc >= fd, c, d)
    val = np.maximum(f(y_best), f(np.zeros_like(xs)))
    return val, y_best


def phi_star(w: WeightFn, x):
    """Young conjugate of phi(y) = omega(e^y) at x >= 0 (scalar or array)."""
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


def phi_star_involution_check(w: WeightFn, t_grid=None, rel_tol: float = 1e-4) -> Verdict:
    """Check that conjugating twice recovers omega(e^y) on sampled arguments."""
    t_grid = log_t_grid(1.0, 100.0, 24) if t_grid is None else np.asarray(t_grid, dtype=float)
    ys = np.log(t_grid)
    direct = w.omega(t_grid)

    # outer conjugate: sup_x (y*x - phi_star(x)), concave in x
    star = WeightFn(f"conj({w.name})", lambda ts: phi_star(w, np.log(np.maximum(ts, 1e-300))))
    bi = phi_star(star, ys)

    err = np.abs(bi - direct) / np.maximum(1.0, np.abs(direct))
    i = int(np.argmax(err))
    status = Status.HOLDS if err[i] <= rel_tol else Status.FAILS
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
    """Evaluator machinery for omega_M(t) = sup_k (k log t - log M_k).

    For log-convex sequences the sup is attained at k*(t) = #{j : mu_j <= t};
    a cached quotient array answers desk-scale arguments by binary search,
    and far-tail arguments (quadrature probes far beyond the array) fall back
    to a bisection on the sequence's monotone quotient proxy with a
    three-candidate local max.  Non-log-convex positive sequences use a full
    scan over the truncation.
    """

    ARRAY_START = 4096
    ARRAY_CAP = 2**17

    def __init__(self, seq: WeightSeq):
        self.seq = seq
        self.convex = seq.is_weight_seq
        self._lock = threading.Lock()
        self._n = 0
        self._vals = None
        self._log_mu = None
        self._suffix = None
        self._rem = Interval(0.0, 0.0)
        self._grow(min(self.ARRAY_START, self._cap()))

    def _cap(self) -> int:
        return int(min(self.ARRAY_CAP, self.seq.max_index))

    def _grow(self, n: int) -> None:
        n = int(min(n, self._cap()))
        if n <= self._n:
            return
        vals = self.seq.values(n)
        log_mu = np.diff(vals)
        recip = np.exp(-log_mu)
        suffix = np.concatenate([np.cumsum(recip[::-1])[::-1], [0.0]])  # suffix[k-1] = sum_{j>=k} 1/mu_j (within array)
        if self.seq.tail is not None:
            rem = self.seq.tail(n + 1) if n + 1 <= self.seq.max_index else Interval(0.0, 0.0)
        else:
            full = tail_recip_mu(self.seq, 1, n)
            rem = Interval(0.0, full.hi - full.lo) if math.isfinite(full.hi) else Interval(0.0, math.inf)
        self._n, self._vals, self._log_mu, self._suffix, self._rem = n, vals, log_mu, suffix, rem

    def ensure_cover(self, max_log_t: float) -> None:
        with self._lock:
            while self._n < self._cap() and self._log_mu[-1] < max_log_t:
                self._grow(self._n * 4)

    # -- counting and evaluation --------------------------------------------

    def _proxy(self, kk: np.ndarray) -> np.ndarray:
        if getattr(self.seq, "quotient_proxy", None) is not None:
            return self.seq.quotient_proxy(kk)
        return self.seq.log_m(kk) - self.seq.log_m(np.maximum(kk - 1, 0))

    def _kstar_far(self, log_t: np.ndarray) -> np.ndarray:
        """Quotient count beyond the cached array.

        Uses the sequence's direct count hook when present (one slope
        evaluation instead of a bisection); falls back to bisection on the
        monotone quotient proxy.  Either way the caller re-maximizes over
        neighbouring candidates, so an off-by-one here is harmless.
        """
        if self.seq.count_leq is not None:
            return np.maximum(self.seq.count_leq(log_t), float(self._n))
        lo = np.full(log_t.shape, float(self._n))
        hi = lo * 2
        for _ in range(200):
            active = self._proxy(hi) <= log_t
            if not np.any(active):
                break
            lo = np.where(active, hi, lo)
            hi = np.where(active, hi * 2, hi)
        for _ in range(80):
            mid = np.floor(0.5 * (lo + hi))
            take = self._proxy(mid) <= log_t
            lo = np.where(take, np.maximum(mid, lo), lo)
            hi = np.where(take, hi, np.minimum(mid, hi))
            if np.all(hi - lo <= 1):
                break
        return lo

    def eval(self, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(omega_M(e^log_t), k*(t)) for an array of log arguments."""
        log_t = np.asarray(log_t, dtype=float)
        out = np.zeros_like(log_t)
        kstar = np.zeros_like(log_t)
        pos = log_t > 0  # omega_M vanishes for t <= 1 (M_k >= M_0 = 1 need not hold, handled by sup with k=0)
        if not self.convex:
            vals = self.seq.values(self._cap())
            sup, arg = _kernels.assoc_sup(vals, log_t)
            if np.any((arg >= len(vals) - 1) & (log_t > 0)):
                raise TruncationExhausted(f"{self.seq.name}: associated-function scan hit the truncation")
            return np.maximum(sup, 0.0), arg.astype(float)

        self.ensure_cover(float(np.max(log_t, initial=0.0)))
        near = log_t <= self._log_mu[-1]
        if np.any(near):
            ks = np.searchsorted(self._log_mu, log_t[near], side="right")
            o = ks * log_t[near] - self._vals[ks]
            out[near] = np.maximum(o, 0.0)
            kstar[near] = ks
        far = ~near
        if np.any(far):
            lt = log_t[far]
            kf = self._kstar_far(lt)
            log_m = self.seq.log_m_fast or self.seq.log_m
            best = np.full(lt.shape, -np.inf)
            kbest = np.zeros_like(kf)
            for dk in (-2.0, -1.0, 0.0, 1.0, 2.0):
                kc = np.maximum(kf + dk, 0.0)
                v = kc * lt - log_m(kc)
                better = v > best
                best = np.where(better, v, best)
                kbest = np.where(better, kc, kbest)
            out[far] = np.maximum(best, 0.0)
            kstar[far] = kbest
        out[~pos] = 0.0
        return out, kstar

    def tail_mid_after(self, kstar: np.ndarray) -> np.ndarray:
        """Midpoint of sum_{j > k*} 1/mu_j for an array of counts."""
        kstar = np.asarray(kstar, dtype=float)
        out = np.zeros_like(kstar)
        near = kstar <= self._n  # suffix has entries for counts 0..n
        idx = kstar[near].astype(np.int64)
        out[near] = self._suffix[idx] + self._rem.mid
        far = ~near
        if np.any(far):
            # power-law remainder from the last window fit: T(k) ~ k / ((p-1) mu_k)
            p = _dyadic_exponent(self._log_mu)
            kf = kstar[far]
            log_mu_k = self._proxy(np.maximum(kf, 1.0))
            if p > 1:
                out[far] = kf / (p - 1.0) * np.exp(-log_mu_k)
            else:
                out[far] = np.inf
        return out

    def synth_envelope(self, extra_log: bool) -> tuple[Optional[Envelope], bool]:
        """Fitted growth envelope (trend fit, theta capped at 0.99).

        Returns (envelope, quasianalytic_suspect).  The fit adds a safety
        margin to the exponent and is re-validated on a dense grid that
        extends well past the cached-array range (far arguments go through
        the same evaluator as the quadrature tails).
        """
        if math.isinf(self.seq.max_index):
            hi = 55.0
        else:
            hi = min(float(self._log_mu[-1]) * 0.95, 55.0)
        lo = min(0.05, hi / 8)
        ys = np.linspace(lo, hi, 400)
        om, _ = self.eval(ys)
        if extra_log:
            om = om + np.log1p(np.exp(2.0 * np.minimum(ys, 300.0)))
        good = om > 0
        if good.sum() < 8:
            return None, True
        ys, om = ys[good], om[good]
        half = len(ys) // 2
        theta_hat = _regression_slope(ys[half:], np.log(om[half:]))
        if theta_hat > 0.97:
            return None, True
        theta = min(0.99, theta_hat + 0.03)
        b = 1.05 * float(np.max(np.exp(np.log(om) - theta * ys)))
        a = float(np.max(om - b * np.exp(theta * ys))) + 1.0
        return Envelope(theta, max(a, 0.0), b), False


def omega_from_seq(seq: WeightSeq) -> WeightFn:
    """Associated function of a positive sequence with M_k^{1/k} -> infinity."""
    growth = trend_to_infinity(seq.values(int(min(512, seq.max_index)))[1:] / np.arange(1, int(min(512, seq.max_index)) + 1))
    if growth.fails:
        raise NotAWeightSequence(f"{seq.name}: M_k^{{1/k}} appears bounded, associated function degenerates")
    ev = _AssocEvaluator(seq)

    def omega_vec(ts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lt = np.where(ts > 0, np.log(np.maximum(ts, 1e-300)), -np.inf)
        out, _ = ev.eval(np.where(np.isfinite(lt), lt, 0.0))
        return np.where(ts > 0, out, 0.0)

    env, suspect = ev.synth_envelope(extra_log=False)
    return WeightFn(
        f"omega[{seq.name}]",
        omega_vec,
        envelope=env,
        normalized=True,  # omega_M(t) = 0 for t <= 1 when M_0 = 1 and M_k >= 1
        assoc=ev,
        quasi_suspect=suspect,
        note="associated function" + (" (quasianalytic-suspect fit)" if suspect else ""),
    )


def omega_tilde_from_seq(seq: WeightSeq) -> WeightFn:
    """omega_M + log(1+t^2): the non-quasianalytic representative used by the
    moment-problem constructions; equivalent to omega_M."""
    base = omega_from_seq(seq)
    ev = base.assoc

    def omega_vec(ts: np.ndarray) -> np.ndarray:
        return base._omega(ts) + np.log1p(np.minimum(ts, 1e150) ** 2)

    env, suspect = ev.synth_envelope(extra_log=True)
    return WeightFn(
        f"omega~[{seq.name}]",
        omega_vec,
        envelope=env,
        normalized=False,  # log(1+t^2) > 0 on (0,1]
        assoc=ev,
        include_log_term=True,
        quasi_suspect=suspect or base.quasi_suspect,
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


def _cutoff(env: Envelope, x, tol: float, c: float):
    """Cutoff U per argument x: the envelope tail `_envelope_tail(env, x, U, c)`
    is below tol (each of its two terms below tol / 2), and U >= 4."""
    th = env.theta
    u_a = math.log(max(2 * c * env.a / tol, 1.0) + 1.0)
    u_b = np.log(np.maximum(2 * c * env.b * x**th / ((1 - th) * tol), 1.0) + 1.0) / (1 - th)
    return np.maximum(np.maximum(u_a, u_b), 4.0)


def _envelope_tail(env: Envelope, x, U, c: float):
    """c * int_U^inf (a + b (x e^u)^theta) e^-u du, which bounds both transforms'
    integrals beyond U: kappa with c = 1, and P with c = 2/pi (1/cosh u <= 2 e^-u)."""
    th = env.theta
    return c * (env.a * np.exp(-U) + env.b * x**th * np.exp(-(1 - th) * U) / (1 - th))


def _require_envelope(w: WeightFn, op: str) -> Envelope:
    if w.quasi_suspect:
        raise QuasianalyticInput(f"{op} refused for {w.name}: growth fit is quasianalytic-suspect")
    if w.envelope is None:
        raise EnvelopeRequired(f"{op} refused for {w.name}: no growth envelope attached")
    if not (0 < w.envelope.theta < 1):
        raise QuasianalyticInput(f"{op} refused for {w.name}: envelope exponent {w.envelope.theta} >= 1")
    return w.envelope


def kappa_interval(w: WeightFn, t: float) -> Interval:
    """Bracketed kappa(t) = int_0^inf omega(t e^u) e^-u du by adaptive quadrature.

    The cutoff U makes the envelope tail < 1e-10; the remaining tail is
    bracketed between omega(t e^U) e^-U (monotonicity) and the envelope bound.
    """
    env = _require_envelope(w, "kappa")
    if t < 0:
        raise ValueError("kappa is defined for t >= 0")
    if t == 0.0:
        return Interval(0.0, 0.0)
    U = float(_cutoff(env, t, QUAD_ABS_TOL, 1.0))

    def g(u: np.ndarray, i: np.ndarray) -> np.ndarray:
        return w.omega(t * np.exp(u)) * np.exp(-u)

    vals, errs = _quadrature(g, [_initial_edges(w, 0.0, U, t)], QUAD_ABS_TOL)
    val, err = float(vals[0]), float(errs[0])
    err += 4e-15 * abs(val)  # accumulated rounding of the panel sums
    tail_lo = float(w.omega(t * math.exp(U))) * math.exp(-U)
    tail_hi = max(float(_envelope_tail(env, t, U, 1.0)), tail_lo)
    return Interval(val - err + tail_lo, val + err + tail_hi)


def kappa(w: WeightFn, t: float) -> float:
    """Midpoint of the bracketed transform; see kappa_interval."""
    return kappa_interval(w, t).mid


def _kappa_log_term(t) -> np.ndarray:
    """Exact transform of log(1+s^2): log(1+t^2) + t (pi - 2 arctan t)."""
    t = np.asarray(t, dtype=float)
    return np.log1p(np.minimum(t, 1e150) ** 2) + t * (math.pi - 2.0 * np.arctan(t))


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
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore"):
        lt = np.where(tt > 0, np.log(np.maximum(tt, 1e-300)), 0.0)
    om, kstar = w.assoc.eval(lt)
    tail_mid = w.assoc.tail_mid_after(kstar)
    out = om + kstar + tt * tail_mid
    out = np.where(tt > 0, out, 0.0)
    if w.include_log_term:
        out = out + _kappa_log_term(tt)
    return out if np.asarray(t).ndim else float(out[0])


def _initial_edges(w: WeightFn, L: float, U: float, r: float) -> np.ndarray:
    """Coarse panel edges on [L, U], none when U <= L; for sequence-associated
    integrands the first quotient breakpoints (where the integrand has kinks)
    are inserted, which removes most of the bisection depth."""
    if U <= L:
        return np.empty(0)
    n0 = max(8, int(math.ceil((U - L) / 2.0)))
    edges = np.linspace(L, U, n0 + 1)
    if w.assoc is not None and w.assoc.convex:
        kinks = w.assoc._log_mu[:64] - math.log(r)
        kinks = kinks[(kinks > L + 1e-9) & (kinks < U - 1e-9)]
        if len(kinks):
            edges = np.unique(np.concatenate([edges, kinks]))
    return edges


def _poisson_brackets(w: WeightFn, env: Envelope, rs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of the P(ir) bracket for every radius in rs.

    P(ir) = (2/pi) int_0^inf omega(rs)/(1+s^2) ds becomes, after s = e^u,
    (1/pi) int omega(r e^u) sech(u) du, integrated over [L, U] per radius.
    For a normalized omega the integrand vanishes for r e^u <= 1, so
    L = -log r; otherwise L is where the part below it is under tol, and
    that part is bracketed by [0, (2/pi) omega(r e^L) e^L].  The part beyond
    U = max(cutoff, L) is bracketed by [0, envelope tail], so a radius with
    nothing between L and U still gets a certified bracket.
    """
    c = 2.0 / math.pi
    if w.normalized:
        L = -np.log(rs)
        below = np.zeros(len(rs))
    else:
        L = -(np.log(np.maximum(w.omega(rs), 1.0) / tol) + 2.0)
        below = c * w.omega(rs * np.exp(L)) * np.exp(L)
    U = np.maximum(_cutoff(env, rs, tol, c), L)

    def g(u: np.ndarray, i: np.ndarray) -> np.ndarray:
        return w.omega(rs[i] * np.exp(u)) / (np.pi * np.cosh(u))

    edges = [_initial_edges(w, lo, hi, r) for lo, hi, r in zip(L, U, rs)]
    val, err = _quadrature(g, edges, tol)
    err += 4e-15 * np.abs(val)
    return np.maximum(val - err, 0.0), val + err + _envelope_tail(env, rs, U, c) + below


def poisson_interval(w: WeightFn, r: float) -> Interval:
    """Bracketed harmonic extension P(ir) on the imaginary axis, with
    envelope-certified cutoffs at absolute tolerance 1e-10; see
    `_poisson_brackets`."""
    env = _require_envelope(w, "poisson")
    if r <= 0:
        raise ValueError("the harmonic extension is evaluated at ir with r > 0")
    lo, hi = _poisson_brackets(w, env, np.array([float(r)]), QUAD_ABS_TOL)
    return Interval(float(lo[0]), float(hi[0]))


def poisson_imag(w: WeightFn, r: float) -> float:
    return poisson_interval(w, r).mid


def poisson_batch(w: WeightFn, rs) -> np.ndarray:
    """Harmonic-extension midpoints for many radii through one quadrature pass.

    The same P bracket as poisson_interval, at the looser absolute tolerance
    BATCH_ABS_TOL = 1e-7: the radial-sup construction of Q needs hundreds of
    radii and consumes P through order relations with 1e-3 slack, where 1e-7
    is already noise.  The panels of all radii are refined together and
    share one budget of PANEL_BUDGET panels per four radii; a radius still
    open when it runs out keeps a bracket widened by the engine.
    """
    env = _require_envelope(w, "poisson")
    lo, hi = _poisson_brackets(w, env, np.asarray(rs, dtype=float), BATCH_ABS_TOL)
    return 0.5 * (lo + hi)


# -- normalization and derived weight functions ------------------------------


def normalize_fn(w: WeightFn) -> WeightFn:
    """Normalized representative: max(0, omega(t) - omega(1)), zero on [0,1].

    A closed-form conjugate transports exactly through this shift: with
    c = omega(1) and y_c the largest y where omega(e^y) <= c, the normalized
    conjugate is max(x y_c, phi*(x) + c) (the objective is x y on the
    clamped region and shifts by c beyond it).
    """
    if w.normalized:
        return w
    c = float(w.omega(1.0))

    def omega_vec(ts: np.ndarray) -> np.ndarray:
        return np.where(ts <= 1.0, 0.0, np.maximum(w._omega(ts) - c, 0.0))

    y_c = 0.0
    if float(w.omega(math.exp(1e-6))) <= c:  # omega flat past 1: find the plateau end
        hi = 1e-6
        while hi < PHI_Y_MAX and float(w.omega(math.exp(hi))) <= c:
            hi *= 2
        lo = hi / 2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(w.omega(math.exp(mid))) <= c:
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
        omega_vec,
        envelope=w.envelope,  # still an upper bound
        normalized=True,
        phi_star_ref=ref,
        assoc=None,
        quasi_suspect=w.quasi_suspect,
        note=f"normalized by omega(1) = {c:.6g}",
    )


def kappa_fn(w: WeightFn, *, use_ref: bool = True) -> WeightFn:
    """kappa as a WeightFn (normalized representative), for chaining transforms.

    Evaluates through the attached closed form when available and allowed,
    else through memoized quadrature midpoints.
    """
    env = _require_envelope(w, "kappa")
    if use_ref and w.kappa_ref is not None:
        raw = lambda ts: np.asarray(w.kappa_ref(ts), dtype=float)
        how = "closed form"
    elif w.assoc is not None:
        raw = lambda ts: np.asarray(kappa_assoc(w, ts), dtype=float)
        how = "piecewise closed form"
    else:
        cache: dict[float, float] = {}
        lock = threading.Lock()

        def raw(ts: np.ndarray) -> np.ndarray:
            out = np.empty_like(ts)
            with lock:
                for i, t in enumerate(ts):
                    t = float(t)
                    if t not in cache:
                        cache[t] = kappa(w, t)
                    out[i] = cache[t]
            return out

        how = "memoized quadrature"
    c = float(raw(np.array([1.0]))[0])

    def omega_vec(ts: np.ndarray) -> np.ndarray:
        return np.where(ts <= 1.0, 0.0, np.maximum(raw(ts) - c, 0.0))

    kap_env = Envelope(env.theta, env.a, env.b / (1 - env.theta))  # kappa(t) <= a + b t^th / (1-th)
    return WeightFn(
        f"kappa({w.name})",
        omega_vec,
        envelope=kap_env,
        normalized=True,
        note=f"kappa via {how}, normalized by kappa(1) = {c:.6g}",
    )


# -- weight matrices ----------------------------------------------------------


class WeightMatrix:
    """One-parameter family of weight sequences, non-decreasing in the parameter."""

    def __init__(self, name: str, member_fn: Callable[[float], WeightSeq], grid=None, provenance: dict | None = None):
        self.name = name
        self._member_fn = member_fn
        self.grid = np.asarray(DEFAULT_GRID if grid is None else grid, dtype=float)
        self.provenance = provenance or {}
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

    def check_monotone(self, n: int = 64, tol: float = 1e-7) -> Verdict:
        """Pointwise log-domain monotonicity across the grid (sampled)."""
        vals = [m.values(int(min(n, m.max_index))) for m in self.members()]
        n_eff = min(len(v) for v in vals)
        worst = 0.0
        where = None
        for i in range(len(vals) - 1):
            gap = float(np.max(vals[i][:n_eff] - vals[i + 1][:n_eff]))
            if gap > worst:
                worst, where = gap, (float(self.grid[i]), float(self.grid[i + 1]))
        if worst > tol:
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

        def proxy(kk: np.ndarray) -> np.ndarray:
            return phi_star_maximizer(wn, alpha * kk)

        def count_leq(log_t: np.ndarray) -> np.ndarray:
            # maximizer duality: mu_j <= t iff alpha j <= phi'(log t);
            # the slope by central difference, re-maximized over neighbours
            h = 1e-3
            slope = (wn.omega(np.exp(log_t + h)) - wn.omega(np.exp(log_t - h))) / (2 * h)
            return np.floor(np.maximum(slope, 0.0) / alpha)

        seq = WeightSeq(
            f"M[{w.name};a={alpha:g}]",
            ev,
            is_weight_seq=True,
            note=f"scaled-conjugate member, parameter {alpha:g}",
        )
        seq.quotient_proxy = proxy
        seq.count_leq = count_leq
        if wn.phi_star_ref is not None:
            ref = wn.phi_star_ref
            seq.log_m_fast = lambda kk: np.asarray(ref(alpha * np.asarray(kk, dtype=float)), dtype=float) / alpha
        return seq

    mat = WeightMatrix(
        f"matrix[{w.name}]",
        make,
        grid=grid,
        provenance={"source": w.name, "construction": "scaled Young conjugate"},
    )
    mat.source_fn = w
    return mat


# -- order relations on functions ---------------------------------------------


def fn_preceq(sigma: WeightFn, omega: WeightFn, t_grid=None) -> Verdict:
    """sigma precedes omega when omega(t) = O(sigma(t)): trend on the ratio."""
    t_grid = log_t_grid(4.0, 1e8, 64) if t_grid is None else np.asarray(t_grid, dtype=float)
    num = omega.omega(t_grid)
    den = np.maximum(sigma.omega(t_grid), 1e-300)
    return trend_bounded(num / den, t_grid, relation="fn-preceq", lhs=sigma.name, rhs=omega.name)


def prec_st(sigma: WeightFn, omega: WeightFn, t_grid=None) -> Verdict:
    """Strong order: kappa_omega(t) <= C sigma(t) + C along the grid (trend)."""
    t_grid = log_t_grid(4.0, 1e8, 40) if t_grid is None else np.asarray(t_grid, dtype=float)
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

    def to_dict(self) -> dict:
        return {k: getattr(self, k).to_dict() for k in ("doubling", "om6", "non_quasianalytic", "little_o")}


def fn_predicates(w: WeightFn, t_grid=None) -> FnPredicateReport:
    """Structure predicates of a weight function, each as a Verdict.

    doubling: omega(2t) = O(omega(t)); om6: exists H >= 1 with
    2 omega(t) <= omega(Ht) + H (H searched over a dyadic grid);
    non-quasianalyticity of int omega(t)/(1+t^2) dt (decided through the
    envelope, with a linear-growth divergence certificate); omega(t) = o(t).
    """
    t_grid = log_t_grid(4.0, 1e8, 64) if t_grid is None else np.asarray(t_grid, dtype=float)
    om = w.omega(t_grid)
    den = np.maximum(om, 1e-300)

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

    if w.envelope is not None and w.envelope.theta < 1 and not w.quasi_suspect:
        nq = Verdict(Status.HOLDS, relation="fn-non-quasianalytic", lhs=w.name,
                     note=f"envelope exponent {w.envelope.theta:g} < 1 certifies the integral")
    else:
        lim = trend_liminf_positive(om / t_grid, t_grid)
        if lim.holds:
            nq = Verdict(Status.FAILS, relation="fn-non-quasianalytic", lhs=w.name,
                         note="omega(t)/t bounded below: integral diverges")
        else:
            nq = Verdict(Status.INCONCLUSIVE, relation="fn-non-quasianalytic", lhs=w.name,
                         note="no envelope and no divergence certificate")

    ratio = om / t_grid
    lim = trend_liminf_positive(ratio, t_grid)
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
