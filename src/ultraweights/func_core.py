"""Weight functions and their transforms, in the log domain.

A weight function is held as phi(y) = omega(e^y); every transform below
evaluates phi at log arguments, and `WeightFn.omega(t)` is the view
phi(log t) for t grids.  Covers the Young conjugate phi* (a closed-form
maximizer, or bracketed concave maximization), the associated function of a
sequence (sup_k (k y - log M_k), binary search on quotients, the same
bracketed maximization past them), the
two integral transforms used by the Borel-optimality constructions (the
average kappa(t) = int_0^inf phi(log t + u) e^-u du and the harmonic
extension P along the imaginary axis), and the canonical weight matrix
attached to a weight function via the scaled conjugate.

The associated function has one path.  sup_k (k y - log M_k) is the
Legendre conjugate of the points (k, log M_k), and a conjugate sees only the
lower convex hull of its points, so omega_M = omega_(M^lc) for the
log-convex minorant M^lc (H. Komatsu, Ultradistributions I, 1973).  A
sequence not declared log-convex is therefore replaced by the exact hull of
its whole (finite) table before anything is evaluated, and every associated
function is read from nondecreasing quotients.

Both transforms, kappa and P, are read through one dispatcher,
`_transform_of`, as (value, lo, hi) at an array of log arguments.  A
function that carries a closed form (`kappa_ref`, `poisson_ref`: the
catalog's power and squared-log weights) gets ROUNDING |value| on either
side of it.  An associated function gets a closed form over its quotients
with its bracket (`_kappa_assoc`, `_poisson_assoc`), each from one read of
the tail bracket.  There is no quadrature: any other function is refused
(`_no_closed_form`).  The conjugate of kappa of an associated function, the
derived weight log K_j (`kappa_star_assoc`), is a closed form too: kappa'
is k + e^y T_k + 2 e^y arctan(e^-y) on the quotient piece of count k, so
each maximizer is a root of kappa' = j found by one quotient search and
ROOT_HALVINGS halvings of its bracket, with no search over y.  P is a sum
of Ti2 terms, one per quotient: a 16-point rule takes those with |log mu_j
- log r| <= P_CORE = 3, their alternating series through x^9 those out to
P_WINDOW = 8, and a first-order bracket the rest.

The conjugate takes one of two paths, chosen by the function alone.  A
WeightFn that carries `maximizer`, the closed-form argmax over y >= 0 of
x y - phi(y) (the catalog's power, squared-log and linear weights, their
normalized representatives, and `kappa_fn` of a function with `kappa_ref`),
gives the objective at that point: a feasible value, so never above the sup
beyond the rounding of its two terms, at 1 phi point per x, and a
non-finite one is refused.  Every phi is a pre-weight, phi >= 0 and
nondecreasing in y, so a maximizer lies past any plateau of phi(0) and
holds for the normalized representative too (`normalize_fn`).  kappa' =
kappa - phi, as kappa(y) = e^y int_y^inf phi(v) e^-v dv, so kappa's
maximizer is the root of kappa_ref - phi = x, bracketed by doubling y and
halved ROOT_HALVINGS times (`_root`, one slope evaluation per halving), as
`kappa_star_assoc` halves its roots.  Any other function (the associated
function's far path over real k, `kappa_fn` of an associated function,
which has no `kappa_ref`, and the involution check's outer conjugate) goes
through the numeric engine, which keeps no state between calls.  It
evaluates phi at the fixed points y = 0, 2^(j/16) as far as the largest x
needs; the chord slopes are nondecreasing as phi is convex, and one
`searchsorted` of x in them brackets the maximizer between the neighbours of
the point after which the objective stops rising (`_bracket`).  Golden
section shrinks the bracket until concavity certifies that no point beats
the best probe by more than rounding (`_golden_max`): 1 phi evaluation per x
for each probe and golden step, 24 to 33 steps off a kink and up to about 60
at one.  Each x's probes and value depend only on phi and x, on either path.

The conjugate and Ti2 work over their arguments in blocks (PHI_STAR_BLOCK x
values, TI2_ROWS rows), so that no temporary exceeds 64 KiB: glibc serves
larger arrays with mmap, and each fresh one costs a page fault per page.
A phi call of the conjugate holds at most PHI_STAR_BLOCK points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    EnvelopeRequired,
    NoClosedForm,
    NotAWeightSequence,
    QuasianalyticInput,
    TruncationExhausted,
    UltraweightsError,
    UnboundedConjugate,
)
from .seq_core import (
    LogRange,
    WeightSeq,
    _tail_exponent,
    is_non_quasianalytic,
    log_convex_minorant,
    tail_sums,
)
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
    "kappa_star_assoc",
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

ROUNDING = 1e-14  # relative allowance on either side of a closed-form transform for its rounding
TI2_ORDER = 16
P_WINDOW = 8.0
P_CORE = 3.0  # |log mu_j - log r| up to which P's terms take `_ti2`; the series past it errs by <= 7.8e-16
P_CHUNK = 2**14
TI2_ROWS = 2**9
PHI_STAR_BLOCK = 2**13
LATTICE_STEPS = 16  # the conjugate's fixed bracket points per doubling of y
LATTICE_LOW = -8 * LATTICE_STEPS  # the lowest point above the base: y = 2^-8
LATTICE_TOP = 8.0 * 2.0**64  # the highest point of `phi_star`'s brackets
GOLDEN_ITERS = 80  # cap on golden steps; the certificate stops most maxima after 24 to 33, kinks near 60
GOLDEN_CHECK = 3  # golden steps between certificate checks
GOLDEN_TOL = 4.0 * np.finfo(float).eps  # certificate allowance, times 1 + |f|
# Halvings of a root bracket of kappa' = x (`_root`).  A bracket W wide ends with its midpoint
# within W 2^-41 of the root, and the value there within kappa'' W^2 2^-83 of the sup.  In
# `kappa_star_assoc` kappa'' <= j: j 2^-61 for W <= 2^11 (7.2 at most on the benchmark, 700 on
# q-Gevrey q = 1e300).  In `kappa_fn` doubling gives W = y/2 for the root y: kappa'' y^2 2^-85,
# below 1e-22 of the value for the catalog's power (kappa'' = beta x) and squared log (kappa'' = 2).
ROOT_HALVINGS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2, _INVPHI3 = _INVPHI**2, _INVPHI**3

DEFAULT_GRID = 2.0 ** np.arange(-3, 4)


def log_t_grid(lo: float = 1.0, hi: float = 1e8, n: int = 50) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


@dataclass(frozen=True)
class Envelope:
    """Certificate phi(y) <= a + b * e^(theta y) for all real y, theta in (0,1).

    It certifies non-quasianalyticity (`fn_predicates`), and it decides how a
    transform of a function without a closed form is refused
    (`_no_closed_form`); no transform is computed from it."""

    theta: float
    a: float
    b: float

    def bound(self, y):
        return self.a + self.b * np.exp(self.theta * np.asarray(y, dtype=float))


class WeightFn:
    """A weight (or pre-weight) function given by phi(y) = omega(e^y).

    `phi` must accept float64 arrays of any y, -inf (t = 0) included, be
    pure and elementwise, and stay finite wherever phi is.  It must be
    nonnegative and nondecreasing in y (a pre-weight), as `normalize_fn`
    relies on.  `maximizer` (in x) is the closed-form argmax over y >= 0 of
    x y - phi(y); where it is attached it is the production path of the
    conjugate, which evaluates phi once at it and takes the objective
    there.  `kappa_ref` and `poisson_ref` (in y = log t, log r) are the
    closed forms of kappa and of P(ir), which `_transform_of`, the one
    dispatcher of both transforms, reads before `assoc`; `kappa_fn` of a
    function with `kappa_ref` carries a maximizer, the root
    of kappa' = kappa_ref - phi.  The numeric engine stays the conjugate's
    oracle: a copy of the function without `maximizer` conjugates by golden
    section from a stateless bracket between fixed points up to y =
    LATTICE_TOP = 8 * 2^64 (`_bracket`), and an x whose maximizer lies
    beyond raises UnboundedConjugate; the function holds no conjugate
    state.  There is no free-text description: the name says what the
    function is, `maximizer` decides how `phi_star` conjugates it, and
    `kappa_ref`, `poisson_ref` or `assoc` how its transforms are evaluated.
    """

    def __init__(
        self,
        name: str,
        phi: Callable[[np.ndarray], np.ndarray],
        *,
        envelope: Optional[Envelope] = None,
        kappa_ref: Optional[Callable] = None,
        poisson_ref: Optional[Callable] = None,
        maximizer: Optional[Callable] = None,
        assoc: Optional["_AssocEvaluator"] = None,
        include_log_term: bool = False,
    ):
        self.name = name
        self._phi = phi
        self.envelope = envelope
        self.kappa_ref = kappa_ref
        self.poisson_ref = poisson_ref
        self.maximizer = maximizer
        self.assoc = assoc
        self.include_log_term = include_log_term

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


def _bracket(g: Callable, base: float, top: float, x: np.ndarray, refuse: Callable, doubling: bool = False) -> tuple:
    """(a, b, f(a), f(b)) per component of x, f(y) = x y - g(y), g convex:
    a bracket of the maximizer over y >= base between the fixed points y_0
    = base and y_j = 2^(j/LATTICE_STEPS) > base, j >= LATTICE_LOW, up to
    `top`; raises refuse(x) for an x that none brackets.  g is evaluated at
    the points once for all x, an octave (LATTICE_STEPS points) at a time,
    and only as far as the largest x needs: a WeightFn's phi may grow an
    associated-function array through `ensure_cover`.  With `doubling` each
    chunk is twice the last instead (the far path's log M_k, which grows
    none, refuses at its top in a dozen calls instead of a thousand).
    slope[i] is the running maximum of the chord slopes of the cells
    [y_l, y_(l+1)], l <= i (a NaN one, where g overflows at both ends, is
    skipped).  If cell i is the first whose slope reaches x, f rises up to
    y_i and not past it, so the maximizer lies in [y_(i-1), y_(i+1)].  An x
    that no slope reaches, or whose f(b) is NaN (x b and g(b) overflow), is
    refused."""
    j = LATTICE_LOW
    while 2.0 ** (j / LATTICE_STEPS) <= base:
        j += 1
    chunk, y = LATTICE_STEPS, np.array([float(base)])
    gy, slope = g(y), np.empty(0)
    x_max = float(np.max(x, initial=-np.inf))
    while np.searchsorted(slope, x_max) > len(slope) - 2:
        new = 2.0 ** (np.arange(j, j + chunk) / LATTICE_STEPS)
        new = new[new <= top]  # none past top; past the float range they are inf
        if not len(new):
            break
        g_new = g(new)
        s = np.diff(np.concatenate([gy[-1:], g_new])) / np.diff(np.concatenate([y[-1:], new]))
        slope = np.concatenate([slope, np.fmax.accumulate(np.concatenate([slope[-1:], s]))[-len(s):]])
        y, gy = np.concatenate([y, new]), np.concatenate([gy, g_new])
        j += chunk
        if doubling:
            chunk *= 2
    i = np.searchsorted(slope, x)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, len(y) - 1)
    fa, fb = x * y[lo] - gy[lo], x * y[hi] - gy[hi]
    unbracketed = (i == len(slope)) | np.isnan(fb)
    if np.any(unbracketed):
        raise refuse(float(x[np.argmax(unbracketed)]))
    return y[lo], y[hi], fa, fb


def _golden_max(g: Callable, base: float, top: float, x: np.ndarray, refuse: Callable, doubling: bool = False) -> tuple:
    """max over y >= base of f(y) = x y - g(y), g convex, and a point
    attaining it, per component of x, from its `_bracket` [a, b].

    Golden section runs over all components of a block of PHI_STAR_BLOCK
    together: ends a < b and probes c < d, with f known at all four (a new
    end is always an old probe).  Concavity bounds sup f on [a, b] by the
    chord lines of (a, c), (c, d) and (d, b) extended: with the golden
    proportions (c - a)/(d - c) = 1/r and (d - c)/(c - a) = r, r =
    0.618..., it is at most max(fc, fd) + max(|fc - fd|/r, r min(fc - fa,
    fd - fb)).  Every GOLDEN_CHECK steps a component whose bound exceeds
    best = max(fa, fc, fd, fb) by at most GOLDEN_TOL (1 + |best|) stops and
    leaves the working arrays; GOLDEN_ITERS steps stop any component.  The
    result is the best of the four points.  A component's probes, steps and
    value depend only on g, base and its own x, and every probe lies in its
    bracket.  Everything runs under errstate: near the float limit g may
    overflow to inf, which makes f -inf, or NaN where x y overflows too, and
    neither is ever the best point of a bracketed x.
    """
    val, arg = np.empty_like(x), np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, fa, fb = _bracket(g, base, top, x, refuse, doubling)
        for i in range(0, len(x), PHI_STAR_BLOCK):
            block = slice(i, i + PHI_STAR_BLOCK)
            val[block], arg[block] = _golden_block(g, x[block], a[block], b[block], fa[block], fb[block])
    return val, arg


def _golden_block(g: Callable, x: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> tuple:
    """`_golden_max` on one block, from its brackets [a, b] and f there."""

    def f(y: np.ndarray) -> np.ndarray:
        return x * y - g(y)

    w = b - a
    fc, fd = f(a + _INVPHI2 * w), f(a + _INVPHI * w)

    val, arg = np.empty_like(x), np.empty_like(x)
    live = np.arange(len(x))
    for step in range(GOLDEN_ITERS + 1):
        if step % GOLDEN_CHECK == 0 or step == GOLDEN_ITERS:
            hi = np.maximum(fc, fd)
            best = np.maximum(hi, np.maximum(fa, fb))
            # -inf - -inf is NaN where g overflows at two points: not done
            rise = np.maximum(np.abs(fc - fd) / _INVPHI, _INVPHI * np.minimum(fc - fa, fd - fb))
            done = (hi - best) + rise <= GOLDEN_TOL * (1.0 + np.abs(best))
            if step == GOLDEN_ITERS:
                done[:] = True
            if np.any(done):
                top, a_, w_ = best[done], a[done], w[done]
                at = np.where(fa[done] == top, a_, np.where(fc[done] == top, a_ + _INVPHI2 * w_,
                              np.where(fd[done] == top, a_ + _INVPHI * w_, a_ + w_)))
                val[live[done]], arg[live[done]] = top, at
                keep = ~done
                live, x, a, w, fa, fb, fc, fd = (v[keep] for v in (live, x, a, w, fa, fb, fc, fd))
                if not len(live):
                    break
        left = fc >= fd  # keep [a, d] where the left probe wins, else [c, b]
        fa, fb = np.where(left, fa, fc), np.where(left, fd, fb)
        a += _INVPHI2 * w * ~left  # c - a = r^2 w; a is a block of `_golden_max`'s own bracket, w this call's own
        w *= _INVPHI
        f_fresh = f(a + w * (_INVPHI - _INVPHI3 * left))  # at the new c (left) or the new d
        fc, fd = np.where(left, f_fresh, fd), np.where(left, fc, f_fresh)
    return val, arg


def _phi_star_impl(w: WeightFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup_{y>=0} (x y - phi(y)) per component, with the maximizer.

    Where w carries `maximizer`, the objective at it, phi evaluated once per
    x.  Near the float limit x y or phi(y) overflows there, and a value
    that is not finite is refused.  Otherwise the objective is concave in y
    (phi is convex): `_golden_max` from y = 0, and an x that no chord slope
    of phi below y = LATTICE_TOP reaches has an unbounded conjugate (omega
    is at most logarithmic).
    """

    def refuse(bad: float) -> Exception:
        return UnboundedConjugate(f"{w.name}: no finite bracket for the conjugate at x={bad:.6g}")

    if w.maximizer is None:
        return _golden_max(w.phi, 0.0, LATTICE_TOP, xs, refuse)
    val, y = np.empty_like(xs), np.empty_like(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(xs), PHI_STAR_BLOCK):
            block = slice(i, i + PHI_STAR_BLOCK)
            x = xs[block]
            yb = w.maximizer(x)
            y[block], val[block] = yb, x * yb - w.phi(yb)
    finite = np.isfinite(val)
    if not finite.all():
        raise refuse(float(xs[np.argmin(finite)]))
    return val, y


def phi_star(w: WeightFn, x):
    """Young conjugate of phi at x >= 0 (scalar or array)."""
    xx = np.asarray(x, dtype=float)
    if not np.all(xx >= 0):  # NaN too
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

    One path for every sequence: omega_M = omega_(M^lc), the conjugate of
    the lower convex hull of the points (k, log M_k), so a sequence that is
    not declared a weight sequence is replaced on entry by
    `log_convex_minorant(seq, max_index)`, the exact hull of its whole
    table; one with no last index has no table to hull and is refused with
    NotAWeightSequence.  From there on the sequence is log-convex, and
    k*(y) = #{j : log mu_j <= y}.  A cached quotient
    array answers every y up to its last quotient by binary search.  It is
    grown by fours (up to ARRAY_CAP terms) until its last quotient covers
    the largest y asked for; the sequence extends its prefix of values, so
    each log M_k is evaluated once, and the tail's `SuffixSums` (from
    `tail_sums`: the attached series or the generic one) are computed once
    per growth, at the final length; the tail bracket is evaluated only at
    the counts read, as one `LogRange` (`log_tail_after`); the quotients
    and the far tail's power-law fit are made once and shared with the
    generic sums.  Past the array (a conjugate bracket's points beyond it)
    the sup is taken over real k >= n of the sequence's own evaluator
    (`_far`): a bracket over k from base n holds it and the certified
    golden section of phi_star finds it.
    """

    ARRAY_START = 4096
    ARRAY_CAP = 2**17

    def __init__(self, seq: WeightSeq):
        if not seq.is_weight_seq:
            if not math.isfinite(seq.max_index):
                raise NotAWeightSequence(f"{seq.name}: not declared log-convex, and no finite table to take the hull of")
            seq = log_convex_minorant(seq, int(seq.max_index))
        self.seq = seq
        # cover log mu_J >= 55, or reach the cap.  Past the array the generic tail is bracketed by
        # [0, power-law bound] and read at its midpoint; taking the bound whole moves K-power by
        # 3.7e-3 (9.4e-6 relative), and capping the arrays at 65,536 or 16,384 terms moves it by
        # 9.4e-6 or 6.6e-5 relative, past the 1e-6 of bench/reference.json's gate
        self._set(self._grown(seq.values(min(self.ARRAY_START, self._cap())), 55.0))

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
        log_mu = np.diff(vals)
        tail_p = _tail_exponent(log_mu)  # the far branch's and the generic sums', fitted once per array
        tail = tail_sums(self.seq, 1, n + 1, n, fit=(log_mu, tail_p)).at  # read at c + 1 for the counts c = 0..n
        self._n, self._vals, self._log_mu, self._tail, self._tail_p = n, vals, log_mu, tail, tail_p

    def ensure_cover(self, max_log_t: float) -> None:
        vals = self._grown(self._vals, max_log_t)
        if len(vals) - 1 > self._n:
            self._set(vals)

    # -- evaluation ---------------------------------------------------------

    def _far(self, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sup_{k >= n} (k y - log M_k), its k) for y past the array's last
        quotient, where k* >= n: the conjugate of the sequence's own evaluator
        over real k, whose objective is concave in k.  `_golden_max` from
        base n, with bracket points up to the last index or the float range,
        finds its maximizer, and the better of floor(k) and ceil(k) is the
        integer sup.  A y that no chord slope of log M there reaches raises
        TruncationExhausted.
        """
        n = float(self._n)
        top = min(self.seq.max_index, np.finfo(float).max)

        def refuse(bad: float) -> Exception:
            return TruncationExhausted(f"{self.seq.name}: associated function at y = {bad:.6g} has no finite bracket")

        with np.errstate(over="ignore", invalid="ignore"):  # log M_k overflows only near the top
            _, k = _golden_max(self.seq.log_m, n, top, log_t, refuse, doubling=True)
        k_lo, k_hi = np.maximum(np.floor(k), n), np.maximum(np.ceil(k), n)
        v_lo, v_hi = k_lo * log_t - self.seq.log_m(k_lo), k_hi * log_t - self.seq.log_m(k_hi)
        return np.maximum(v_lo, v_hi), np.where(v_hi > v_lo, k_hi, k_lo)

    def eval(self, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi_M(y), k*(y)) for an array of y = log t, -inf (t = 0) included."""
        log_t = np.asarray(log_t, dtype=float)
        out = np.zeros_like(log_t)
        kstar = np.zeros_like(log_t)
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
        return out, kstar

    def log_tail_after(self, counts: np.ndarray) -> LogRange:
        """The `LogRange` of sum_{j > c} 1/mu_j at integer counts c = 0..n:
        `log_tail_bracket(seq, c + 1, n)`, read from the array's
        `SuffixSums` at these counts only."""
        return self._tail(np.asarray(counts, dtype=np.int64) + 1)


def omega_from_seq(seq: WeightSeq) -> WeightFn:
    """Associated function of a positive sequence with M_k^{1/k} -> infinity;
    one not declared log-convex needs a finite table (`_AssocEvaluator`)."""
    growth = trend_to_infinity(seq.values(int(min(512, seq.max_index)))[1:] / np.arange(1, int(min(512, seq.max_index)) + 1))
    if growth.fails:
        raise NotAWeightSequence(f"{seq.name}: M_k^{{1/k}} appears bounded, associated function degenerates")
    ev = _AssocEvaluator(seq)
    return WeightFn(f"omega[{seq.name}]", lambda ys: ev.eval(ys)[0], assoc=ev)


def omega_tilde_from_seq(seq: WeightSeq) -> WeightFn:
    """omega_M + log(1+t^2), in y logaddexp(0, 2y): the non-quasianalytic
    representative used by the moment-problem constructions; equivalent to omega_M."""
    base = omega_from_seq(seq)
    return WeightFn(
        f"omega~[{seq.name}]",
        lambda ys: base._phi(ys) + np.logaddexp(0.0, 2.0 * ys),
        assoc=base.assoc,
        include_log_term=True,
    )


# -- integral transforms -----------------------------------------------------


def _no_closed_form(w: WeightFn, op: str) -> UltraweightsError:
    """The refusal of transform `op` for a function with no closed form for
    it and no quotient sequence: EnvelopeRequired without a growth envelope,
    QuasianalyticInput where the envelope's exponent is not below 1 (the
    transform may diverge), and NoClosedForm otherwise."""
    if w.envelope is None:
        return EnvelopeRequired(f"{op} refused for {w.name}: no growth envelope attached")
    if not (0 < w.envelope.theta < 1):
        return QuasianalyticInput(f"{op} refused for {w.name}: envelope exponent {w.envelope.theta} >= 1")
    return NoClosedForm(f"{op} refused for {w.name}: no closed form attached")


def _transform_of(w: WeightFn, op: str) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Transform `op` ("kappa" or "poisson") of w as (value, lo, hi) at an
    array of y = log t: the attached closed form (`kappa_ref`,
    `poisson_ref`) with its rounding allowance ROUNDING |value| on either
    side, else the sum over the quotients of an associated function with its
    bracket (`_kappa_assoc`, `_poisson_assoc`); any other function is
    refused (`_no_closed_form`)."""
    ref = w.kappa_ref if op == "kappa" else w.poisson_ref
    if ref is not None:
        def closed(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            v = ref(ys)
            return v, v - ROUNDING * np.abs(v), v + ROUNDING * np.abs(v)

        return closed
    if w.assoc is not None:
        assoc = _kappa_assoc if op == "kappa" else _poisson_assoc
        return lambda ys: assoc(w, ys)
    raise _no_closed_form(w, op)


def _transform_at(w: WeightFn, op: str, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_transform_of(w, op)` as 1-d arrays at t, a scalar or an array: t >= 0
    for kappa (kappa(0) = 0), r > 0 for P(ir)."""
    of = _transform_of(w, op)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if op == "kappa" and not np.all(tt >= 0):  # NaN too
        raise ValueError("kappa is defined for t >= 0")
    if op == "poisson" and not np.all(tt > 0):
        raise ValueError("the harmonic extension is evaluated at ir with r > 0")
    with np.errstate(divide="ignore"):
        return of(np.log(tt))


def kappa(w: WeightFn, t):
    """kappa(t) = int_0^inf phi(log t + u) e^-u du at t >= 0 (scalar or
    array), the value of `_transform_of`; kappa(0) = 0."""
    out = _transform_at(w, "kappa", t)[0]
    return out if np.ndim(t) else float(out[0])


def kappa_interval(w: WeightFn, t: float) -> Interval:
    """The bracket of kappa(t), t >= 0, from `_transform_of`."""
    _, lo, hi = _transform_at(w, "kappa", t)
    return Interval(float(lo[0]), float(hi[0]))


def poisson_imag(w: WeightFn, r):
    """The harmonic extension P(ir) at r > 0 (scalar or array), the value of
    `_transform_of`."""
    p = _transform_at(w, "poisson", r)[0]
    return p if np.ndim(r) else float(p[0])


def poisson_interval(w: WeightFn, r: float) -> Interval:
    """The bracket of the harmonic extension P(ir), r > 0, from `_transform_of`."""
    _, lo, hi = _transform_at(w, "poisson", r)
    return Interval(float(lo[0]), float(hi[0]))


def _kappa_log_term(ys: np.ndarray) -> np.ndarray:
    """Exact transform of log(1+t^2) at y = log t: log(1+t^2) + 2t arctan(1/t),
    with s = e^-|y|: 2 arctan(s)/s for t >= 1 and 2s (pi/2 - arctan s) below."""
    s = np.exp(-np.abs(ys))
    atan = np.arctan(s)
    above = np.divide(atan, s, out=np.ones_like(s), where=s > 0)
    return np.logaddexp(0.0, 2.0 * ys) + 2.0 * np.where(ys >= 0, above, s * (0.5 * math.pi - atan))


def _kappa_assoc(w: WeightFn, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kappa at every y = log t, phi_M(y) + k* + e^(y + log T_(k*+1)) plus
    the transform of log(1+t^2) for the tilde representative, and the ends
    of its bracket, from one read of the tail bracket at k* (`log_tail_after`):
    the value takes its midpoint and the ends its ends, each widened by
    ROUNDING.  Past the array's last quotient only the power-law remainder
    k* / ((p-1) mu_k*) of `_tail_exponent` exists, with log mu_k* <= y: the
    value takes it (+inf without a fit), and as it bounds nothing the lower
    end takes the tail as 0 and the upper end is +inf.  At t = 0 the tail term t T is 0, also
    where T diverges (a quasianalytic M)."""
    ev = w.assoc
    om, kstar = ev.eval(ys)
    near = kstar <= ev._n  # the tail bracket is read at counts 0..n
    tail = ev.log_tail_after(kstar[near])
    mid, lo, hi = np.full_like(ys, np.inf), np.full_like(ys, -np.inf), np.full_like(ys, np.inf)
    mid[near], lo[near], hi[near] = tail.mid, tail.lo, tail.hi
    if ev._tail_p is not None:
        mid[~near] = np.log(kstar[~near] / (ev._tail_p - 1.0)) - ys[~near]
    log_term = _kappa_log_term(ys) if w.include_log_term else 0.0
    v, lo, hi = (
        om + kstar + np.exp(np.add(ys, log_tail, out=np.full_like(ys, -np.inf), where=ys > -np.inf)) + log_term
        for log_tail in (mid, lo, hi)
    )
    return v, lo - ROUNDING * np.abs(lo), hi + ROUNDING * np.abs(hi)


def kappa_assoc(w: WeightFn, t) -> np.ndarray | float:
    """Exact piecewise closed form of kappa for sequence-associated functions.

    The evaluator's M is log-convex (an undeclared table's minorant), so
    the associated function is piecewise linear in log s with breakpoints
    at the quotients, and the transform telescopes to
    omega_M(t) + k*(t) + t * sum_{j > k*} 1/mu_j.  The log(1+s^2) component
    of the tilde representative has its own closed form.  The test suite
    checks it against 30-digit values of the definition
    (tests/data/oracle.json).
    """
    if w.assoc is None:
        raise ValueError(f"{w.name} is not sequence-associated")
    tt = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        out = _kappa_assoc(w, np.log(np.atleast_1d(tt)))[0]
    return out if tt.ndim else float(out[0])


def _kappa_slope(ys: np.ndarray, log_tail: np.ndarray) -> np.ndarray:
    """kappa' - k of the tilde representative at y >= 0 on a piece of count k
    whose tail is T_k = e^log_tail: e^y T_k + 2 e^y arctan(e^-y)."""
    s = np.exp(-ys)
    return np.exp(ys + log_tail) + 2.0 * np.divide(np.arctan(s), s, out=np.ones_like(s), where=s > 0)


def _root(slope: Callable, target: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of slope(y) = target in its bracket [a, b], per component,
    slope nondecreasing: the bracket's midpoint, moved ROOT_HALVINGS times
    by half its last step toward the root, so within (b - a) 2^-41 of it.
    One slope call per halving; a NaN slope counts as above the target."""
    y, h = 0.5 * (a + b), 0.5 * (b - a)  # the bracket's midpoint and half width
    for _ in range(ROOT_HALVINGS):
        h *= 0.5
        y += np.where(slope(y) < target, h, -h)
    return y


def _doubling_root(slope: Callable, s0: float, xs: np.ndarray) -> np.ndarray:
    """The argmax over y >= 0 of x y - g(y) for g convex with g' = slope and
    g'(0) = s0, per component of x: 0 where s0 >= x, else the root of
    slope(y) = x.  The root's bracket is [y/2, y] ([0, 1] for y = 1), for
    the first y of 1, 2, 4, ... whose slope reaches x; those points are
    evaluated once for all x, up to LATTICE_TOP and only as far as the
    largest x needs, and `_root` halves the bracket.  A NaN slope (g and
    phi both overflow) counts as above every x.  An x that no slope up to
    LATTICE_TOP reaches gets NaN, whose objective the conjugate refuses."""
    out = np.zeros_like(xs)
    rising = xs > s0
    if not np.any(rising):
        return out
    x = xs[rising]
    x_max = float(np.max(x))
    tops, slopes = [1.0], [float(slope(np.ones(1))[0])]
    while slopes[-1] < x_max and tops[-1] < LATTICE_TOP:
        tops.append(2.0 * tops[-1])
        slopes.append(float(slope(np.array(tops[-1:]))[0]))
    slopes = np.array(slopes)
    i = np.searchsorted(np.where(np.isnan(slopes), np.inf, slopes), x)  # the first top whose slope reaches x
    b = np.array(tops)[np.minimum(i, len(tops) - 1)]
    y = _root(slope, x, np.where(i > 0, 0.5 * b, 0.0), b)
    out[rising] = np.where(i < len(tops), y, np.nan)
    return out


def kappa_star_assoc(w: WeightFn, n: int) -> np.ndarray:
    """log K_j = sup_{y >= 0} (j y - kappa(y) + kappa(0)) for j = 1..n, with
    kappa = `_kappa_assoc` of the tilde representative w of a sequence: the
    conjugate of the normalized kappa (`kappa_fn`), in closed form.

    On the piece log mu_k <= y < log mu_(k+1), kappa(y) = k y - log M_k + k
    + e^y T_k + l(y), with T_k the tail midpoint read at count k and l the
    transform of log(1+t^2) (`_kappa_log_term`), so kappa'(y) = k + e^y T_k
    + 2 e^y arctan(e^-y) (`_kappa_slope`).  At a breakpoint k rises by 1 and
    e^y T_k falls by 1, so kappa' is continuous, and kappa'' > 0.  The
    pieces start at y = 0 and at every log mu_k > 0; one `searchsorted` of j
    in kappa' at the starts picks the piece of its root, and log K_j = 0
    where kappa'(0) >= j.  As 2 e^y arctan(e^-y) lies in [pi/2, 2) for y >=
    0, the root has e^y T_k in (j - k - 2, j - k - pi/2] and k <= j - 2;
    that bracket, met with the piece, is halved ROOT_HALVINGS times
    (`_root`), and one `_kappa_assoc` call at 0 and its midpoints gives the
    values.

    Coverage: the array grows (`ensure_cover`) while kappa' at its last
    quotient is <= n, so that every root lies inside it; past the last
    quotient of an array at its cap that raises TruncationExhausted.  The
    last piece of a complete table runs to +inf, where its fitted
    remainder keeps e^y T_k growing; a last piece with T_k = 0 has kappa' <
    k + 2, and a j past it raises UnboundedConjugate.
    """
    ev = w.assoc
    if ev is None or not w.include_log_term:
        raise ValueError(f"{w.name} is not the tilde representative of a sequence")
    while True:  # grow the array until kappa' at its last quotient exceeds n
        top, y_top = ev._n, max(float(ev._log_mu[-1]), 0.0)
        log_t = ev.log_tail_after(np.array([top])).mid
        if top == ev.seq.max_index or top + _kappa_slope(np.array([y_top]), log_t)[0] > n:
            break
        if top >= ev._cap():
            raise TruncationExhausted(f"{ev.seq.name}: K_{n} has its maximizer past the {top}-term array")
        ev.ensure_cover(math.nextafter(float(ev._log_mu[-1]), math.inf))  # one growth by four
    log_mu, top = ev._log_mu, ev._n
    k0 = int(np.searchsorted(log_mu, 0.0, side="right"))  # the count at y = 0
    last = min(top, max(n - 1, k0))  # a piece of count >= n - 1 starts with kappa' > n
    counts = np.arange(k0, last + 1)
    starts = np.concatenate([[0.0], log_mu[k0:last]])
    log_tail = ev.log_tail_after(counts).mid
    js = np.arange(1, n + 1, dtype=float)
    piece = np.searchsorted(counts + _kappa_slope(starts, log_tail), js, side="left") - 1
    out = np.zeros(n)
    at = np.flatnonzero(piece >= 0)
    if not len(at):
        return out
    j, i = js[at], piece[at]
    log_t, gap = log_tail[i], j - counts[i]  # gap = j - k, an integer >= 2
    end = np.where(counts[i] < top, log_mu[np.minimum(counts[i], top - 1)], math.inf)
    with np.errstate(divide="ignore"):
        a = np.maximum(starts[i], np.log(gap - 2.0) - log_t)
        b = np.minimum(end, np.log(gap - 0.5 * math.pi) - log_t)
    if not np.all(np.isfinite(b)):
        bad = int(j[np.argmin(np.isfinite(b))])
        raise UnboundedConjugate(f"{ev.seq.name}: kappa' stays below {bad} on the last piece, K_{bad} is infinite")
    y = _root(lambda ys: _kappa_slope(ys, log_t), gap, a, b)
    kap = _kappa_assoc(w, np.concatenate([[0.0], y]))[0]
    out[at] = np.maximum(j * y - (kap[1:] - kap[0]), 0.0)
    return out


def poisson_batch(w: WeightFn, log_rs) -> np.ndarray:
    """Closed-form P(ir) of a sequence-associated function at y = log r (as
    `kappa_assoc` is the closed form of kappa); see `_poisson_assoc`."""
    if w.assoc is None:
        raise ValueError(f"{w.name} is not sequence-associated")
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


def _ti3(x: np.ndarray) -> np.ndarray:
    """Ti3(x) = int_0^1 Ti2(x w)/w dw, 0 <= x <= 1 (Lewin 1981, ch. 3), by
    the rule of `_ti2` over w, exact to rounding for the same reason: the
    branch points of Ti2(x w) lie at w = +-i/x."""
    return _ti2(np.multiply.outer(x, _TI2_NODES).ravel()).reshape(len(x), TI2_ORDER) @ _TI2_COEFFS


def _ti2_series(x: np.ndarray) -> np.ndarray:
    """x - x^3/9 + x^5/25 - x^7/49 + x^9/81, in Horner form: the alternating
    series of Ti2 through x^9, so Ti2(x) lies between it and it minus x^11/121
    for 0 <= x <= 1."""
    z = x * x
    return x * (1.0 + z * (-1.0 / 9.0 + z * (1.0 / 25.0 + z * (-1.0 / 49.0 + z * (1.0 / 81.0)))))


def _poisson_assoc(w: WeightFn, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(ir) at every y = log r, and the ends of its bracket.

    M is log-convex (an undeclared table's minorant), so omega_M(t) = sum_j
    log+(t/mu_j) extends to (2/pi) sum_j Ti2(r/mu_j) at ir; by Ti2(x) =
    Ti2(1/x) + (pi/2) log x this is omega_M(r) + (2/pi) sum_j
    Ti2(e^-|log r - log mu_j|), and log(1+t^2) adds 2 log(1+r).
    The terms are summed in three parts:
      - the core, |log mu_j - log r| <= P_CORE: `_ti2`, exact to rounding;
      - the band, P_CORE < |log mu_j - log r| <= P_WINDOW: the series
        `_ti2_series`, which is at most x^11/121 <= 7.8e-16 x above each term,
        so (2/pi) times their sum is at most 7.8e-16 P above; the rounding
        allowance of both ends covers it.  Core and band are summed
        together, P_CHUNK terms at a time;
      - the first-order part, the rest: mu_j / r (a prefix log-sum) below and
        r T (the tail bracket) above, off by at most e^(-2 P_WINDOW)/9
        relative as x - x^3/9 <= Ti2(x) <= x, which the lower end takes off.
        Past the array, Ti2(x)/x >= Ti2(x_J)/x_J with x_J = r/mu_J takes its
        place; a finite M has no terms there.
    A radius beyond the last quotient of an array at its cap raises
    TruncationExhausted.
    """
    ev = w.assoc
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
        dist = np.abs(ys[at] - log_mu[i_lo[at] + term - offsets[at]])
        x = np.exp(-dist)
        core = dist <= P_CORE
        ti2 = _ti2_series(x)
        ti2[core] = _ti2(x[core])
        window += np.bincount(at, ti2, minlength=len(ys))

    below = np.exp(np.concatenate([[-np.inf], np.logaddexp.accumulate(log_mu[: i_lo.max(initial=0)])])[i_lo] - ys)
    past = i_hi == n
    tail = ev.log_tail_after(i_hi)
    above_lo = np.where(past & complete, 0.0, np.exp(ys + tail.lo))
    above_hi = np.where(past & complete, 0.0, np.exp(ys + tail.hi))
    above = 0.5 * (above_lo + above_hi)
    first_order = 1.0 - math.exp(-2.0 * P_WINDOW) / 9.0
    x_last = np.exp(np.minimum(ys - log_mu[-1], 0.0))
    above_lo *= np.where(past, np.divide(_ti2(x_last), x_last, out=np.ones_like(ys), where=x_last > 0), first_order)

    c = 2.0 / math.pi
    windowed = ev.eval(ys)[0] + c * window
    if w.include_log_term:
        windowed = windowed + 2.0 * np.logaddexp(0.0, ys)
    p = windowed + c * (below + above)
    lo, hi = windowed + c * (first_order * below + above_lo), windowed + c * (below + above_hi)
    # rounding (below 2.7e-15 |P| measured over up to 1.3e5 terms) and the band's remainder; a P
    # made infinite by a divergent tail (a quasianalytic M) leaves the lower end its own
    err = ROUNDING * np.abs(np.where(np.isfinite(p), p, lo))
    return p, lo - err, hi + err


# -- normalization and derived weight functions ------------------------------


def normalize_fn(w: WeightFn) -> WeightFn:
    """Normalized representative max(0, phi(y) - phi(0)) under w's name, from
    one phi point, c = phi(0); w itself where c = 0, as a pre-weight
    (nonnegative, nondecreasing in y) then vanishes for y <= 0 already.  For
    x > 0 the objective x y - phi(y) rises on any plateau [0, y_c] where phi
    = c, so w's maximizer lies past it and carries over; a phi that stays at
    c for good has no bracket, and `phi_star` refuses it (UnboundedConjugate).
    """
    c = float(w.phi(0.0))
    if c == 0.0:
        return w

    def phi_vec(ys: np.ndarray) -> np.ndarray:
        return np.maximum(w._phi(np.maximum(ys, 0.0)) - c, 0.0)  # phi(0) - c = 0 for y <= 0

    return WeightFn(w.name, phi_vec, envelope=w.envelope, maximizer=w.maximizer)  # the envelope still bounds


def kappa_fn(w: WeightFn) -> WeightFn:
    """kappa as a WeightFn named kappa(...), for chaining transforms: the
    normalized representative (`normalize_fn`) of kappa, a pre-weight as an
    average of phi's translates, with the value of `_transform_of`.

    Where w has `kappa_ref` the result carries a closed-form maximizer.
    kappa(y) = e^y int_y^inf phi(v) e^-v dv gives kappa' = kappa - phi
    (power: beta e^(beta y)/(1 - beta); squared log: 2y + 2), nondecreasing
    as phi is convex, so the argmax over y >= 0 of x y - kappa(y) is 0 where
    kappa'(0) >= x and else the root of kappa_ref - phi = x
    (`_doubling_root`).  kappa of an associated function, which has no
    `kappa_ref`, is conjugated by the numeric engine.
    """
    of = _transform_of(w, "kappa")

    def raw(ys: np.ndarray) -> np.ndarray:
        return of(ys)[0]

    maximizer = None
    if w.kappa_ref is not None:
        def slope(ys: np.ndarray) -> np.ndarray:
            return raw(ys) - w.phi(ys)  # kappa' at y >= 0

        s0 = float(slope(np.zeros(1))[0])

        def maximizer(xs: np.ndarray) -> np.ndarray:
            return _doubling_root(slope, s0, xs)

    env = w.envelope  # kappa(t) <= a + b t^th / (1-th)
    kap_env = None if env is None else Envelope(env.theta, env.a, env.b / (1 - env.theta))
    return normalize_fn(WeightFn(f"kappa({w.name})", raw, envelope=kap_env, maximizer=maximizer))


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

    def member(self, alpha: float) -> WeightSeq:
        alpha = float(alpha)
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
    the normalized representative, and an alpha k that overflows raises
    UnboundedConjugate; for integer n the member n at k is member 1 at n k
    divided by n: log M^(n)_k = log M^(1)_(nk) / n.  Each member evaluates
    the conjugate at every index it is asked for, so its values do not depend
    on the other members or on the order in which they are built.
    """
    wn = normalize_fn(w)

    def make(alpha: float) -> WeightSeq:
        def ev(kk: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):
                x = alpha * kk
            if np.any(np.isinf(x)):
                k = kk[np.isinf(x)][0]
                raise UnboundedConjugate(f"{w.name}: alpha k overflows at alpha={alpha:g}, k={k:g}")
            return phi_star(wn, x) / alpha

        return WeightSeq(f"M[{w.name};a={alpha:g}]", ev, is_weight_seq=True)

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
    over 64 log-spaced t in [4, 1e8].  Where sigma vanishes the ratio is inf
    (an overflow certificate) or, where omega does too, NaN (Inconclusive)."""
    t_grid = log_t_grid(4.0, 1e8, 64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = omega.omega(t_grid) / sigma.omega(t_grid)
    return trend_bounded(ratio, t_grid, relation="fn-preceq", lhs=sigma.name, rhs=omega.name)


def prec_st(sigma: WeightFn, omega: WeightFn) -> Verdict:
    """Strong order: kappa_omega(t) <= C sigma(t) + C over 40 log-spaced t in
    [4, 1e8] (trend), with kappa the value of `_transform_of`."""
    t_grid = log_t_grid(4.0, 1e8, 40)
    kap = _transform_of(omega, "kappa")(np.log(t_grid))[0]
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
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(om) - np.log(t_grid)  # -inf where omega vanishes
        doubling_ratio = w.omega(2 * t_grid) / om  # where omega vanishes: NaN if omega(2t) does too, else inf

    doubling = trend_bounded(doubling_ratio, t_grid, relation="doubling", lhs=w.name)

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

    if w.assoc is not None:
        nq = replace(is_non_quasianalytic(w.assoc.seq), relation="fn-non-quasianalytic", lhs=w.name)  # tails decide
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
        with np.errstate(invalid="ignore"):  # windows where omega vanishes give NaN slopes: no decay certified
            dec = trend_bounded(log_ratio, t_grid)
        half = len(ratio) // 2
        shrinking = float(np.max(ratio[half:])) < 0.5 * float(np.max(ratio[:half]))
        if dec.holds and shrinking:
            little_o = Verdict(Status.HOLDS, relation="omega=o(t)", lhs=w.name,
                               trajectory=subsample(t_grid, ratio), note="ratio decays across windows")
        else:
            little_o = Verdict(Status.INCONCLUSIVE, relation="omega=o(t)", lhs=w.name,
                               trajectory=subsample(t_grid, ratio), note="decay not certified")

    return FnPredicateReport(doubling, om6, nq, little_o)
