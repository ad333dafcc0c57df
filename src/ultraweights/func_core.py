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

The associated function has one path.  sup_k (k y - log M_k) is the
Legendre conjugate of the points (k, log M_k), and a conjugate sees only the
lower convex hull of its points, so omega_M = omega_(M^lc) for the
log-convex minorant M^lc (H. Komatsu, Ultradistributions I, 1973).  A
sequence not declared log-convex is therefore replaced by the exact hull of
its whole (finite) table before anything is evaluated, and every associated
function is read from nondecreasing quotients.

For associated functions both transforms are closed forms over the quotients
(`kappa_assoc`, `poisson_batch`).  P is a sum of Ti2 terms, one per quotient:
a 16-point rule takes those with |log mu_j - log r| <= P_CORE = 3, their
alternating series through x^9 those out to P_WINDOW = 8, and a first-order
bracket the rest.  Other functions are integrated only when they carry a
certified growth envelope phi(y) <= a + b e^(theta y) (theta < 1), which
supplies the cutoff and an explicit tail bracket.
kappa_interval and poisson_interval share one adaptive engine
(`_quadrature`), which integrates one argument per call: a 9-point
Gauss-Legendre rule, bisection of the panels that miss their share of the
tolerance, and a budget of PANEL_BUDGET panels whose exhaustion widens the
bracket.

The conjugate maximizes the concave x y - phi(y) in three stages.  A
lattice of fixed points y = 0, 2^(j/16) holds phi and its chord slopes,
which are nondecreasing because phi is convex; one `searchsorted` of x in
the slopes brackets the maximizer within four cells (`_Lattice`).  Parabolic
steps from the three lattice points around the maximizer then propose a
golden bracket a few rounding widths across, which is kept only where
concavity confirms that it holds the sup (`_seed`); where it does not,
golden section starts from the neighbours of the best point evaluated so
far.  Golden section shrinks the bracket until concavity certifies that no
point beats the best probe by more than rounding (`_golden_max`).  A smooth
maximum takes about 16 phi evaluations per x; one whose seed falls back (a
kink, a plateau) takes up to about 60 more, fewer the closer its seed
came.  Each x's probes and value depend only on phi and x.  A WeightFn's
lattice grows by at most an octave of y per phi call, so that a conjugate
over a few x makes a few dozen calls.  The associated function's far path
runs the same stages over real k.

The canonical weight matrix has log M^(alpha)_k = phi*(alpha k)/alpha, so
log M^(2 alpha)_k = log M^(alpha)_(2k) / 2.  In floats this holds bit for
bit: alpha k is the same product either way, the conjugate value depends
only on x, and dividing by 2 alpha is dividing by alpha and halving, which
is exact.  A member therefore reads the indices it shares with the member
at half its parameter from that member's cached prefix; on the dyadic
DEFAULT_GRID, built in ascending order, the 7 members evaluate the
conjugate at one full array of points and six half arrays.

The conjugate and Ti2 work over their arguments in blocks (PHI_STAR_BLOCK x
values, TI2_ROWS rows), so that no temporary exceeds 64 KiB: glibc serves
larger arrays with mmap, and each fresh one costs a page fault per page.
A phi call that batches several arrays of the conjugate's probes holds at
most PHI_STAR_BLOCK points.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    EnvelopeRequired,
    NotAWeightSequence,
    QuasianalyticInput,
    TruncationExhausted,
    UnboundedConjugate,
)
from .seq_core import (
    LogBracket,
    WeightSeq,
    _log_mid,
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
P_CORE = 3.0  # |log mu_j - log r| up to which P's terms take `_ti2`; the series past it errs by <= 7.8e-16
P_CHUNK = 2**14
TI2_ROWS = 2**9
PHI_STAR_BLOCK = 2**13
DOUBLINGS = 64
LATTICE_STEPS = 16  # bracketing lattice points per doubling of y
LATTICE_LOW = -8 * LATTICE_STEPS  # the lowest point above the base: y = 2^-8
LATTICE_TOP = 67 * LATTICE_STEPS  # the conjugate's highest point: y = 8 * 2^64
FAR_LATTICE_TOP = 1024 * LATTICE_STEPS - 1  # the far path's: the largest finite k on the lattice
LATTICE_CHUNK = 4  # lattice points of the first extension; each next one doubles, up to an octave unless doubling
GOLDEN_ITERS = 80  # cap on golden steps; the certificate stops seeded maxima after 3, others near 33, kinks near 60
GOLDEN_CHECK = 3  # golden steps between certificate checks
GOLDEN_TOL = 4.0 * np.finfo(float).eps  # certificate allowance, times 1 + |f|
SEED_ROUNDS = 3  # parabolic refinements of the lattice vertex before the seeded golden bracket
SEED_WIDTH = 8.0  # the seeded bracket's width, in units of sqrt(GOLDEN_TOL (1 + |f|) / |f''|)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2, _INVPHI3 = _INVPHI**2, _INVPHI**3

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
    pure and elementwise, and stay finite wherever phi is: the conjugate's
    lattice (`_lattice`, extended on demand as far as the largest x needs)
    reaches up to y = 8 * 2^64, and an x whose maximizer lies beyond it
    raises UnboundedConjugate.  `kappa_ref` (in y) is a closed form that
    `kappa_fn` evaluates through; `phi_star_ref` (in x) is catalog metadata
    used as a test oracle, never as the production path of the conjugate.
    There is no free-text description: the name says what the function is,
    and `kappa_ref` or `assoc` decides how `kappa_fn` evaluates its
    transform.
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
    ):
        self.name = name
        self._phi = phi
        self.envelope = envelope
        self.normalized = normalized
        self.kappa_ref = kappa_ref
        self.phi_star_ref = phi_star_ref
        self.assoc = assoc
        self.include_log_term = include_log_term
        self._lattice = _Lattice(0.0, LATTICE_TOP)

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


class _Lattice:
    """Bracketing lattice for sup_{y >= base} (x y - g(y)), g convex.

    The points are y_0 = base and the fixed y_j = 2^(j/LATTICE_STEPS) above
    it, from j = LATTICE_LOW up to j = top, evaluated in chunks and only as
    far as the largest x asked for needs.  Each chunk is twice the last,
    from LATTICE_CHUNK points.  With `doubling` it grows without bound, so
    that a refusal at the top takes a dozen extensions instead of
    thousands; that is for a g that grows no array (the far path's log
    M_k).  Otherwise it stops at LATTICE_STEPS, one octave of y: a
    WeightFn's phi may grow an associated-function array through
    `ensure_cover`, and an extension then overshoots the y it needs by at
    most a factor of 2.  The points are the same under any schedule, so
    brackets and values are too.  `slope[i]` is
    the running maximum of the chord slopes of cells 0..i (a NaN slope,
    from g overflowing at both ends, is skipped), so it depends only on the
    points up to y_(i+1).  If cell i is the first whose slope reaches x,
    the objective rises to y_i and does not rise past it, so its maximizer
    lies in [y_(i-1), y_(i+1)]; `bracket` adds one more cell on either side
    as slack for rounding.
    """

    def __init__(self, base: float, top: int, doubling: bool = False):
        self._top, self._chunk, self._doubling = top, LATTICE_CHUNK, doubling
        self._j = LATTICE_LOW
        while 2.0 ** (self._j / LATTICE_STEPS) <= base:
            self._j += 1
        self.y, self.gy, self.slope = np.array([float(base)]), None, np.empty(0)
        self._lock = threading.Lock()

    def _extend(self, g: Callable[[np.ndarray], np.ndarray]) -> None:
        y = 2.0 ** (np.arange(self._j, min(self._j + self._chunk, self._top + 1)) / LATTICE_STEPS)
        gy = g(y)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf where g overflows
            s = np.diff(np.concatenate([self.gy[-1:], gy])) / np.diff(np.concatenate([self.y[-1:], y]))
        s = np.fmax.accumulate(np.concatenate([self.slope[-1:], s]))[-len(s):]
        self.y, self.gy, self.slope = np.concatenate([self.y, y]), np.concatenate([self.gy, gy]), np.concatenate([self.slope, s])
        self._j += len(y)
        self._chunk = 2 * self._chunk if self._doubling else min(2 * self._chunk, LATTICE_STEPS)

    def bracket(
        self, g: Callable[[np.ndarray], np.ndarray], xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple, tuple]:
        """(a, b, f(a), f(b), unbracketed, ys, fs) per x, with f(y) = x y -
        g(y): the lattice points two cells below and above y_i, the mask of
        the xs that no slope below the top reaches, or whose f(b) is NaN
        (x b and g(b) both overflow, so the upper end says nothing; NaN xs
        included), and the lattice points y_(i-1), y_i, y_(i+1) (y_0, y_1,
        y_2 when i = 0) with f at them, from the cached g.  Every call passes
        the same g, its owner's: the lattice keeps no reference to it, so it
        makes no reference cycle."""
        with self._lock:
            if self.gy is None:
                self.gy = g(self.y)
            x_max = float(np.max(xs, initial=-np.inf))
            while self._j <= self._top and np.searchsorted(self.slope, x_max) > len(self.slope) - 2:
                self._extend(g)
            i = np.searchsorted(self.slope, xs)
            last = len(self.y) - 1
            lo, hi = np.maximum(i - 2, 0), np.minimum(i + 2, last)
            mid = np.clip(i, 1, max(last - 1, 1))  # a lattice of two points repeats one: no parabola
            near = [np.minimum(mid + k, last) for k in (-1, 0, 1)]
            a, b, ga, gb, past_top = self.y[lo], self.y[hi], self.gy[lo], self.gy[hi], i == len(self.slope)
            ys, gys = tuple(self.y[j] for j in near), tuple(self.gy[j] for j in near)
        with np.errstate(over="ignore", invalid="ignore"):
            fb = xs * b - gb
            return a, b, xs * a - ga, fb, past_top | np.isnan(fb), ys, tuple(xs * y - gy for y, gy in zip(ys, gys))


def _golden_max(
    g: Callable[[np.ndarray], np.ndarray], lattice: _Lattice, x: np.ndarray, refuse: Callable[[float], Exception]
) -> tuple[np.ndarray, np.ndarray]:
    """max over y >= base of f(y) = x y - g(y), g convex, and a point
    attaining it, per component of x, PHI_STAR_BLOCK components at a time;
    raises refuse(x) for an x that the lattice cannot bracket.

    The lattice bracket [a, b] holds the maximizer; `_seed` proposes a
    narrower golden bracket [a', b'] inside it.  The quadruple a' < c' < d'
    < b' is kept where f(c') >= f(a') and f(d') >= f(b'): f is concave, so
    its chord slopes fall, and a y < a' has f(y) <= f(a') <= f(c'), a y > b'
    has f(y) <= f(b') <= f(d'), so the sup over [a, b] is the sup over
    [a', b'].  Every other component starts from the neighbours of its
    best point among the lattice ends, the lattice points near its
    maximizer, its seed probes and its quadruple (`_narrowed`): by
    concavity the sup over [a, b] lies between them.

    Golden section then runs over all components together: ends a < b and
    probes c < d, with f known at all four (a new end is always an old
    probe).  Concavity bounds sup f on [a, b] by the chord lines of (a, c),
    (c, d) and (d, b) extended: with the golden proportions (c - a)/(d - c)
    = 1/r and (d - c)/(c - a) = r, r = 0.618..., it is at most max(fc, fd) +
    max(|fc - fd|/r, r min(fc - fa, fd - fb)).  Every GOLDEN_CHECK steps a
    component whose bound exceeds best = max(fa, fc, fd, fb) by at most
    GOLDEN_TOL (1 + |best|) stops and leaves the working arrays;
    GOLDEN_ITERS steps stop any component.  The result is the best of the
    four points.  A component's probes, steps and value depend only on g,
    the lattice and its own x, and every probe lies in its lattice bracket.
    """
    val, arg = np.empty_like(x), np.empty_like(x)
    for i in range(0, len(x), PHI_STAR_BLOCK):
        block = slice(i, i + PHI_STAR_BLOCK)
        val[block], arg[block] = _golden_block(g, lattice, x[block], refuse)
    return val, arg


def _g_rows(g: Callable[[np.ndarray], np.ndarray], rows: tuple) -> list:
    """g at each array of rows: one call per run of neighbouring arrays
    that together hold at most PHI_STAR_BLOCK points, so that a call on a
    few x batches all of a stage's probes while no temporary exceeds 64 KiB."""
    out, run = [], []
    for y in (*rows, None):
        if run and (y is None or sum(map(len, run)) + len(y) > PHI_STAR_BLOCK):
            gy, at = g(np.concatenate(run)), 0
            for v in run:
                out.append(gy[at : at + len(v)])
                at += len(v)
            run = []
        if y is not None:
            run.append(y)
    return out


def _narrowed(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray, points: list) -> tuple[np.ndarray, ...]:
    """(lo, hi, f(lo), f(hi)) per component: the neighbours p_(i-1), p_(i+1)
    of the best point p_i among a, b and `points` in [a, b], which are
    (j, y, f) triples of component positions, points and f at them (a point
    where f is NaN is skipped).  f is concave, so a y < p_(i-1) has f(y) <=
    f(p_(i-1)) <= f(p_i) and a y > p_(i+1) has f(y) <= f(p_(i+1)) <= f(p_i):
    the sup over [a, b] is the sup over [p_(i-1), p_(i+1)], and an end that
    is p_i is its own neighbour."""
    points = [(np.arange(len(a)), a, fa), *points]
    p, fp = b.copy(), fb.copy()
    for j, y, f in points:
        up = f > fp[j]
        p[j[up]], fp[j[up]] = y[up], f[up]
    lo, hi, flo, fhi = a.copy(), b.copy(), fa.copy(), fb.copy()
    for j, y, f in points:
        known = ~np.isnan(f)
        below, above = known & (y < p[j]) & (y > lo[j]), known & (y > p[j]) & (y < hi[j])
        lo[j[below]], flo[j[below]] = y[below], f[below]
        hi[j[above]], fhi[j[above]] = y[above], f[above]
    return lo, hi, flo, fhi


def _seed(
    g: Callable[[np.ndarray], np.ndarray], lattice: _Lattice, x: np.ndarray, refuse: Callable[[float], Exception]
) -> tuple[np.ndarray, ...]:
    """(a, w, fa, fb, fc, fd): the golden quadruple a < c < d < a + w
    that each component starts from, seeded by parabolic steps where the
    concavity check of `_golden_max` confirms the seed, else the part of
    its lattice bracket [a, b] next to its best probe; raises refuse(x) for
    an x that the lattice cannot bracket.

    Round 0 fits the parabola through the three lattice points around the
    maximizer, where g is cached.  Each of SEED_ROUNDS rounds fits it
    through m - h, m, m + h around the last vertex m, moved inside [a, b],
    with h = s = SEED_WIDTH sqrt(GOLDEN_TOL (1 + |f|) / |f''|) from the
    last fit: over h the parabola's second difference is SEED_WIDTH^2
    times the certificate's allowance, so rounding moves its curvature by
    a few percent at most, and a round is a Newton step.  A component gives up its seed when a fit is
    not strictly concave or not finite, when 2 s exceeds b - a, or when s
    more than doubles in a round: a curvature that falls by 4 is rounding
    on a linear piece (a kink, a plateau).  The seeded quadruple spans
    [m - s/2, m + s/2], moved inside [a, b].

    A component that falls back, in a round or at the check, starts from
    [p_(i-1), p_(i+1)], the neighbours of its best point p_i among a, b,
    the three lattice points and the probes it was evaluated at: those of
    the round it gave up in, or the last round's and its quadruple's
    (`_narrowed`).  Only the probes of the components that leave a round
    are kept for this.

    Each round evaluates its probes together (`_g_rows`).  The seeded
    quadruples share a last evaluation with the probes c and d of the
    components that gave up, and seeded quadruples that fail the check
    make one more for theirs.
    """
    a, b, fa, fb, unbracketed, near, f_near = lattice.bracket(g, x)
    if np.any(unbracketed):
        raise refuse(float(x[np.argmax(unbracketed)]))
    w = b - a

    def fall_back(idx: np.ndarray, probes: list) -> None:
        """Narrow the brackets of the components idx (`_narrowed`)."""
        pos = np.empty(len(x), dtype=np.intp)
        pos[idx] = np.arange(len(idx))
        every = np.arange(len(idx))
        points = [(every, y[idx], f[idx]) for y, f in zip(near, f_near)] + [(pos[i], y, f) for i, y, f in probes]
        lo, hi, fa[idx], fb[idx] = _narrowed(a[idx], b[idx], fa[idx], fb[idx], points)
        a[idx], w[idx] = lo, hi - lo

    live, xl, al, bl, wl = np.arange(len(x)), x, a, b, w
    ys, fs, gave_up = near, f_near, []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rnd in range(SEED_ROUNDS + 1):
            if rnd:
                h = s
                lo = np.maximum(np.minimum(m - h, bl - 2.0 * h), al)
                ys = (lo, lo + h, np.minimum(lo + 2.0 * h, bl))
                fs = [xl * y - gy for y, gy in zip(ys, _g_rows(g, ys))]
            round_live = live
            (y0, y1, y2), (f0, f1, f2) = ys, fs
            d1 = (f1 - f0) / (y1 - y0)
            curv = 2.0 * ((f2 - f1) / (y2 - y1) - d1) / (y2 - y0)  # f'' of the parabola
            m = 0.5 * (y0 + y1) - d1 / curv
            s = SEED_WIDTH * np.sqrt(GOLDEN_TOL * (1.0 + np.abs(f1)) / -curv)
            keep = (s > 0.0) & (2.0 * s < wl)  # a finite s > 0 needs finite f and curv < 0, so a finite m
            if rnd:
                keep &= s < 2.0 * h  # a curvature under a quarter of the last is rounding: a kink or a plateau
            if not keep.all():
                if rnd:  # round 0's probes are the lattice points that every fallback takes
                    gone = ~keep
                    gave_up += [(live[gone], y[gone], f[gone]) for y, f in zip(ys, fs)]
                live, xl, al, bl, wl, m, s = (v[keep] for v in (live, xl, al, bl, wl, m, s))
            if not len(live):
                break
    rest = np.ones(len(x), dtype=bool)
    rest[live] = False
    rest = np.flatnonzero(rest)
    if len(rest):
        fall_back(rest, gave_up)
    qa = np.maximum(np.minimum(m - 0.5 * s, bl - s), al)
    ar, wr, xr = a[rest], w[rest], x[rest]
    quad = (qa, qa + _INVPHI2 * s, qa + _INVPHI * s, np.minimum(qa + s, bl))
    rows = (*quad, ar + _INVPHI2 * wr, ar + _INVPHI * wr)
    fqa, fqc, fqd, fqb, fcr, fdr = (xv * y - gy for xv, y, gy in zip((xl,) * 4 + (xr,) * 2, rows, _g_rows(g, rows)))
    fc, fd = np.empty_like(x), np.empty_like(x)
    fc[rest], fd[rest] = fcr, fdr
    kept = (fqc >= fqa) & (fqd >= fqb)
    if not kept.all():
        failed = ~kept
        late = live[failed]
        at = np.searchsorted(round_live, late)  # where the last round's probes hold them
        probes = [(late, y[at], f[at]) for y, f in zip(ys, fs)]
        fall_back(late, probes + [(late, y[failed], f[failed]) for y, f in zip(quad, (fqa, fqc, fqd, fqb))])
        rows = (a[late] + _INVPHI2 * w[late], a[late] + _INVPHI * w[late])
        fc[late], fd[late] = (x[late] * y - gy for y, gy in zip(rows, _g_rows(g, rows)))
    won = live[kept]
    a[won], w[won], fa[won], fb[won], fc[won], fd[won] = qa[kept], s[kept], fqa[kept], fqb[kept], fqc[kept], fqd[kept]
    return a, w, fa, fb, fc, fd


def _golden_block(
    g: Callable[[np.ndarray], np.ndarray], lattice: _Lattice, x: np.ndarray, refuse: Callable[[float], Exception]
) -> tuple[np.ndarray, np.ndarray]:
    """`_golden_max` on one block."""

    def f(y: np.ndarray) -> np.ndarray:
        return x * y - g(y)

    a, w, fa, fb, fc, fd = _seed(g, lattice, x, refuse)

    val, arg = np.empty_like(x), np.empty_like(x)
    live = np.arange(len(x))
    for step in range(GOLDEN_ITERS + 1):
        if step % GOLDEN_CHECK == 0 or step == GOLDEN_ITERS:
            hi = np.maximum(fc, fd)
            best = np.maximum(hi, np.maximum(fa, fb))
            with np.errstate(invalid="ignore"):  # -inf - -inf where g overflows at two points: not done
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
        a += _INVPHI2 * w * ~left  # c - a = r^2 w; a and w are this call's own arrays
        w *= _INVPHI
        f_fresh = f(a + w * (_INVPHI - _INVPHI3 * left))  # at the new c (left) or the new d
        fc, fd = np.where(left, f_fresh, fd), np.where(left, fc, f_fresh)
    return val, arg


def _phi_star_impl(w: WeightFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup_{y>=0} (x y - phi(y)) per component, with the maximizer.

    The objective is concave in y (phi is convex): the lattice of w brackets
    each maximizer, then `_golden_max`.  An x that no chord slope of phi
    below y = 8 * 2^64 reaches has an unbounded conjugate (omega is at most
    logarithmic).
    """

    def refuse(bad: float) -> Exception:
        return UnboundedConjugate(f"{w.name}: no finite bracket for the conjugate at x={bad:.6g}")

    return _golden_max(w.phi, w._lattice, xs, refuse)


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
    the counts read (`log_tail_after`).  Past the array (conjugate lattice
    points and golden probes in seq_K) the sup is taken over real k >= n of
    the sequence's own evaluator (`_far`): a lattice over k with base n
    brackets it and the certified golden section of phi_star finds it.
    """

    ARRAY_START = 4096
    ARRAY_CAP = 2**17

    def __init__(self, seq: WeightSeq):
        if not seq.is_weight_seq:
            if not math.isfinite(seq.max_index):
                raise NotAWeightSequence(f"{seq.name}: not declared log-convex, and no finite table to take the hull of")
            seq = log_convex_minorant(seq, int(seq.max_index))
        self.seq = seq
        self._lock = threading.Lock()
        # cover log mu_J >= 55: with 4096 terms the fitted far tail moves K-power by 2.9e-4
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
        tail = tail_sums(self.seq, 1, n + 1, n).at  # read at c + 1 for the counts c = 0..n
        tail_p = _tail_exponent(log_mu)  # the far branch's, fitted once per array
        self._n, self._vals, self._log_mu, self._tail, self._tail_p = n, vals, log_mu, tail, tail_p
        top = FAR_LATTICE_TOP
        if math.isfinite(self.seq.max_index):  # no chunk reaches past the last index
            top = min(top, math.floor(LATTICE_STEPS * math.log2(max(self.seq.max_index, 1.0))))
        self._far_lattice = _Lattice(float(n), top, doubling=True)

    def ensure_cover(self, max_log_t: float) -> None:
        with self._lock:
            vals = self._grown(self._vals, max_log_t)
            if len(vals) - 1 > self._n:
                self._set(vals)

    # -- evaluation ---------------------------------------------------------

    def _far(self, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sup_{k >= n} (k y - log M_k), its k) for y past the array's last
        quotient, where k* >= n: the conjugate of the sequence's own evaluator
        over real k, whose objective is concave in k.  The lattice with base
        n brackets each maximizer, `_golden_max` finds it, and the better of
        floor(k) and ceil(k) is the integer sup.  A y that no chord slope of
        log M within the float range reaches raises TruncationExhausted.
        """
        n = float(self._n)

        def refuse(bad: float) -> Exception:
            return TruncationExhausted(f"{self.seq.name}: associated function at y = {bad:.6g} has no finite bracket")

        with np.errstate(over="ignore", invalid="ignore"):  # log M_k overflows only near the top
            _, k = _golden_max(self.seq.log_m, self._far_lattice, log_t, refuse)
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

    def log_tail_after(self, counts: np.ndarray) -> LogBracket:
        """(log_lo, log_hi) bracketing sum_{j > c} 1/mu_j at integer counts
        c = 0..n: `log_tail_bracket(seq, c + 1, n)`, read from the array's
        `SuffixSums` at these counts only."""
        return self._tail(np.asarray(counts, dtype=np.int64) + 1)

    def log_tail_mid_after(self, kstar: np.ndarray, log_t: np.ndarray) -> np.ndarray:
        """Log of the midpoint of sum_{j > k*} 1/mu_j for the counts k* = k*(y)
        at an array of y = log t."""
        kstar, log_t = np.asarray(kstar, dtype=float), np.asarray(log_t, dtype=float)
        out = np.zeros_like(kstar)
        near = kstar <= self._n  # the tail bracket is read at counts 0..n
        out[near] = _log_mid(*self.log_tail_after(kstar[near]))
        far = ~near
        if np.any(far):
            # the power-law remainder k / ((p-1) mu_k) of `_tail_exponent`,
            # with log mu_k* <= y < log mu_{k*+1}
            p = self._tail_p
            out[far] = np.inf if p is None else np.log(kstar[far] / (p - 1.0)) - log_t[far]
        return out


def omega_from_seq(seq: WeightSeq) -> WeightFn:
    """Associated function of a positive sequence with M_k^{1/k} -> infinity;
    one not declared log-convex needs a finite table (`_AssocEvaluator`)."""
    growth = trend_to_infinity(seq.values(int(min(512, seq.max_index)))[1:] / np.arange(1, int(min(512, seq.max_index)) + 1))
    if growth.fails:
        raise NotAWeightSequence(f"{seq.name}: M_k^{{1/k}} appears bounded, associated function degenerates")
    ev = _AssocEvaluator(seq)
    return WeightFn(
        f"omega[{seq.name}]",
        lambda ys: ev.eval(ys)[0],
        normalized=bool(ev.eval(np.zeros(1))[0][0] == 0.0),  # omega_M = 0 on [0, 1] iff every M_k >= 1
        assoc=ev,
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
    )


# -- integral transforms -----------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _in_order(x: np.ndarray) -> float:
    """0.0 + x_0 + x_1 + ..., left to right: `ndarray.sum` is pairwise, and
    the builtin `sum` of floats is compensated from Python 3.12 on."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def _quadrature(g: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> tuple[float, float]:
    """Integral of g(u) over [edges[0], edges[-1]] (0 when edges is empty),
    with an error bound.

    The one adaptive engine behind kappa and P: bisection of the open panels
    with a fixed Gauss-Legendre rule.  A panel's error is its difference from
    the sum of its two halves; the panels given each start with the share
    QUAD_ABS_TOL / (len(edges) - 1) of the tolerance, and every pass halves
    it, since every open panel has then been bisected as often.  A pass adds
    the sum of the panels it closes, in order, to the total.  Once more than
    PANEL_BUDGET panels (read at call time) have been evaluated, the open
    panels are summed as they are and the bound widens by
    max(QUAD_ABS_TOL, 1e-8 * sum of |open panels|).  The bound includes
    4e-15 |value| for the rounding of the sums.  Deterministic by
    construction.
    """

    def panels(lo_: np.ndarray, hi_: np.ndarray) -> np.ndarray:
        half = 0.5 * (hi_ - lo_)
        pts = (0.5 * (lo_ + hi_))[:, None] + half[:, None] * _GL_NODES[None, :]
        return half * (g(pts.ravel()).reshape(pts.shape) @ _GL_WEIGHTS)

    lo, hi = edges[:-1], edges[1:]
    if not len(lo):
        return 0.0, 0.0
    vals = panels(lo, hi)
    share, n_panels = QUAD_ABS_TOL / len(lo), len(lo)
    val = err = 0.0
    for _ in range(64):
        if not len(lo) or n_panels > PANEL_BUDGET:
            break
        mid = 0.5 * (lo + hi)
        halves = panels(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[: len(lo)], halves[len(lo) :]
        refined = left + right
        perr = np.abs(vals - refined)
        done = perr <= share
        val += _in_order(refined[done])
        err += _in_order(perr[done])
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        vals = np.concatenate([left[keep], right[keep]])
        share *= 0.5
        n_panels += len(vals)
    if len(lo):
        val += _in_order(vals)
        err += max(QUAD_ABS_TOL, 1e-8 * _in_order(np.abs(vals)))
    return val, err + 4e-15 * abs(val)


def _cutoff(env: Envelope, y: float, c: float) -> float:
    """Cutoff U at y = log x: `_envelope_tail(env, y, U, c)` is below
    QUAD_ABS_TOL (each of its two terms below half of it), and U >= 4."""
    th, tol = env.theta, QUAD_ABS_TOL
    u_a = math.log(max(2 * c * env.a / tol, 1.0) + 1.0)
    log_b = math.log(2 * c * env.b / ((1 - th) * tol)) if env.b > 0 else -math.inf
    u_b = np.logaddexp(max(th * y + log_b, 0.0), 0.0) / (1 - th)
    return float(max(u_a, u_b, 4.0))


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
    U = _cutoff(env, y, 1.0)
    val, err = _quadrature(lambda u: w.phi(y + u) * np.exp(-u), _initial_edges(w, 0.0, U, y))
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

    The evaluator's M is log-convex (an undeclared table's minorant), so
    the associated function is piecewise linear in log s with breakpoints
    at the quotients, and the transform telescopes to
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
    if w.assoc is not None:
        kinks = w.assoc._log_mu[:64] - y
        kinks = kinks[(kinks > L + 1e-9) & (kinks < U - 1e-9)]
        edges = np.sort(np.concatenate([edges, kinks]))
        edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    return edges


def _poisson_bracket(w: WeightFn, env: Envelope, y: float) -> Interval:
    """The P(ir) bracket at y = log r.

    P(ir) = (2/pi) int_0^inf omega(rs)/(1+s^2) ds becomes, after s = e^u,
    (1/pi) int phi(log r + u) sech(u) du, integrated over [L, U].  For a
    normalized omega the integrand vanishes for log r + u <= 0, so L = -log r;
    otherwise L is where the part below it is under QUAD_ABS_TOL, and that
    part is bracketed by [0, (2/pi) phi(log r + L) e^L].  The part beyond
    U = max(cutoff, L) is bracketed by [0, envelope tail], so a radius with
    nothing between L and U still gets a certified bracket.
    """
    c = 2.0 / math.pi
    if w.normalized:
        L, below = -y, 0.0
    else:
        L = -float(np.log(max(w.phi(y), 1.0) / QUAD_ABS_TOL) + 2.0)
        below = c * w.phi(y + L) * float(np.exp(L))
    U = max(_cutoff(env, y, c), L)
    val, err = _quadrature(lambda u: w.phi(y + u) / (np.pi * np.cosh(u)), _initial_edges(w, L, U, y))
    return Interval(max(val - err, 0.0), val + err + float(_envelope_tail(env, y, U, c)) + below)


def poisson_interval(w: WeightFn, r: float) -> Interval:
    """Bracketed harmonic extension P(ir) on the imaginary axis, with
    envelope-certified cutoffs at absolute tolerance 1e-10; see
    `_poisson_bracket`."""
    env = _require_envelope(w, "poisson")
    if r <= 0:
        raise ValueError("the harmonic extension is evaluated at ir with r > 0")
    return _poisson_bracket(w, env, math.log(r))


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
        `_ti2_series`, which is at most x^11/121 <= 7.8e-16 x above each term;
        the lower end of the bracket subtracts that remainder.  Core and band
        are summed together, P_CHUNK terms at a time;
      - the first-order part, the rest: mu_j / r (a prefix log-sum) below and
        r T (the tail bracket) above, off by at most e^(-2 P_WINDOW)/9
        relative as x - x^3/9 <= Ti2(x) <= x, which the lower end takes off.
        Past the array, Ti2(x)/x >= Ti2(x_J)/x_J with x_J = r/mu_J takes its
        place; a finite M has no terms there.
    A radius beyond the last quotient of an array at its cap raises
    TruncationExhausted.
    """
    ev = w.assoc
    if ev is None:
        raise ValueError(f"{w.name} is not sequence-associated")
    ev.ensure_cover(float(np.max(ys, initial=-np.inf)) + P_WINDOW)
    log_mu, n = ev._log_mu, ev._n
    complete = n == ev.seq.max_index
    if not complete and np.any(ys > log_mu[-1]):
        raise TruncationExhausted(f"{ev.seq.name}: P at log r = {float(np.max(ys)):.6g}, past the {n}-term array")
    i_lo = np.searchsorted(log_mu, ys - P_WINDOW, side="left")
    i_hi = np.searchsorted(log_mu, ys + P_WINDOW, side="right")
    offsets = np.concatenate([[0], np.cumsum(i_hi - i_lo)])
    window, band_rem = np.zeros(len(ys)), np.zeros(len(ys))
    for start in range(0, int(offsets[-1]), P_CHUNK):
        term = np.arange(start, min(start + P_CHUNK, int(offsets[-1])))
        at = np.searchsorted(offsets, term, side="right") - 1  # the radius of each term
        dist = np.abs(ys[at] - log_mu[i_lo[at] + term - offsets[at]])
        x = np.exp(-dist)
        core = dist <= P_CORE
        ti2 = _ti2_series(x)
        ti2[core] = _ti2(x[core])
        window += np.bincount(at, ti2, minlength=len(ys))
        band = ~core
        band_rem += np.bincount(at[band], x[band] ** 11, minlength=len(ys))
    band_rem /= 121.0

    below = np.exp(np.concatenate([[-np.inf], np.logaddexp.accumulate(log_mu[: i_lo.max(initial=0)])])[i_lo] - ys)
    past = i_hi == n
    tail_lo, tail_hi = ev.log_tail_after(i_hi)
    above_lo = np.where(past & complete, 0.0, np.exp(ys + tail_lo))
    above_hi = np.where(past & complete, 0.0, np.exp(ys + tail_hi))
    above = 0.5 * (above_lo + above_hi)
    first_order = 1.0 - math.exp(-2.0 * P_WINDOW) / 9.0
    x_last = np.exp(np.minimum(ys - log_mu[-1], 0.0))
    above_lo *= np.where(past, np.divide(_ti2(x_last), x_last, out=np.ones_like(ys), where=x_last > 0), first_order)

    c = 2.0 / math.pi
    windowed = ev.eval(ys)[0] + c * window
    if w.include_log_term:
        windowed = windowed + 2.0 * np.logaddexp(0.0, ys)
    p = windowed + c * (below + above)
    err = 1e-14 * np.abs(p)  # rounding: summing up to 1.3e5 core and band terms in order measured below 2.7e-15 |P|
    return p, windowed + c * (first_order * below + above_lo - band_rem) - err, windowed + c * (below + above_hi) + err


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
        return np.maximum(w._phi(np.maximum(ys, 0.0)) - c, 0.0)  # phi(0) - c = 0 for y <= 0

    # plateau end: double y from 1e-6 (at most DOUBLINGS times) while phi stays at c, then bisection
    hi = 1e-6
    while float(w.phi(hi)) <= c:
        if hi >= 1e-6 * 2.0**DOUBLINGS:
            raise UnboundedConjugate(f"{w.name}: constant up to y = {hi:.3g}, the normalized conjugate is unbounded")
        hi *= 2.0
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
    )


def _kappa_of(w: WeightFn) -> Callable[[np.ndarray], np.ndarray]:
    """kappa at an array of y = log t: through the attached closed form when
    there is one, else the piecewise closed form of an associated function,
    else the midpoint of the quadrature bracket at each point (which needs
    an envelope)."""
    if w.kappa_ref is not None:
        return w.kappa_ref
    if w.assoc is not None:
        return lambda ys: _kappa_assoc(w, ys)
    env = _require_envelope(w, "kappa")
    return lambda ys: np.array([_kappa_bracket(w, env, float(y)).mid for y in ys])


def kappa_fn(w: WeightFn) -> WeightFn:
    """kappa as a WeightFn (normalized representative), for chaining
    transforms, evaluated as `_kappa_of` chooses."""
    raw = _kappa_of(w)
    c = float(raw(np.array([0.0]))[0])

    def phi_vec(ys: np.ndarray) -> np.ndarray:
        return np.maximum(raw(np.maximum(ys, 0.0)) - c, 0.0)  # raw(0) - c = 0 for y <= 0

    env = w.envelope  # kappa(t) <= a + b t^th / (1-th)
    kap_env = None if env is None else Envelope(env.theta, env.a, env.b / (1 - env.theta))
    return WeightFn(
        f"kappa({w.name})",
        phi_vec,
        envelope=kap_env,
        normalized=True,
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
    the normalized representative; for integer n the member n at k is
    member 1 at n k divided by n: log M^(n)_k = log M^(1)_(nk) / n.

    So log M^(alpha)_k = log M^(alpha/2)_(2k) / 2, and exactly so in floats:
    alpha/2 and 2k are exact, so fl((alpha/2)(2k)) = fl(alpha k) and the
    conjugate is the same number v (its value depends only on phi and x);
    the member alpha/2 holds fl(v/(alpha/2)) = 2 fl(v/alpha), and halving
    it is exact (scaling by 2 is, away from overflow and subnormals).  A
    member made after the member at half its parameter therefore takes
    log M_k, for every integer k >= 1 with 2k inside the prefix that member
    has cached when k is evaluated (`WeightSeq.cached_values`), as that
    value halved, and evaluates the conjugate only at the other indices.
    The values are the same bit for bit in any order; making and growing
    the members in ascending order only makes them cheaper.
    """
    wn = normalize_fn(w)
    built: dict[float, WeightSeq] = {}

    def make(alpha: float) -> WeightSeq:
        half = built.get(alpha / 2)

        def ev(kk: np.ndarray) -> np.ndarray:
            prefix = np.empty(0) if half is None else half.cached_values()
            shared = (kk >= 1) & (2 * kk < len(prefix)) & (kk == np.floor(kk))
            out = np.empty_like(kk)
            out[shared] = prefix[2 * kk[shared].astype(np.int64)] / 2
            out[~shared] = phi_star(wn, alpha * kk[~shared]) / alpha
            return out

        built[alpha] = WeightSeq(f"M[{w.name};a={alpha:g}]", ev, is_weight_seq=True)
        return built[alpha]

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
    [4, 1e8] (trend), with kappa evaluated as `_kappa_of` chooses."""
    t_grid = log_t_grid(4.0, 1e8, 40)
    kap = _kappa_of(omega)(np.log(t_grid))
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
