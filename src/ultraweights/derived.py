"""The four derived weight constructions and their family lifts.

Given a non-quasianalytic weight sequence M with quotients mu and tail sums
T_k = sum_{l>=k} 1/mu_l:

  L: L_0 = 1, log L_k = min_{0<=j<k} ((k-j)(log k - log T_k) + log M_j);
     the largest sequence whose coefficient space embeds into the derivative
     image of the class of M.
  S: tau_k = k/mu_k + T_k, sigma_k = tau_1 k / tau_k, S_k = prod sigma_i;
     strongly log-convex, optimal for the extension-problem order.
  K: conjugate of the averaged associated function: K_j =
     exp(phi*_kappa(j)) where kappa is the (normalized) transform of
     omega_M + log(1+t^2), in closed form over the quotients (`seq_K`).
  Q: the moment-problem weights log Q_k = sup_r ((k+1/2) log r - P(ir)/2)
     with P the harmonic extension of the same function (`poisson_batch`),
     taken over the lattice rho = log r = i Q_GRID_DX.

Where the Q maximizers lie.  With k*(rho) = #{j : log mu_j <= rho}, the
slope of P(rho) = omega_M(e^rho) + (2/pi) sum_j Ti2(e^-|rho - log mu_j|)
+ 2 log(1 + e^rho) is

  P'(rho) = k* + (2/pi) sum_j sign(log mu_j - rho) arctan(e^-|rho - log mu_j|)
            + 2/(1 + e^-rho),

as omega_M' = k* and d/drho Ti2(e^-|rho - l|) = -sign(rho - l) arctan(e^-|rho - l|).
P is convex, so g_k(rho) = (k+1/2) rho - P/2 is concave: it rises where
P' < 2k + 1 and falls where P' > 2k + 1.

Left end: below log mu_1, k* = 0, and arctan x <= x and d/drho 2 log(1 +
e^rho) <= 2 e^rho give P'(rho) <= e^rho ((2/pi) T_1 + 2), with T_1 the
upper end of the tail bracket.  So P' < 1, and every g_k rises, left of
rho_L = min(log mu_1, -log((2/pi) T_1 + 2)).

Right end: the terms with log mu_j > rho are positive.  Each of the k*
others is at least -(2/pi) min(pi/4, mu_j e^-rho), since arctan x <=
min(x, pi/4) on [0, 1].  Dropping quotients at or below rho only lowers the
sum (each adds at least 1/2), so for every k <= k*(rho)

  P'(rho) >= s(rho) = k - (2/pi) min(k pi/4, e^-rho sum_{j<=k} mu_j)
                      + 2/(1 + e^-rho) >= k/2.

At rho = log mu_k at least k quotients lie at or below rho, so the first k
with s(log mu_k) > 2n + 1, k <= 4n + 3 as s >= k/2, bounds the maximizer
of every Q_k, k <= n.  A complete finite M with J quotients may meet no
such k; past log mu_J, k* = J and s(rho) >= J + 2 - e^-rho ((2/pi) sum_j
mu_j + 2), which is 2n + 1 at rho_R = log((2/pi) sum_j mu_j + 2) - log(J +
1 - 2n).

Lattice maximum: the samples of P on rho_i = i Q_GRID_DX are convex, so
the first lattice maximizer of g_k is the first i whose slope (P_{i+1} -
P_i)/(2 Q_GRID_DX) reaches k + 1/2: one quotient search for all k.

Where the K maximizers lie.  On the piece log mu_k <= y < log mu_(k+1),
kappa(y) = k y - log M_k + k + e^y T_k + l(y) with l the transform of
log(1+t^2), so

  kappa'(y) = k + e^y T_k + 2 e^y arctan(e^-y),

continuous (at a breakpoint k rises by 1 and e^y T_k falls by 1) and
increasing.  The maximizer of j y - kappa(y) over y >= 0 is 0 where
kappa'(0) >= j, else the root of kappa' = j, in the piece found by one
quotient search of j in kappa' at the piece starts.  For y >= 0 the last
term lies in [pi/2, 2), so kappa' >= k + pi/2 and the root's piece has k <=
j - 2: the associated-function array must reach past it, and grows until
kappa' at its last quotient exceeds n.  The last piece of a complete finite
M runs to +inf, its fitted tail remainder keeping e^y T_k growing.

Tail uncertainty: the tails enter as one `LogRange` (`tail_mids`).  L and S
use its `mid`, the log of the bracket's arithmetic midpoint, and re-evaluate
with both ends; the observed spread is the result's `tail_spread` diagnostic.
The by-products of a construction are read from the result's `diagnostics`
mapping: `tail_spread` (L, underline-L, S), `sigma_rescale` (S) and
`log_q0` (Q); `derive_family` copies the first two into its provenance.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from . import _kernels
from .errors import MaximizerUnbounded, TruncationExhausted
from .func_core import WeightFn, WeightMatrix, kappa_star_assoc, omega_tilde_from_seq, poisson_batch
from .seq_core import LogRange, WeightSeq, log_convex_minorant, require_weight_seq, tail_mids
from .verdicts import Status

__all__ = ["seq_L", "seq_S", "seq_K", "seq_Q", "seq_underline_L", "derive_family", "CONSTRUCTORS", "FAMILY_NAMES"]

Q_GRID_DX = 0.1


def _tilde(m: WeightSeq) -> WeightFn:
    """omega~ of m, built once per sequence (`WeightSeq.tilde`)."""
    return m.tilde(omega_tilde_from_seq)


def _centre_and_spread(build, tails: LogRange) -> tuple[np.ndarray, float]:
    """`build` at the tail bracket's `mid`, and the largest log deviation
    from it when `mid` is replaced by either end (0 for exact tails)."""
    center = build(tails.mid)
    if not float(np.max(tails.hi - tails.lo)) > 0:
        return center, 0.0
    return center, float(max(np.max(np.abs(build(tails.lo) - center)), np.max(np.abs(build(tails.hi) - center))))


def seq_L(m: WeightSeq, n: int) -> WeightSeq:
    """The Borel-optimal derived sequence; see module docstring.

    The inner minimization is one quotient search (`_kernels.min_chord`;
    log M is convex, so the minimizer is fixed by the quotients).  The
    `tail_spread` diagnostic is the largest log deviation when the tail
    midpoint is replaced by either bracket endpoint.
    """
    require_weight_seq(m, "seq_L")
    tails = tail_mids(m, n)
    vals = m.values(n)
    log_k = np.log(np.arange(1, n + 1, dtype=float))

    def build(log_tails: np.ndarray) -> np.ndarray:
        return _kernels.min_chord(vals, np.concatenate([[0.0], log_k - log_tails]))

    center, spread = _centre_and_spread(build, tails)
    return WeightSeq.from_values(f"L({m.name})", center, diagnostics={"tail_spread": spread})


def seq_underline_L(m: WeightSeq, n: int) -> WeightSeq:
    """Log-convex minorant of L, derived with the hull look-ahead buffer;
    keeps the `tail_spread` of that L."""
    big = seq_L(m, n + max(16, n // 4))
    hull = log_convex_minorant(big, n)
    return WeightSeq.from_values(f"uL({m.name})", hull.values(n), is_weight_seq=True, diagnostics=big.diagnostics)


def seq_S(m: WeightSeq, n: int) -> WeightSeq:
    """The strongly log-convex derived sequence built from tau_k = k/mu_k + T_k.

    Diagnostics: `sigma_rescale`, the constant c >= 1 with sigma_k <= c mu_k
    on the truncation, and `tail_spread` for the tail bracket.  sigma is
    read back from the values: log sigma_k = log S_k - log S_{k-1}.
    """
    require_weight_seq(m, "seq_S")
    tails = tail_mids(m, n)
    log_k = np.log(np.arange(1, n + 1, dtype=float))
    log_k_over_mu = log_k - m.log_mu(n)

    def build(log_tails: np.ndarray) -> np.ndarray:
        log_tau = np.logaddexp(log_k_over_mu, log_tails)
        return np.concatenate([[0.0], np.cumsum(log_tau[0] + log_k - log_tau)])

    center, spread = _centre_and_spread(build, tails)
    rescale = float(max(1.0, np.exp(np.max(np.diff(center) - m.log_mu(n)))))
    return WeightSeq.from_values(f"S({m.name})", center, is_weight_seq=True,
                                 diagnostics={"tail_spread": spread, "sigma_rescale": rescale})


def seq_K(m: WeightSeq, n: int) -> WeightSeq:
    """Conjugate-of-kappa derived sequence: log K_j = phi*_kappa-hat(j).

    kappa of omega~ is the exact piecewise form for sequence-associated
    functions, normalized so that K_0 = 1 exactly (subtract kappa(1), clamp
    to zero on [0,1]).  Its conjugate is read in closed form over the
    quotients (`kappa_star_assoc`): on the piece log mu_k <= y < log
    mu_(k+1), kappa'(y) = k + e^y T_k + 2 e^y arctan(e^-y), and log K_j is
    j y - kappa(y) + kappa(0) at the root of kappa' = j, or 0 where kappa'(0)
    >= j; no search over y.  Coverage: the root's piece has k <= j - 2, so
    the associated-function array grows while kappa' at its last quotient
    is <= n; a root past the last quotient of an array at its cap (n >
    2^17 - 1) raises TruncationExhausted, and the last piece of a complete
    finite M runs to +inf.  log K_0 = 0.
    """
    require_weight_seq(m, "seq_K")
    tail_mids(m, 1)  # raises DivergentTail for a quasianalytic input
    logk = np.concatenate([[0.0], kappa_star_assoc(_tilde(m), n)])
    return WeightSeq.from_values(f"K({m.name})", logk, is_weight_seq=True)


def _slope_floor(k, log_sum_mu, rho):
    """s(rho), the lower bound on P'(rho) of the module docstring, valid when
    at least k quotients lie at or below rho; log_sum_mu = log sum_{j<=k} mu_j."""
    return (k - (2.0 / math.pi) * np.minimum(k * (math.pi / 4.0), np.exp(log_sum_mu - rho))
            + 2.0 * np.exp(-np.logaddexp(0.0, -rho)))


def _q_left_end(m: WeightSeq) -> float:
    """rho_L of the module docstring; raises DivergentTail for a quasianalytic input."""
    log_t1 = float(tail_mids(m, 1).hi[0])
    return min(float(m.log_mu(1)[0]), -float(np.logaddexp(math.log(2.0 / math.pi) + log_t1, math.log(2.0))))


def _q_right_end(m: WeightSeq, cap: int, n: int) -> float:
    """A radius rho with s(rho) >= 2n + 1, past which every g_k with k <= n
    decreases: the first log mu_k, k <= 4n + 3, that meets the bound, or,
    for a complete finite M with J quotients, the closed form of the module
    docstring.  `cap` is the length of the associated-function array; a
    capped array too short to meet the bound raises MaximizerUnbounded.
    """
    log_mu = m.log_mu(min(4 * n + 3, cap))
    log_sum = np.logaddexp.accumulate(log_mu)
    met = np.flatnonzero(_slope_floor(np.arange(1, len(log_mu) + 1), log_sum, log_mu) > 2 * n + 1)
    if len(met):
        return float(log_mu[met[0]])
    if cap < m.max_index:
        raise MaximizerUnbounded(f"seq_Q({m.name}): P' stays below {2 * n + 1} on the {cap}-term "
                                 "associated-function array, so no last maximizer is certified")
    log_c = float(np.logaddexp(math.log(2.0 / math.pi) + log_sum[-1], math.log(2.0)))
    return max(float(log_mu[-1]), log_c - math.log(len(log_mu) + 1 - 2 * n))


def seq_Q(m: WeightSeq, n: int) -> WeightSeq:
    """Moment-problem weights: log Q_k = max over the lattice of
    ((k+1/2) rho - P(i e^rho)/2), exactly log-convex.

    P is evaluated once, on the step-Q_GRID_DX lattice from one point left
    of `_q_left_end` to one point right of `_q_right_end` (the closed-form
    slope bounds of the module docstring).  The first lattice maximizer of
    each Q_k is one quotient search over the slopes of P/2 between lattice
    points.  A lattice maximizer at either end raises MaximizerUnbounded, so
    a wrong bound never becomes a grid-end value; so does a radius past the
    last quotient of a capped array.  A finite M with J quotients is refused
    when 2n + 1 >= J + 2: P grows with slope J + 2, so Q_n = inf.  The
    returned sequence is divided by Q_0 to restore M_0 = 1, which stays in
    the equivalence class; the `log_q0` diagnostic holds log Q_0.
    """
    require_weight_seq(m, "seq_Q")
    rho_lo = _q_left_end(m)
    if 2 * n + 1 >= m.max_index + 2:
        raise MaximizerUnbounded(f"seq_Q({m.name}): P grows with slope {m.max_index + 2:g}, so Q_{n} is infinite")
    w = _tilde(m)

    dx = Q_GRID_DX
    rho = np.arange(math.floor(rho_lo / dx) - 1, math.ceil(_q_right_end(m, w.assoc._cap(), n) / dx) + 2) * dx
    try:
        p_half = 0.5 * poisson_batch(w, rho)
    except TruncationExhausted as e:
        raise MaximizerUnbounded(f"seq_Q({m.name}): radial sup needs P past the array; {e}") from None
    ks = np.arange(0, n + 1, dtype=float) + 0.5
    arg = np.searchsorted(np.diff(p_half) / dx, ks, side="left")  # P is convex: the slopes rise
    if arg.min() == 0 or arg.max() >= len(rho) - 1:
        end, log_r = ("left", rho[0]) if arg.min() == 0 else ("right", rho[-1])
        raise MaximizerUnbounded(f"seq_Q({m.name}): lattice maximizer at the certified {end} end log r = {log_r:.6g}")
    log_q = ks * rho[arg] - p_half[arg]

    return WeightSeq.from_values(f"Q({m.name})", log_q - log_q[0], is_weight_seq=True,
                                 diagnostics={"log_q0": float(log_q[0])})


# the derived constructions by family name, in report order
CONSTRUCTORS = {"L": seq_L, "underlineL": seq_underline_L, "S": seq_S, "K": seq_K, "Q": seq_Q}
FAMILY_NAMES = tuple(CONSTRUCTORS)


def derive_family(mat: WeightMatrix, which: Literal["L", "underlineL", "S", "K", "Q"], n: int) -> WeightMatrix:
    """Apply a derived construction memberwise over the matrix grid.

    The result need not satisfy the strict matrix monotonicity invariant;
    a violation is recorded as a warning rather than an error.
    """
    if which not in CONSTRUCTORS:
        raise ValueError(f"unknown construction {which!r}; pick one of {FAMILY_NAMES}")
    build = CONSTRUCTORS[which]
    by_member: dict[int, WeightSeq] = {}  # constant families share one member object

    def make(alpha: float) -> WeightSeq:
        src = mat.member(alpha)
        key = id(src)
        if key not in by_member:
            by_member[key] = build(src, n)
        return by_member[key]

    fam = WeightMatrix(
        f"{which}[{mat.name}]",
        make,
        grid=mat.grid,
        provenance={
            "source": mat.name,
            "construction": which,
            "n": n,
            "grid": [float(a) for a in mat.grid],
        },
    )
    mono = fam.check_monotone(n=min(n, 64))
    if mono.status is not Status.HOLDS:
        fam.warnings.append(f"member monotonicity not satisfied: {mono.note} (tolerated for derived families)")
    for key in ("tail_spread", "sigma_rescale"):
        if key in fam.member(fam.grid[0]).diagnostics:
            fam.provenance[key] = {f"{a:g}": fam.member(a).diagnostics[key] for a in fam.grid}
    return fam
