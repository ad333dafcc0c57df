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
     omega_M + log(1+t^2).
  Q: the moment-problem weights log Q_k = sup_r ((k+1/2) log r - P(ir)/2)
     with P the harmonic extension of the same function (`poisson_batch`).

Tail uncertainty: the tails enter as log brackets (`tail_mids`).  L and S
use the log of the bracket's arithmetic midpoint and re-evaluate with both
endpoints; the observed spread is attached to the result so that downstream
verdicts can widen their slack.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from . import _kernels
from .errors import MaximizerUnbounded, TruncationExhausted
from .func_core import (
    DOUBLINGS,
    WeightFn,
    WeightMatrix,
    _kappa_assoc,
    kappa_assoc,
    omega_tilde_from_seq,
    phi_star,
    poisson_batch,
)
from .seq_core import WeightSeq, log_convex_minorant, require_weight_seq, tail_mids
from .verdicts import Status

__all__ = ["seq_L", "seq_S", "seq_K", "seq_Q", "seq_underline_L", "derive_family", "FAMILY_NAMES"]

FAMILY_NAMES = ("L", "underlineL", "S", "K", "Q")

Q_GRID_START = (math.log(1e-2), math.log(1e6))
Q_GRID_DX = 0.1
Q_TABLE_CELLS = 2**18


def _tilde(m: WeightSeq) -> WeightFn:
    if not hasattr(m, "_tilde_fn"):
        m._tilde_fn = omega_tilde_from_seq(m)
    return m._tilde_fn


def seq_L(m: WeightSeq, n: int) -> WeightSeq:
    """The Borel-optimal derived sequence; see module docstring.

    The inner minimization is one quotient search (`_kernels.min_chord`;
    log M is convex, so the minimizer is fixed by the quotients).  Attaches
    `.spread`: the largest log deviation when the tail midpoint is replaced
    by either bracket endpoint.
    """
    require_weight_seq(m, "seq_L")
    t_lo, t_mid, t_hi = tail_mids(m, n)
    vals = m.values(n)
    log_k = np.log(np.arange(1, n + 1, dtype=float))

    def build(log_tails: np.ndarray) -> np.ndarray:
        return _kernels.min_chord(vals, np.concatenate([[0.0], log_k - log_tails]))

    center = build(t_mid)
    spread = 0.0
    if float(np.max(t_hi - t_lo)) > 0:
        spread = float(max(np.max(np.abs(build(t_lo) - center)), np.max(np.abs(build(t_hi) - center))))
    out = WeightSeq.from_values(f"L({m.name})", center, note=f"tail spread {spread:.3g} (log)")
    out.spread = spread
    return out


def seq_underline_L(m: WeightSeq, n: int) -> WeightSeq:
    """Log-convex minorant of L, derived with the hull look-ahead buffer."""
    buffer = max(16, n // 4)
    big = seq_L(m, n + buffer)
    out = log_convex_minorant(big, n)
    out.name = f"uL({m.name})"
    out.spread = big.spread
    out.is_weight_seq = True
    return out


def seq_S(m: WeightSeq, n: int) -> WeightSeq:
    """The strongly log-convex derived sequence built from tau_k = k/mu_k + T_k.

    Exposes `.sigma_log` (log sigma_1..sigma_n), `.tau` (tau_1..tau_n),
    `.rescale_c` (the constant making sigma <= mu on the truncation), and
    `.spread` for the tail bracket.
    """
    require_weight_seq(m, "seq_S")
    t_lo, t_mid, t_hi = tail_mids(m, n)
    log_k = np.log(np.arange(1, n + 1, dtype=float))
    log_k_over_mu = log_k - m.log_mu(n)

    def build(log_tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        log_tau = np.logaddexp(log_k_over_mu, log_tails)
        sigma_log = log_tau[0] + log_k - log_tau
        return np.concatenate([[0.0], np.cumsum(sigma_log)]), log_tau

    center, log_tau = build(t_mid)
    spread = 0.0
    if float(np.max(t_hi - t_lo)) > 0:
        spread = float(max(np.max(np.abs(build(t_lo)[0] - center)), np.max(np.abs(build(t_hi)[0] - center))))
    out = WeightSeq.from_values(f"S({m.name})", center, is_weight_seq=True, note=f"tail spread {spread:.3g} (log)")
    out.sigma_log = np.diff(center)
    out.tau = np.exp(log_tau)
    out.spread = spread
    out.rescale_c = float(max(1.0, np.exp(np.max(out.sigma_log - m.log_mu(n)))))
    return out


def seq_K(m: WeightSeq, n: int) -> WeightSeq:
    """Conjugate-of-kappa derived sequence: log K_j = phi*_kappa-hat(j).

    kappa is evaluated through the exact piecewise form for
    sequence-associated functions and normalized so that K_0 = 1 exactly
    (subtract kappa(1), clamp to zero on [0,1]).
    """
    require_weight_seq(m, "seq_K")
    tail_mids(m, 1)  # raises DivergentTail for a quasianalytic input
    w = _tilde(m)
    c = float(kappa_assoc(w, 1.0))

    def khat(ys: np.ndarray) -> np.ndarray:
        return np.where(ys <= 0.0, 0.0, np.maximum(_kappa_assoc(w, ys) - c, 0.0))

    khat_fn = WeightFn(f"kappahat[{m.name}]", khat, normalized=True)
    logk = phi_star(khat_fn, np.arange(0, n + 1, dtype=float))
    logk[0] = 0.0
    out = WeightSeq.from_values(f"K({m.name})", logk, is_weight_seq=True,
                                note="K_j/M_j stays bounded; conjugate of the averaged associated function")
    return out


def seq_Q(m: WeightSeq, n: int) -> WeightSeq:
    """Moment-problem weights via a common grid of y = log r.

    log Q_k = max over the grid of ((k+1/2) y - P(ie^y)/2): exactly log-convex.
    The grid starts as [log 1e-2, log 1e6], step Q_GRID_DX; each end doubles
    while a maximizer touches it, until a radius passes the last quotient of
    the capped array (MaximizerUnbounded).  A finite M with J quotients is
    refused when 2n + 1 >= J + 2: P grows with slope J + 2, so Q_n = inf.
    Raw values are kept in `.log_q_raw`; the returned sequence is divided by
    Q_0 to restore M_0 = 1, which stays in the equivalence class.
    """
    require_weight_seq(m, "seq_Q")
    tail_mids(m, 1)  # raises DivergentTail for a quasianalytic input
    if 2 * n + 1 >= m.max_index + 2:
        raise MaximizerUnbounded(f"seq_Q({m.name}): P grows with slope {m.max_index + 2:g}, so Q_{n} is infinite")
    w = _tilde(m)

    dx = Q_GRID_DX
    i_lo = math.ceil(Q_GRID_START[0] / dx)
    i_hi = math.floor(Q_GRID_START[1] / dx)
    ks = np.arange(0, n + 1, dtype=float) + 0.5
    for _ in range(DOUBLINGS):
        rho = np.arange(i_lo, i_hi + 1) * dx
        try:
            p_half = 0.5 * poisson_batch(w, rho)
        except TruncationExhausted as e:
            raise MaximizerUnbounded(f"seq_Q({m.name}): radial sup still increasing; {e}") from None
        rows = max(1, Q_TABLE_CELLS // len(rho))  # the table is built 2 MB at a time
        arg = np.concatenate([np.argmax(np.outer(ks[i : i + rows], rho) - p_half[None, :], axis=1)
                              for i in range(0, len(ks), rows)])
        at_right = arg.max() >= len(rho) - 2
        at_left = arg.min() <= 1
        if not (at_right or at_left):
            break
        if at_right:
            i_hi *= 2
        if at_left:
            i_lo *= 2
    else:
        raise MaximizerUnbounded(f"seq_Q({m.name}): radial sup still at the grid ends after {DOUBLINGS} doublings")
    log_q = ks * rho[arg] - p_half[arg]

    out = WeightSeq.from_values(
        f"Q({m.name})",
        log_q - log_q[0],
        is_weight_seq=True,
        note=f"normalized by log Q_0 = {log_q[0]:.6g}; sup over log r grid [{i_lo * dx:.6g}, {i_hi * dx:.6g}], dx={dx}",
    )
    out.log_q_raw = log_q
    return out


_CONSTRUCTORS = {
    "L": seq_L,
    "underlineL": seq_underline_L,
    "S": seq_S,
    "K": seq_K,
    "Q": seq_Q,
}


def derive_family(mat: WeightMatrix, which: Literal["L", "underlineL", "S", "K", "Q"], n: int) -> WeightMatrix:
    """Apply a derived construction memberwise over the matrix grid.

    The result need not satisfy the strict matrix monotonicity invariant;
    a violation is recorded as a warning rather than an error.
    """
    if which not in _CONSTRUCTORS:
        raise ValueError(f"unknown construction {which!r}; pick one of {FAMILY_NAMES}")
    build = _CONSTRUCTORS[which]
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
    spreads = {f"{a:g}": getattr(fam.member(a), "spread", None) for a in fam.grid}
    if any(v is not None for v in spreads.values()):
        fam.provenance["tail_spread"] = spreads
    if which == "S":
        fam.provenance["sigma_rescale"] = {f"{a:g}": getattr(fam.member(a), "rescale_c", None) for a in fam.grid}
    return fam
