"""Comparison relations between sequences, functions, and families.

Each check mirrors one displayed condition from the theory as a
Verdict-producing trend test.  Family-level quantifiers (forall alpha exists
beta) resolve over the declared finite grids; every verdict embeds the grids
and the pairing it found, so reports are self-describing.  Implication
checks never manufacture alarms from heuristic outcomes: an Inconclusive
antecedent or consequent downgrades the implication to a skip.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import DivergentTail
from .func_core import WeightMatrix
from .seq_core import WeightSeq, require_weight_seq, seq_preceq, tail_mids
from .verdicts import (
    Status,
    Verdict,
    combine_all,
    first_holding,
    trend_bounded,
    trend_liminf_positive,
)

__all__ = [
    "prec_SV",
    "prec_gamma1",
    "cond_Mmg",
    "matrix_braces_preceq",
    "r_moderate_growth",
    "cond_liminf",
    "cond_roquS",
    "cond_invmg",
    "lambda_membership",
    "implication",
    "S_GRID",
]

S_GRID = 2.0 ** np.arange(0, 11)


def _extended(grid: np.ndarray) -> np.ndarray:
    """Existential search grid: the declared grid plus two dyadic steps up."""
    g = np.asarray(grid, dtype=float)
    return np.concatenate([g, g[-1] * 2.0 ** np.arange(1, 3)])


def prec_SV(mp: WeightSeq, m: WeightSeq, n: int) -> Verdict:
    """The mixed strong-nonquasianalyticity order: for some integer factor s,

        F_s(j) = exp(sup_{0<=i<j} (log M'_j - j log s - log M_i)/(j-i)) / j * T_j

    stays bounded over j.  The trend test runs on log F_s, which is bounded
    above exactly when F_s is.  Holds when any s on S_GRID passes it, Fails
    when every s certifies growth, Inconclusive otherwise.
    The inner sup is exact: a bisection over i that relies on M being
    log-convex (`_kernels.sv_sup`); M' may be any positive sequence.
    """
    require_weight_seq(m, "prec_SV rhs")
    log_t = tail_mids(m, n)[1]
    log_mp = mp.values(n)
    log_m = m.values(n)
    js = np.arange(1, n + 1, dtype=float)
    log_j = np.log(js)

    def test(s: float) -> Verdict:
        sup = _kernels.sv_sup(log_mp, log_m, math.log(s))[1:]
        return trend_bounded(sup - log_j + log_t, js, relation=f"sv[s={s:g}]", lhs=mp.name, rhs=m.name)

    status, tried = first_holding(S_GRID, test)
    meta = dict(relation="prec_SV", lhs=mp.name, rhs=m.name, grid=[float(x) for x in S_GRID],
                pairing=[{"s": float(s), "status": v.status.value} for s, v in tried])
    if status is Status.HOLDS:
        s, v = float(tried[-1][0]), tried[-1][1]
        return Verdict(status, witness=s, trajectory=v.trajectory, note=f"bounded with s={s:g}: {v.note}", **meta)
    if status is Status.FAILS:
        return Verdict(status, note="growth certified for every s on the grid", **meta)
    return Verdict(status, note="no s passes, growth not certified everywhere", **meta)


def prec_gamma1(mp: WeightSeq, m: WeightSeq, n: int) -> Verdict:
    """Whitney-extension order: trend test on log((mu'_j / j) * T_j)."""
    require_weight_seq(m, "prec_gamma1 rhs")
    log_t = tail_mids(m, n)[1]
    js = np.arange(1, n + 1, dtype=float)
    return trend_bounded(mp.log_mu(n) - np.log(js) + log_t, js, relation="prec_gamma1", lhs=mp.name, rhs=m.name)


def implication(name: str, antecedent: Verdict | Iterable[Verdict], consequent: Verdict | Iterable[Verdict]) -> Verdict:
    """Executable implication between verdicts.

    Fails only when the antecedent Holds and the consequent Fails; a false
    antecedent is vacuously true; any Inconclusive side is reported as a
    skip (Inconclusive status, never Fails).
    """
    a_status = combine_all([antecedent] if isinstance(antecedent, Verdict) else antecedent)
    c_status = combine_all([consequent] if isinstance(consequent, Verdict) else consequent)
    detail = {"antecedent": a_status.value, "consequent": c_status.value}
    if a_status is Status.FAILS:
        return Verdict(Status.HOLDS, relation=name, witness=detail, note="vacuously true (antecedent fails)")
    if a_status is Status.INCONCLUSIVE:
        return Verdict(Status.INCONCLUSIVE, relation=name, witness=detail, note="skipped: antecedent inconclusive")
    if c_status is Status.HOLDS:
        return Verdict(Status.HOLDS, relation=name, witness=detail)
    if c_status is Status.INCONCLUSIVE:
        return Verdict(Status.INCONCLUSIVE, relation=name, witness=detail, note="skipped: consequent inconclusive")
    return Verdict(Status.FAILS, relation=name, witness=detail, note="antecedent holds but consequent fails")


def _shifted_liminf(ma: WeightSeq, mb: WeightSeq, n: int, shift: int, **meta) -> Verdict:
    """`trend_liminf_positive` on log((mu^b_k / k) sum_{j >= shift k} 1/mu^a_j),
    k = 1..n; raises DivergentTail when the tail of `ma` has no finite bracket."""
    mid = tail_mids(ma, shift * n)[1]
    js = np.arange(1, n + 1, dtype=float)
    return trend_liminf_positive(mb.log_mu(n) - np.log(js) + mid[shift * np.arange(1, n + 1) - 1], js, **meta)


def cond_Mmg(m: WeightSeq, n: int) -> Verdict:
    """liminf (mu_j / j) * sum_{k>=2j} 1/mu_k > 0 (shifted-tail balance)."""
    require_weight_seq(m, "cond_Mmg")
    try:
        return _shifted_liminf(m, m, n, 2, relation="shifted-liminf", lhs=m.name)
    except DivergentTail:
        return Verdict(Status.INCONCLUSIVE, relation="shifted-liminf", lhs=m.name,
                       note="tail bracket divergent (quasianalytic input)")


# -- family-level checks -------------------------------------------------------


def _exists_beta(alpha_grid, beta_grid, test, relation: str, lhs: str, rhs: str) -> Verdict:
    """forall alpha (rows) exists beta (candidates): generic grid quantifier.

    `test(alpha, beta) -> Verdict`.  Each alpha is `first_holding` over the
    betas, and the verdict is the conjunction over the alphas; the pairing
    records the matching beta (or None) and the status of each alpha.
    """
    pairing = []
    for a in alpha_grid:
        st, tried = first_holding(beta_grid, lambda b: test(float(a), float(b)))
        pairing.append({"alpha": float(a), "beta": float(tried[-1][0]) if st is Status.HOLDS else None,
                        "status": st.value})
    status = combine_all(Status(p["status"]) for p in pairing)
    note = "all parameters matched" if status is Status.HOLDS else "unmatched parameters: " + ", ".join(
        f"{p['alpha']:g}" for p in pairing if p["beta"] is None
    )
    return Verdict(status, relation=relation, lhs=lhs, rhs=rhs, pairing=pairing,
                   grid=[float(x) for x in alpha_grid], note=note)


def matrix_braces_preceq(a: WeightMatrix, b: WeightMatrix, n: int) -> Verdict:
    """Family order: every member of `a` is dominated by some member of `b`."""

    def test(al: float, be: float) -> Verdict:
        return seq_preceq(a.member(al), b.member(be), n)

    return _exists_beta(a.grid, _extended(b.grid), test, "braces-preceq", a.name, b.name)


def r_moderate_growth(mat: WeightMatrix, n: int) -> Verdict:
    """Family moderate growth: log M^(a)_{j+k} <= (j+k) log C + log M^(b)_j + log M^(b)_k."""

    def test(al: float, be: float) -> Verdict:
        va = mat.member(al).values(n)
        vb = mat.member(be).values(n)
        gap, _ = _kernels.pair_gap_max(va, vb)
        ms = np.arange(2, n + 1, dtype=float)
        return trend_bounded(gap[2:] / ms, ms)

    return _exists_beta(mat.grid, _extended(mat.grid), test, "r-moderate-growth", mat.name, mat.name)


def cond_liminf(mat: WeightMatrix, n: int, *, shift: int = 1) -> Verdict:
    """liminf (mu^(b)_k / k) sum_{j >= shift*k} 1/mu^(a)_j > 0, quantified on the grid."""
    rel = "liminf" if shift == 1 else f"liminf{shift}"

    def test(al: float, be: float) -> Verdict:
        try:
            return _shifted_liminf(mat.member(al), mat.member(be), n, shift)
        except DivergentTail:
            return Verdict(Status.INCONCLUSIVE, relation=rel, note="divergent tail")

    return _exists_beta(mat.grid, _extended(mat.grid), test, rel, mat.name, mat.name)


def cond_roquS(s_family: WeightMatrix, n: int) -> Verdict:
    """sigma^(a)_j <= A (S^(b)_j)^{1/j}: root-quotient domination inside the S family."""

    def test(al: float, be: float) -> Verdict:
        js = np.arange(1, n + 1, dtype=float)
        d = np.diff(s_family.member(al).values(n)) - s_family.member(be).values(n)[1:] / js
        return trend_bounded(d, js)

    return _exists_beta(s_family.grid, _extended(s_family.grid), test, "root-quotient-S", s_family.name, s_family.name)


def cond_invmg(mat: WeightMatrix, n: int) -> Verdict:
    """(mu^(a)_j)^2 <= A mu^(b)_{2j}: inverse moderate growth across members."""

    def test(al: float, be: float) -> Verdict:
        la = mat.member(al).log_mu(n)
        lb2 = mat.member(be).log_mu(2 * n)[2 * np.arange(1, n + 1) - 1]
        js = np.arange(1, n + 1, dtype=float)
        return trend_bounded(2.0 * la - lb2, js)

    return _exists_beta(mat.grid, _extended(mat.grid), test, "inverse-moderate-growth", mat.name, mat.name)


def lambda_membership(a_log, weight, n: int) -> Verdict:
    """Coefficient-space membership: |a_k| <= C sigma^k M_k for some sigma (and
    member), i.e. r_k = (log|a_k| - log M_k)/k bounded above: one trend test on
    r_k per member, witness sigma = exp(max r_k).  a_k = 0 (log -inf) is bounded."""
    a_log = np.asarray(a_log, dtype=float)
    if len(a_log) < n + 1:
        raise ValueError("coefficient sequence shorter than the requested truncation")
    members = weight.members() if isinstance(weight, WeightMatrix) else [weight]
    ks = np.arange(1, n + 1, dtype=float)

    def ratios(m: WeightSeq) -> np.ndarray:
        r = (a_log[1 : n + 1] - m.values(n)[1:]) / ks
        return np.maximum(r, np.min(r[np.isfinite(r)], initial=0.0))  # a_k = 0 sits below every other r_k

    status, tried = first_holding(members, lambda m: trend_bounded(ratios(m), ks))
    if status is Status.HOLDS:
        m, v = tried[-1]
        sigma = math.exp(float(np.max(ratios(m))))
        return Verdict(status, relation="membership", lhs="coefficients", rhs=m.name,
                       witness={"sigma": sigma, "member": m.name},
                       trajectory=v.trajectory, note=f"bounded with sigma={sigma:.6g}")
    note = "grows for every member" if status is Status.FAILS else "neither bounded nor certified to grow"
    return Verdict(status, relation="membership", lhs="coefficients", rhs=weight.name,
                   note="(log|a_k| - log M_k)/k " + note)
