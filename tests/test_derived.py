import math

import numpy as np
import pytest

from ultraweights import derived, func_core
from ultraweights.catalog import (
    exp_gevrey_matrix,
    make_exp_gevrey_member,
    make_gevrey,
    make_power_weight,
    make_q_gevrey,
    resolve,
)
from ultraweights.derived import FAMILY_NAMES, derive_family, seq_K, seq_L, seq_Q, seq_S, seq_underline_L
from ultraweights.errors import DivergentTail, MaximizerUnbounded, NotAWeightSequence, TruncationExhausted
from ultraweights.func_core import (
    WeightMatrix,
    _AssocEvaluator,
    kappa_fn,
    matrix_from_omega,
    omega_tilde_from_seq,
    phi_star,
    poisson_batch,
)
from ultraweights.seq_core import (
    WeightSeq,
    is_log_convex,
    is_strongly_log_convex,
    log_convex_minorant,
    seq_from_csv,
    seq_preceq,
    tail_mids,
)
from ultraweights.verdicts import Status

PI2_6 = math.pi**2 / 6


# -- L ---------------------------------------------------------------------------


def test_L_first_term_trigamma(gevrey2):
    L = seq_L(gevrey2, 64)
    assert math.exp(L.log_m(1)) == pytest.approx(6 / math.pi**2, rel=1e-9)


def test_L_zeroth_term(gevrey2):
    assert seq_L(gevrey2, 16).log_m(0) == 0.0


def test_L_grows_past_factorial(gevrey2, factorial):
    # (L_k/k!)^{1/k} -> infinity
    from ultraweights.verdicts import trend_to_infinity

    n = 256
    L = seq_L(gevrey2, n)
    vals = (L.values(n)[1:] - factorial.values(n)[1:]) / np.arange(1, n + 1)
    assert trend_to_infinity(vals).holds


def test_L_and_S_finite_where_tails_leave_float_range():
    from ultraweights.catalog import make_q_gevrey

    q = make_q_gevrey(1.5)  # T_k ~ 1.5^(1-2k) falls below the float range at k ~ 920
    for build in (seq_L, seq_S):
        assert np.all(np.isfinite(build(q, 1024).values(1024)))


def test_L_requires_weight_sequence():
    pos = WeightSeq.from_values("wiggle", [0.0, 1.0, 0.5, 2.0])
    with pytest.raises(NotAWeightSequence):
        seq_L(pos, 3)


def test_L_spread_is_small_for_analytic_tails(gevrey2):
    assert seq_L(gevrey2, 128).diagnostics["tail_spread"] < 1e-10


def test_underline_L_below_L_and_convex(gevrey2):
    n = 128
    L = seq_L(gevrey2, n)
    uL = seq_underline_L(gevrey2, n)
    assert np.all(uL.values(n) <= L.values(n) + 1e-9)
    assert is_log_convex(uL, n).holds


def test_underline_L_matches_hull_oracle(gevrey2):
    # hull of the L output computed independently
    n = 96
    buffer = max(16, n // 4)
    L = seq_L(gevrey2, n + buffer)
    want = log_convex_minorant(L, n).values(n)
    got = seq_underline_L(gevrey2, n).values(n)
    assert np.allclose(got, want, atol=1e-12)


# -- S ---------------------------------------------------------------------------


def test_S_sigma1_is_one(gevrey2, gevrey15):
    for m in (gevrey2, gevrey15):
        S = seq_S(m, 32)
        assert math.exp(np.diff(S.values(32))[0]) == pytest.approx(1.0, abs=1e-12)


def test_S_tau1_trigamma(gevrey2):
    # tau_1 = 1 + pi^2/6 and tau_2 = 2/4 + (pi^2/6 - 1) give sigma_2 = 2 tau_1 / tau_2
    S = seq_S(gevrey2, 32)
    assert math.exp(np.diff(S.values(32))[1]) == pytest.approx(2 * (1.0 + PI2_6) / (PI2_6 - 0.5), rel=1e-10)


def test_S_strongly_log_convex(gevrey2):
    assert is_strongly_log_convex(seq_S(gevrey2, 256), 256).holds


def test_S_preceq_L(gevrey2):
    n = 256
    assert seq_preceq(seq_S(gevrey2, n), seq_L(gevrey2, n), n).holds


def test_sigma_below_mu_trend(gevrey2):
    # sigma_k / mu_k stays bounded; the recorded rescale constant witnesses it
    n = 256
    S = seq_S(gevrey2, n)
    from ultraweights.verdicts import trend_bounded

    assert trend_bounded(np.diff(S.values(n)) - gevrey2.log_mu(n)).holds
    assert S.diagnostics["sigma_rescale"] < 4.0


# -- K ---------------------------------------------------------------------------


def test_K_zeroth_term_exact(gevrey2):
    assert seq_K(gevrey2, 32).log_m(0) == 0.0


def test_K_of_expgevrey_members_takes_at_most_3_kappa_evaluations(monkeypatch):
    # the closed form reads kappa at 0 and the roots, n + 1 points at most,
    # in one call, and runs no golden search: neither a conjugate of kappa
    # nor the associated function's far path past its array
    calls, searches, inner, golden = [], [], func_core._kappa_assoc, func_core._golden_max
    monkeypatch.setattr(func_core, "_kappa_assoc", lambda w, ys: (calls.append(len(ys)), inner(w, ys))[1])
    monkeypatch.setattr(func_core, "_golden_max", lambda *a, **kw: (searches.append(len(a[3])), golden(*a, **kw))[1])
    for m in resolve("mat:expgevrey?p=2").members():
        before = len(calls)
        seq_K(m, 64)
        assert len(calls) - before == 1 and calls[-1] <= 65
    assert len(calls) >= 7 and searches == []


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_K_matches_the_30_digit_oracle(oracle, s):
    # log K_j of omega~ from the definition (tests/make_oracle.py: Hurwitz
    # zeta kappa, bisection on kappa' = kappa - phi), at j = 1, 2, 3, 5, 8, 12
    # and 64; the zeros, where the sup is at y = 0, are exact
    cases = oracle["K"][f"seq:gevrey?s={s:g}"]
    got = seq_K(make_gevrey(s), 64).values(64)
    assert len(cases) == 7 and any(want == 0.0 for _, want in cases)
    for j, want in cases:
        assert abs(got[j] - want) <= 1e-12 * abs(want), j


def _K_oracle(m: WeightSeq, js: np.ndarray) -> np.ndarray:
    """The golden conjugate of the normalized kappa, the path seq_K took
    before its closed form."""
    return phi_star(kappa_fn(omega_tilde_from_seq(m)), js)


def _csv_table(rows: int) -> WeightSeq:
    # a declared table of gevrey 2 values: its fitted remainder keeps the
    # last piece of kappa rising past the last quotient
    text = "k,log_m\n" + "".join(f"{k},{2.0 * math.lgamma(k + 1)!r}\n" for k in range(rows))
    return seq_from_csv("csv", text, is_weight_seq=True)


def _low_table() -> WeightSeq:
    # mu_1 = e^-2 and mu_2 = 4 e^-2 lie below 1: kappa's first piece at y = 0 has count 2
    return WeightSeq.from_values("low", np.concatenate([[0.0], np.cumsum(-2.0 + 2.0 * np.log(np.arange(1.0, 129.0)))]),
                                 is_weight_seq=True)


K_CASES = {
    "gevrey2": (lambda: resolve("seq:gevrey?s=2"), 256),
    "gevrey3": (lambda: resolve("seq:gevrey?s=3"), 256),
    **{f"expgevrey-{a:g}": (lambda a=a: resolve("mat:expgevrey?p=2").member(a), 64) for a in (0.125, 0.25, 0.5, 1, 2, 4, 8)},
    **{f"{fn}-{a:g}": (lambda uri=uri, a=a: resolve(uri).member(a), 64)
       for fn, uri in (("power", "mat:omega?fn=power&beta=0.5"), ("logsq", "mat:omega?fn=logsq"))
       for a in (0.125, 1.0, 8.0)},
    "csv-10-rows": (lambda: _csv_table(10), 64),
    "mu1-below-1": (_low_table, 64),
}


@pytest.mark.parametrize("case", sorted(K_CASES))
def test_K_closed_form_matches_the_golden_conjugate(case):
    build, n = K_CASES[case]
    m = build()
    got = seq_K(m, n).values(n)[1:]
    want = _K_oracle(m, np.arange(1, n + 1, dtype=float))
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


def test_K_past_the_last_quotient_of_a_capped_array_is_refused(monkeypatch):
    # kappa' at the last quotient of a 64-term gevrey 2 array is about 130:
    # K_128 has its maximizer inside the array, K_256 past it
    monkeypatch.setattr(_AssocEvaluator, "ARRAY_CAP", 64)
    m = resolve("seq:gevrey?s=2")
    got, want = seq_K(m, 128).values(128)[1:], _K_oracle(m, np.arange(1.0, 129.0))
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12
    with pytest.raises(TruncationExhausted):
        seq_K(resolve("seq:gevrey?s=2"), 256)


def test_K_grows_the_array_until_it_holds_every_root():
    # kappa' at the last quotient of q-Gevrey 2's first array of 4096 terms
    # is below 5000: the array grows by four, once
    m = make_q_gevrey(2)
    got = seq_K(m, 5000).values(5000)
    assert derived._tilde(m).assoc._n == 16384
    js = np.array([1.0, 64.0, 4097.0, 5000.0])
    want = _K_oracle(m, js)
    assert np.max(np.abs(got[js.astype(int)] - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


def test_K_is_zero_while_kappa_at_0_rises_faster(gevrey2):
    # kappa'(0) is about 3.2 for gevrey 2: j y - kappa(y) + kappa(0) peaks at y = 0 for j <= 3
    assert seq_K(gevrey2, 3).values(3).tolist() == [0.0] * 4


# log K_1..log K_n where a quotient piece is hundreds wide in y and kappa''
# rounds to 0 on it, as a safeguarded Newton solve of kappa' = j gave them
EXTREME_K = {
    "seq:qgevrey?q=1e200": [0.0, 0.2639435073548384, 459.7809621061641, 1840.3320179025914, 4141.917110896638,
                            7364.536241088301, 11508.189408477581, 16572.876613064484],
    "seq:qgevrey?q=1e300": [0.0, 0.2639435073548384, 690.0394714055687, 2761.3660551002095, 6214.243694591276,
                            11048.672389878775, 17264.6521409627, 24862.18294784305],
    "seq:expgevrey?a=700": [0.0, 0.2639435073548384, 699.263943507355, 2099.6502378684745, 4200.84746244581,
                            7002.620051168047],
}


@pytest.mark.parametrize("uri", sorted(EXTREME_K))
def test_K_across_extreme_quotient_jumps(uri):
    # the suite turns every RuntimeWarning (an overflow, a 0/0) into a failure
    want = np.array(EXTREME_K[uri])
    got = seq_K(resolve(uri), len(want)).values(len(want))[1:]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


def test_K_is_weight_sequence(gevrey2):
    K = seq_K(gevrey2, 128)
    assert is_log_convex(K, 128).holds


def test_K_bounded_by_M(gevrey2):
    from ultraweights.verdicts import trend_bounded

    n = 128
    K = seq_K(gevrey2, n)
    vals = K.values(n) - gevrey2.values(n)
    assert trend_bounded(vals[1:]).holds


def test_K_grows_past_factorial(gevrey2, factorial):
    from ultraweights.verdicts import trend_to_infinity

    n = 256
    K = seq_K(gevrey2, n)
    vals = (K.values(n)[1:] - factorial.values(n)[1:]) / np.arange(1, n + 1)
    assert trend_to_infinity(vals).holds


# -- Q ---------------------------------------------------------------------------


def test_Q_log_convex_exactly(gevrey2):
    Q = seq_Q(gevrey2, 64)
    d2 = np.diff(Q.values(64), 2)
    assert np.min(d2) >= -1e-12  # sup of linear forms over a common grid


def test_Q_dominates_single_probe(gevrey2):
    Q = seq_Q(gevrey2, 64)
    p1 = poisson_batch(omega_tilde_from_seq(gevrey2), [0.0])[0]
    # log r = 0 is a grid point: raw values dominate -P(i)/2
    assert np.all(Q.values(64) + Q.diagnostics["log_q0"] >= -p1 / 2)


def test_Q_sandwich_between_kappa_sups(gevrey2):
    # P/2 squeezed between kappa/4 and (2/pi) kappa transfers to the sup
    from ultraweights.func_core import kappa_assoc

    n = 32
    Q = seq_Q(gevrey2, n)
    w = omega_tilde_from_seq(gevrey2)
    rho = np.linspace(math.log(1e-2), math.log(1e6), 400)
    kap = np.asarray(kappa_assoc(w, np.exp(rho)))
    ks = np.arange(0, n + 1) + 0.5
    hi_env = np.max(np.outer(ks, rho) - kap[None, :] / 4.0, axis=1)
    lo_env = np.max(np.outer(ks, rho) - kap[None, :] * (2.0 / math.pi), axis=1)
    log_q = Q.values(n) + Q.diagnostics["log_q0"]
    assert np.all(log_q <= hi_env + 1e-3)
    assert np.all(log_q >= lo_env - 1e-3)


def test_Q_window_reaches_far_maximizers():
    # the maximizer of Q_64 for quotients k^2 e^(8k) lies near log r = 1030
    Q = seq_Q(make_exp_gevrey_member(2.0, 8.0), 64)
    assert np.all(np.isfinite(Q.values(64)))
    assert is_log_convex(Q, 64).holds


def test_Q_refused_past_the_array_cap(gevrey2, monkeypatch):
    # with 4096 quotients (log mu_J = 16.6) the maximizer of Q_2048 leaves the array
    monkeypatch.setattr(_AssocEvaluator, "ARRAY_CAP", 4096)
    from ultraweights.catalog import make_gevrey

    with pytest.raises(MaximizerUnbounded):
        seq_Q(make_gevrey(2), 2048)


def test_Q_refused_for_a_short_finite_sequence(gevrey2):
    # 64 quotients: P grows with slope 66, so Q_k is infinite from k = 33 on
    S = seq_S(gevrey2, 64)
    assert np.all(np.isfinite(seq_Q(S, 32).values(32)))
    with pytest.raises(MaximizerUnbounded):
        seq_Q(S, 33)


def _doubled_lattice_log_q(m, n):
    # log Q_0 .. log Q_n over a lattice of step 0.1 that starts as [log 1e-2, log 1e6]
    # and doubles each end while a maximizer touches it
    w = omega_tilde_from_seq(m)
    i_lo, i_hi = math.ceil(math.log(1e-2) / 0.1), math.floor(math.log(1e6) / 0.1)
    ks = np.arange(0, n + 1) + 0.5
    while True:
        rho = np.arange(i_lo, i_hi + 1) * 0.1
        table = np.outer(ks, rho) - 0.5 * poisson_batch(w, rho)[None, :]
        arg = np.argmax(table, axis=1)
        at_right, at_left = arg.max() >= len(rho) - 2, arg.min() <= 1
        if not (at_right or at_left):
            return table[np.arange(n + 1), arg]
        i_hi, i_lo = (2 * i_hi if at_right else i_hi), (2 * i_lo if at_left else i_lo)


@pytest.fixture(scope="module")
def gevrey2_S64(gevrey2):
    # a complete finite sequence of 64 quotients: its right end is the closed form past log mu_64
    return seq_S(gevrey2, 64)


# a URI, or the name of a fixture for sequences the catalog does not build
@pytest.mark.parametrize("uri, alpha, n", [("seq:gevrey?s=3", None, 256),
                                           ("mat:omega?fn=power&beta=0.5", 8.0, 64),
                                           ("seq:qgevrey?q=1.5", None, 64),
                                           ("seq:expgevrey?p=2&a=8", None, 64),
                                           ("small_gevrey2", None, 64),
                                           ("gevrey2_S64", None, 32)])
def test_Q_matches_the_doubled_lattice(request, uri, alpha, n):
    # the certified ends keep every lattice maximizer of the doubled grid
    if ":" not in uri:
        m = request.getfixturevalue(uri)
    else:
        m = resolve(uri) if alpha is None else resolve(uri, grid=[alpha]).member(alpha)
    Q = seq_Q(m, n)
    log_q = Q.values(n) + Q.diagnostics["log_q0"]
    ref = _doubled_lattice_log_q(m, n)
    np.testing.assert_allclose(log_q, ref, rtol=1e-13, atol=1e-13)


def test_Q_finite_where_the_doubled_grid_left_the_array():
    # member a=2 of the power matrix: the maximizer of Q_256 lies near log r = 14.6,
    # but a doubled grid end (27.6) passes the array's last quotient (26.3)
    m = resolve("mat:omega?fn=power&beta=0.5", grid=[2.0]).member(2.0)
    assert np.all(np.isfinite(seq_Q(m, 256).values(256)))


def test_Q_slope_floor_below_the_slope_of_P(gevrey2):
    # s(rho) bounds P'(rho) from below; P is convex, so a backward difference is at most P'(rho)
    w = omega_tilde_from_seq(gevrey2)
    log_mu = gevrey2.log_mu(4096)
    for rho in (-2.0, 0.5, 3.0, 7.0, 12.0):
        k = int(np.searchsorted(log_mu, rho, side="right"))
        log_sum = float(np.logaddexp.reduce(log_mu[:k])) if k else -math.inf
        p_before, p_at = poisson_batch(w, [rho - 1e-4, rho])
        assert derived._slope_floor(k, log_sum, rho) <= (p_at - p_before) / 1e-4


def test_Q_refuses_a_lattice_maximizer_at_the_certified_end(gevrey2, monkeypatch):
    # a wrong right end must raise, never turn into grid-end values
    monkeypatch.setattr(derived, "_q_right_end", lambda m, cap, n: 3.0)
    with pytest.raises(MaximizerUnbounded, match="certified right end"):
        seq_Q(gevrey2, 64)


@pytest.mark.parametrize("name", ["gevrey2", "small_gevrey2"])
def test_Q_slope_ceiling_above_the_slope_of_P(request, name):
    # P'(rho) <= e^rho ((2/pi) T_1 + 2) left of log mu_1; P is convex, so a forward difference is at least P'(rho)
    m = request.getfixturevalue(name)
    w = omega_tilde_from_seq(m)
    log_mu1 = float(m.log_mu(1)[0])
    t1 = math.exp(float(tail_mids(m, 1).hi[0]))
    for rho in log_mu1 - np.array([0.5, 1.0, 2.0, 4.0]):
        p_at, p_after = poisson_batch(w, [rho, rho + 1e-4])
        assert (p_after - p_at) / 1e-4 <= math.exp(rho) * ((2.0 / math.pi) * t1 + 2.0)


def test_Q_refuses_a_lattice_maximizer_at_the_certified_left_end(gevrey2, monkeypatch):
    # a wrong left end must raise too: Q_0 of gevrey 2 has its maximizer left of log r = 3
    monkeypatch.setattr(derived, "_q_left_end", lambda m: 3.0)
    with pytest.raises(MaximizerUnbounded, match="certified left end"):
        seq_Q(gevrey2, 64)


def test_Q_quasianalytic_refused(factorial):
    with pytest.raises(DivergentTail):
        seq_Q(factorial, 16)


# -- families -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def power_mat():
    return matrix_from_omega(make_power_weight(0.5))


def test_family_sigma_one_everywhere(power_mat):
    fam = derive_family(power_mat, "S", 64)
    for a in fam.grid:
        assert math.exp(np.diff(fam.member(a).values(64))[0]) == pytest.approx(1.0, abs=1e-9)


def test_family_underlineL_below_L(power_mat):
    fam_u = derive_family(power_mat, "underlineL", 64)
    fam_l = derive_family(power_mat, "L", 64)
    for a in fam_u.grid:
        assert np.all(fam_u.member(a).values(64) <= fam_l.member(a).values(64) + 1e-9)


def test_family_provenance_and_spread(power_mat):
    fam = derive_family(power_mat, "S", 64)
    assert fam.provenance["construction"] == "S"
    assert "sigma_rescale" in fam.provenance
    assert "tail_spread" in fam.provenance


def test_family_K_members_all_equivalent_for_power(power_mat):
    # value-doubling of the averaged transforms makes the K members equivalent
    from ultraweights.seq_core import seq_equivalent

    fam = derive_family(power_mat, "K", 128)
    assert seq_equivalent(fam.member(0.125), fam.member(8.0), 128).holds


def test_family_monotone_warning_tolerated():
    fam = derive_family(exp_gevrey_matrix(2.0, grid=[0.5, 1.0, 2.0]), "L", 48)
    assert isinstance(fam.warnings, list)  # populated or not, never raises
    # gevrey 3 at alpha = 1 lies above gevrey 2.5 at alpha = 2, and so do their K
    fam = derive_family(WeightMatrix("dec", lambda a: make_gevrey(2 + 1 / a), grid=[1, 2]), "K", 64)
    assert len(fam.warnings) == 1 and "(tolerated for derived families)" in fam.warnings[0]


@pytest.mark.parametrize("uri, n, grid", [("mat:gevrey?s=2", 32, None), ("mat:omega?fn=power&beta=0.5", 16, [1.0])])
def test_constructors_declare_every_attribute(uri, n, grid):
    # no construction attaches state to a sequence or matrix after building it
    seq_fields = set(vars(WeightSeq("fresh", np.zeros_like)))
    mat_fields = set(vars(WeightMatrix("fresh", lambda alpha: None)))
    mat = resolve(uri, grid=grid)
    fams = [derive_family(mat, which, n) for which in FAMILY_NAMES]
    member = mat.member(mat.grid[0])
    seq_K(member, n)
    seq_Q(member, n)  # fills the omega~ cache of the member
    for m in (mat, *fams):
        assert set(vars(m)) == mat_fields
        for seq in m.members():
            assert set(vars(seq)) == seq_fields


def test_K_and_Q_share_one_omega_tilde(monkeypatch):
    # building omega~ grows the associated-function array; K and Q must not build it twice
    built = []

    def counted(m):
        built.append(m.name)
        return omega_tilde_from_seq(m)

    monkeypatch.setattr(derived, "omega_tilde_from_seq", counted)
    m = make_exp_gevrey_member(2.0, 1.0)
    seq_K(m, 32)
    seq_Q(m, 32)
    assert built == [m.name]
