import math

import numpy as np
import pytest

from ultraweights import _kernels, func_core
from ultraweights.catalog import make_exp_gevrey_member, make_power_weight
from ultraweights.errors import EnvelopeRequired, QuasianalyticInput, UnboundedConjugate
from ultraweights.func_core import (
    Envelope,
    WeightFn,
    fn_predicates,
    fn_preceq,
    kappa,
    kappa_assoc,
    kappa_fn,
    kappa_interval,
    log_t_grid,
    matrix_from_omega,
    normalize_fn,
    omega_from_seq,
    omega_tilde_from_seq,
    phi_star,
    phi_star_involution_check,
    phi_star_maximizer,
    poisson_batch,
    poisson_imag,
    poisson_interval,
    prec_st,
)
from ultraweights.seq_core import WeightSeq, has_moderate_growth, power_shift, seq_equivalent


# -- Young conjugate -----------------------------------------------------------


def test_phi_star_linear_at_e(linear):
    assert phi_star(linear, math.e) == pytest.approx(0.0, abs=1e-9)


def test_phi_star_sqrt(power_half):
    assert phi_star(power_half, 1.0) == pytest.approx(2 * math.log(2) - 2, abs=1e-9)


def test_phi_star_zero_of_normalized(logsq):
    assert phi_star(logsq, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_phi_star_matches_closed_forms(power_half, logsq, linear):
    xs = np.array([0.0, 0.2, 1.0, 4.7, 33.0, 1e3, 1e6])
    # the squared-log weight peaks at y = x/2, so its x range is capped by the
    # e^y representation limit
    xs_slow = np.array([0.0, 0.2, 1.0, 4.7, 33.0, 400.0, 1000.0])
    for w, grid in ((power_half, xs), (logsq, xs_slow), (linear, xs)):
        got = phi_star(w, grid)
        want = np.asarray(w.phi_star_ref(grid), dtype=float)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9), w.name


def test_phi_star_maximizer_monotone(power_half):
    xs = np.array([0.5, 1.0, 10.0, 100.0, 1e4])
    ys = phi_star_maximizer(power_half, xs)
    assert np.all(np.diff(ys) >= -1e-9)


def test_phi_star_unbounded_for_logarithmic_weight():
    w = WeightFn("slowlog", lambda ts: np.log1p(np.maximum(ts, 0.0)))
    with pytest.raises(UnboundedConjugate):
        phi_star(w, 2.0)


@pytest.mark.parametrize("name", ["linear", "power_half", "logsq"])
def test_involution(name, request):
    w = request.getfixturevalue(name)
    assert phi_star_involution_check(w).holds


# -- associated function ---------------------------------------------------------


def test_assoc_factorial_value(factorial):
    w = omega_from_seq(factorial)
    assert w.omega(10.0) == pytest.approx(7.92144, abs=1e-4)


def test_assoc_brute_force_agreement(factorial, gevrey2):
    # independent oracle: full scan over an explicit table
    for seq, t in ((factorial, 10.0), (gevrey2, 57.0), (gevrey2, 3.3)):
        w = omega_from_seq(seq)
        vals, _ = _kernels.assoc_sup(seq.values(400), np.array([math.log(t)]))
        assert w.omega(t) == pytest.approx(max(float(vals[0]), 0.0), abs=1e-9)


def test_assoc_vanishes_below_one(gevrey2):
    w = omega_from_seq(gevrey2)
    assert w.omega(0.0) == 0.0 and w.omega(0.7) == 0.0 and w.omega(1.0) == 0.0


def test_assoc_gevrey2_asymptotics(gevrey2):
    w = omega_from_seq(gevrey2)
    for t in (1e4, 1e6, 1e8):
        assert w.omega(t) / (2 * math.sqrt(t)) == pytest.approx(1.0, abs=0.1)


def test_assoc_full_scan_for_positive_sequences():
    vals = np.concatenate([[0.0], np.cumsum(np.linspace(0.1, 3.0, 64))])
    vals[3] += 1.0  # break log-convexity
    seq = WeightSeq.from_values("pos", vals)
    w = omega_from_seq(seq)
    ks = np.arange(len(vals))
    t = 5.0
    assert w.omega(t) == pytest.approx(float(np.max(ks * math.log(t) - vals)))


def test_assoc_quasianalytic_suspect_refuses_transform(factorial):
    w = omega_from_seq(factorial)  # omega ~ t: fit exceeds the cap
    assert w.quasi_suspect
    with pytest.raises(QuasianalyticInput):
        kappa(w, 2.0)


def test_assoc_envelope_covers_samples(gevrey2):
    w = omega_tilde_from_seq(gevrey2)
    ts = log_t_grid(1.0, 1e10, 80)
    assert np.all(w.envelope.bound(ts) + 1e-9 >= w.omega(ts))


# -- integral transforms -----------------------------------------------------------


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
def test_kappa_power_closed_form(beta):
    w = make_power_weight(beta)
    for t in (1.0, 4.0, 123.0, 1e6):
        assert kappa(w, t) == pytest.approx(t**beta / (1 - beta), rel=1e-8)


@pytest.mark.parametrize("t", [1.0, 4.0, 123.0, 1e6])
def test_kappa_interval_brackets_truth(power_half, t):
    iv = kappa_interval(power_half, t)
    assert iv.lo <= t**0.5 / 0.5 <= iv.hi and iv.width < 1e-9


@pytest.mark.parametrize("r", [1.0, 4.0, 123.0, 1e6])
def test_poisson_interval_brackets_truth(power_half, r):
    iv = poisson_interval(power_half, r)
    assert iv.lo <= r**0.5 / math.cos(math.pi / 4) <= iv.hi and iv.width < 1e-9


@pytest.mark.parametrize("x", [1.0, 4.0, 123.0, 1e6])
def test_brackets_hold_when_the_panel_budget_runs_out(power_half, monkeypatch, x):
    kap, pois = kappa_interval(power_half, x), poisson_interval(power_half, x)
    monkeypatch.setattr(func_core, "PANEL_BUDGET", 1)
    kap_cut, pois_cut = kappa_interval(power_half, x), poisson_interval(power_half, x)
    assert kap_cut.lo <= x**0.5 / 0.5 <= kap_cut.hi and kap_cut.width > kap.width
    assert pois_cut.lo <= x**0.5 / math.cos(math.pi / 4) <= pois_cut.hi and pois_cut.width > pois.width


def test_kappa_dominates_omega(power_half, logsq):
    for w in (power_half, logsq):
        for t in log_t_grid(1.0, 1e6, 12):
            assert kappa(w, float(t)) >= w.omega(float(t)) - 1e-9


def test_kappa_concave_and_sublinear(power_half):
    ts = log_t_grid(10.0, 1e8, 24)
    ks = np.array([kappa(power_half, float(t)) for t in ts])
    assert np.all(np.diff(np.diff(ks) / np.diff(ts)) <= 1e-9)  # decreasing slopes
    ratio = ks / ts
    assert ratio[-1] < 1e-2 * ratio[0]


def test_kappa_refuses_without_envelope(linear):
    with pytest.raises(EnvelopeRequired):
        kappa(linear, 2.0)


def test_kappa_refuses_theta_ge_one(power_half):
    w = WeightFn("bad", power_half._omega, envelope=Envelope(0.999999, 0, 1))
    w.envelope = Envelope(1.0, 0.0, 1.0).__class__(1.0, 0.0, 1.0)
    with pytest.raises(QuasianalyticInput):
        kappa(w, 2.0)


def test_kappa_assoc_matches_quadrature(gevrey2):
    w = omega_tilde_from_seq(gevrey2)
    for t in (0.5, 3.0, 100.0, 1e4):
        assert kappa_assoc(w, t) == pytest.approx(kappa(w, t), rel=1e-7)


def test_kappa_assoc_matches_quadrature_exp_gevrey():
    m = make_exp_gevrey_member(2.0, 1.0)
    w = omega_tilde_from_seq(m)
    for t in (2.0, 50.0, 1e3):
        assert kappa_assoc(w, t) == pytest.approx(kappa(w, t), rel=1e-6)


def test_poisson_sqrt_value(power_half):
    assert poisson_imag(power_half, 1.0) == pytest.approx(math.sqrt(2), abs=1e-8)


@pytest.mark.parametrize("beta", [0.3, 0.7])
def test_poisson_power_closed_form(beta):
    w = make_power_weight(beta)
    for r in (0.5, 2.0, 1e3):
        assert poisson_imag(w, r) == pytest.approx(r**beta / math.cos(math.pi * beta / 2), rel=1e-7)


def test_poisson_scaling_linearity(power_half):
    doubled = WeightFn("2w", lambda ts: 2.0 * power_half._omega(ts), envelope=Envelope(0.5, 0.0, 2.0))
    assert poisson_imag(doubled, 3.0) == pytest.approx(2 * poisson_imag(power_half, 3.0), rel=1e-8)


def test_poisson_batch_matches_scalar(gevrey2):
    w = omega_tilde_from_seq(gevrey2)
    rs = np.exp(np.linspace(-2.0, 10.0, 9))
    batch = poisson_batch(w, rs)
    single = np.array([poisson_imag(w, float(r)) for r in rs])
    assert np.allclose(batch, single, rtol=1e-5, atol=1e-6)


def test_poisson_batch_without_quadrature_matches_interval():
    # omega vanishes on [0, 1], so for r = 1e-3 the integral starts at
    # u = -log r, beyond the cutoff: the whole value is the envelope tail
    w = WeightFn("tiny", lambda ts: 1e-12 * np.sqrt(np.maximum(ts - 1.0, 0.0)),
                 envelope=Envelope(0.5, 0.0, 1e-12), normalized=True)
    assert poisson_batch(w, [1e-3])[0] == poisson_interval(w, 1e-3).mid
    mixed = poisson_batch(w, [1e-3, 10.0])
    assert mixed[0] == poisson_interval(w, 1e-3).mid
    assert mixed[1] == pytest.approx(poisson_imag(w, 10.0), abs=1e-7)
    assert poisson_batch(w, []).shape == (0,)


def test_sandwich_on_assoc(gevrey2):
    w = omega_tilde_from_seq(gevrey2)
    for r in log_t_grid(1.0, 1e5, 9):
        P = poisson_imag(w, float(r))
        K = kappa_assoc(w, float(r))
        assert P <= (4 / math.pi) * K + 1e-6
        assert (4 / math.pi) * K <= 4 * P + 1e-6


def test_appendix_bound_stable(power_half):
    # P(ir) <= r + A with a fitted constant stable across radial windows
    rs = log_t_grid(1.0, 1e8, 40)
    a_fit = np.array([poisson_imag(power_half, float(r)) - float(r) for r in rs])
    early = np.max(a_fit[: len(a_fit) // 2])
    late = np.max(a_fit[len(a_fit) // 2 :])
    assert late <= early + 1e-6


# -- normalization and the canonical matrix --------------------------------------


def test_normalize_fn_zero_on_unit_interval(power_half):
    wn = normalize_fn(power_half)
    assert wn.normalized
    assert wn.omega(0.5) == 0.0 and wn.omega(1.0) == 0.0
    assert wn.omega(4.0) == pytest.approx(1.0)


def test_normalize_transported_conjugate(power_half):
    wn = normalize_fn(power_half)
    xs = np.array([0.0, 0.3, 1.0, 7.0, 1e4, 1e9])
    assert np.allclose(phi_star(wn, xs), np.asarray(wn.phi_star_ref(xs)), rtol=1e-9, atol=1e-9)


def test_matrix_member_zero_and_monotone(power_half):
    mat = matrix_from_omega(power_half)
    assert mat.member(1.0).log_m(0) == 0.0
    assert mat.check_monotone().holds


def test_matrix_member_of_linear_weight(linear):
    # closed-form conjugate x log x - x, shifted into the normalized class:
    # member values differ from k log k - k by a bounded constant (here 1)
    mat = matrix_from_omega(linear)
    m1 = mat.member(1.0)
    ks = np.arange(3, 40, dtype=float)
    diff = m1.log_m(ks) - (ks * np.log(ks) - ks)
    assert np.allclose(diff, 1.0, atol=1e-6)


def test_matrix_power_shift_identity(power_half):
    # member n equals the n-fold index dilation of member 1
    mat = matrix_from_omega(power_half)
    for nshift in (2, 3):
        lhs = mat.member(float(nshift))
        rhs = power_shift(mat.member(1.0), nshift)
        ks = np.arange(0, 65, dtype=float)
        assert np.max(np.abs(lhs.log_m(ks) - rhs.log_m(ks))) < 1e-8


def test_matrix_members_equivalent_iff_value_doubling(power_half, logsq):
    mat_p = matrix_from_omega(power_half)
    assert seq_equivalent(mat_p.member(0.125), mat_p.member(8.0), 256).holds
    # squared-log members diverge linearly; stay inside the e^y representation
    # cap (maximizer alpha*k/2 <= 700)
    mat_l = matrix_from_omega(logsq)
    assert not seq_equivalent(mat_l.member(0.125), mat_l.member(2.0), 128).holds


def test_matrix_member_far_fast_paths_agree(power_half):
    m1 = matrix_from_omega(power_half).member(1.0)
    kk = np.array([1e5, 1e8, 1e12])
    assert np.allclose(m1.log_m_fast(kk), m1.log_m(kk), rtol=1e-10)


# -- order relations and predicates ------------------------------------------------


def test_fn_preceq_examples(power_half):
    w04 = make_power_weight(0.4)
    assert fn_preceq(power_half, power_half).holds
    assert fn_preceq(power_half, w04).holds  # t^0.4 = O(sqrt t)
    assert fn_preceq(w04, power_half).fails  # sqrt t != O(t^0.4)


def test_prec_st_power_self(power_half):
    assert prec_st(power_half, power_half).holds


def test_prec_st_kappa_is_strong(power_half):
    kap = kappa_fn(power_half)
    assert prec_st(kap, power_half).holds


def test_prec_st_log_vs_sqrt_fails(logsq, power_half):
    assert prec_st(logsq, power_half).fails


def test_fn_predicates_power(power_half):
    rep = fn_predicates(power_half)
    assert rep.doubling.holds and rep.om6.holds
    assert rep.non_quasianalytic.holds and rep.little_o.holds
    assert rep.om6.witness >= 2 ** (1 / 0.5) - 1e-9


def test_fn_predicates_linear(linear):
    rep = fn_predicates(linear)
    assert rep.little_o.fails
    assert rep.non_quasianalytic.fails
    assert rep.om6.holds  # 2t <= 2t + 2


def test_fn_predicates_logsq(logsq):
    rep = fn_predicates(logsq)
    assert rep.doubling.holds
    assert rep.non_quasianalytic.holds
    assert not rep.om6.holds  # squared log has no value-doubling constant
    assert rep.little_o.holds


def test_equivalence_transports_to_kappa(power_half):
    # omega and its dilate are equivalent, so their transforms are too
    dil = WeightFn("dilate", lambda ts: power_half._omega(2.0 * ts), envelope=Envelope(0.5, 0.0, 2.0))
    assert fn_preceq(power_half, dil).holds and fn_preceq(dil, power_half).holds
    k1 = kappa_fn(power_half, use_ref=False)
    k2 = kappa_fn(dil, use_ref=False)
    grid = log_t_grid(4.0, 1e6, 48)
    assert fn_preceq(k1, k2, grid).holds and fn_preceq(k2, k1, grid).holds


# -- associated-function structure lemmas ---------------------------------------------


def test_mg_matches_value_doubling_of_assoc(gevrey2, qgevrey2):
    # moderate growth of M <-> value-doubling condition of its associated fn
    assert has_moderate_growth(gevrey2, 128).holds
    assert fn_predicates(omega_from_seq(gevrey2)).om6.holds
    assert has_moderate_growth(qgevrey2, 64).fails
    assert not fn_predicates(omega_from_seq(qgevrey2)).om6.holds


def test_factorial_gap_matches_linear_assoc(gevrey2, factorial):
    # (M_k/k!)^{1/k} -> inf <-> omega_M(t) = o(t)
    assert fn_predicates(omega_from_seq(gevrey2)).little_o.holds
    assert fn_predicates(omega_from_seq(factorial)).little_o.fails


def test_assoc_is_pre_weight(gevrey2):
    w = omega_from_seq(gevrey2)
    ts = log_t_grid(1.5, 1e8, 64)
    om = w.omega(ts)
    assert np.all(np.diff(om) >= -1e-12)  # increasing
    ys = np.log(ts)
    phi = om
    # convexity of omega(e^y) in y on the sampled grid
    assert np.all(np.diff(np.diff(phi) / np.diff(ys)) >= -1e-7)
    # log t = o(omega)
    assert om[-1] / math.log(ts[-1]) > 100
