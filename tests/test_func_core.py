import math

import numpy as np
import pytest

from ultraweights import _kernels, func_core
from ultraweights.catalog import make_exp_gevrey_member, make_factorial, make_gevrey, make_power_weight
from ultraweights.errors import EnvelopeRequired, QuasianalyticInput, TruncationExhausted, UnboundedConjugate
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

CATALAN = 0.915965594177219015054603514932


def proven(seq, theta: float, b: float) -> WeightFn:
    """omega~ of seq with the envelope log 2 + b e^(theta y), so that the
    quadrature can serve as a reference for the closed forms."""
    w = omega_tilde_from_seq(seq)
    return WeightFn(w.name, w._phi, envelope=Envelope(theta, math.log(2.0), b), assoc=w.assoc, include_log_term=True)


def gevrey_tilde(s: float) -> WeightFn:
    # log k! >= k log(k/e) gives omega_M(e^y) <= sup_k k (y - s log k + s) =
    # s e^(y/s); log(1+t^2) <= log 2 + max(2y, 0) and 2y <= (2s/e) e^(y/s)
    return proven(make_gevrey(s), 1.0 / s, s + 2.0 * s / math.e)


def expgevrey_tilde(a: float) -> WeightFn:
    # log M_k >= a k^2/2 gives omega_M(e^y) <= max(y, 0)^2/(2a), and
    # y^2 e^(-y/2) <= 16/e^2; log(1+t^2) <= log 2 + max(2y, 0), 2y <= (4/e) e^(y/2)
    return proven(make_exp_gevrey_member(2.0, a), 0.5, 8.0 / (a * math.e**2) + 4.0 / math.e)


# -- Young conjugate -----------------------------------------------------------


def test_phi_star_linear_at_e(linear):
    assert phi_star(linear, math.e) == pytest.approx(0.0, abs=1e-9)


def test_phi_star_sqrt(power_half):
    assert phi_star(power_half, 1.0) == pytest.approx(2 * math.log(2) - 2, abs=1e-9)


def test_phi_star_zero_of_normalized(logsq):
    assert phi_star(logsq, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_phi_star_matches_closed_forms(power_half, logsq, linear):
    xs = np.array([0.0, 0.2, 1.0, 4.7, 33.0, 1e3, 1e6])
    xs_slow = np.array([0.0, 0.2, 1.0, 4.7, 33.0, 400.0, 1000.0, 1400.0, 1e4])
    for w, grid in ((power_half, xs), (logsq, xs_slow), (linear, xs)):
        got = phi_star(w, grid)
        want = np.asarray(w.phi_star_ref(grid), dtype=float)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9), w.name


def test_phi_star_maximizer_monotone(power_half):
    xs = np.array([0.5, 1.0, 10.0, 100.0, 1e4])
    ys = phi_star_maximizer(power_half, xs)
    assert np.all(np.diff(ys) >= -1e-9)


def test_phi_star_unbounded_for_logarithmic_weight():
    w = WeightFn("slowlog", lambda ys: np.logaddexp(0.0, ys))  # log(1 + t)
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


def test_assoc_quadrature_refused_without_envelope(factorial, gevrey2):
    # associated functions carry no envelope: their transforms are closed forms
    for seq in (factorial, gevrey2):
        w = omega_from_seq(seq)
        with pytest.raises(EnvelopeRequired):
            kappa(w, 2.0)
        with pytest.raises(EnvelopeRequired):
            poisson_interval(omega_tilde_from_seq(seq), 2.0)
    w = omega_tilde_from_seq(gevrey2)
    kap = kappa_fn(w)
    assert kap.envelope is None
    assert kap.phi(3.0) == pytest.approx(kappa_assoc(w, math.e**3) - kappa_assoc(w, 1.0), rel=1e-12)


def test_proven_envelopes_cover_samples():
    ys = np.linspace(-5.0, 400.0, 2000)
    for w in [gevrey_tilde(s) for s in (1.5, 2.0, 3.0)] + [expgevrey_tilde(a) for a in (0.125, 1.0, 8.0)]:
        assert np.all(w.envelope.bound(ys) - w.phi(ys) >= 0.5), w.name


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
    w = WeightFn("bad", power_half._phi, envelope=Envelope(0.999999, 0, 1))
    w.envelope = Envelope(1.0, 0.0, 1.0).__class__(1.0, 0.0, 1.0)
    with pytest.raises(QuasianalyticInput):
        kappa(w, 2.0)


def test_kappa_assoc_matches_quadrature():
    # t = 1e6 grows the quotient array past 10^4 terms, where the tail
    # remainder must still come from the right index
    for s in (2.0, 1.5, 3.0):
        w = gevrey_tilde(s)
        for t in (0.5, 3.0, 100.0, 1e4, 1e6):
            assert kappa_assoc(w, t) == pytest.approx(kappa(w, t), rel=1e-7)


def test_kappa_assoc_matches_quadrature_exp_gevrey():
    w = expgevrey_tilde(1.0)
    for t in (2.0, 50.0, 1e3):
        assert kappa_assoc(w, t) == pytest.approx(kappa(w, t), rel=1e-6)


def test_kappa_assoc_inside_quadrature_bracket_at_large_t():
    # the transform of log(1+t^2) is log(1+t^2) + 2t arctan(1/t) -> 2; written
    # as t (pi - 2 arctan t) it cancels to rounding noise beyond t ~ 1e8
    w = expgevrey_tilde(8.0)
    for y in (20.0, 50.0, 400.0):
        iv = kappa_interval(w, math.exp(y))
        assert iv.lo <= kappa_assoc(w, math.exp(y)) <= iv.hi, y


def test_kappa_fn_of_logsq_is_exact_at_large_y(logsq):
    # kappa = y^2 + 2y + 2 for y >= 0, normalized by kappa(1) = 2; t = e^800
    # is beyond the float range
    assert kappa_fn(logsq).phi(800.0) == 800.0**2 + 2 * 800.0


def test_tilde_log_term_is_exact_for_every_y(gevrey2, qgevrey2):
    # omega~ - omega_M = log(1 + t^2) = logaddexp(0, 2y); a cap of t at 1e150
    # would give log1p(1e300) = 690.8 at y = 400.  omega_M of gevrey2 passes
    # 1e43 by y = 200, where adding the log term is below its rounding, so the
    # slowly growing q-Gevrey sequence carries the large arguments
    for seq, ys in ((gevrey2, (1.0,)), (qgevrey2, (1.0, 200.0, 400.0))):
        base, tilde = omega_from_seq(seq), omega_tilde_from_seq(seq)
        for y in ys:
            assert tilde.phi(y) - base.phi(y) == pytest.approx(np.logaddexp(0.0, 2 * y), abs=1e-9)


def test_poisson_sqrt_value(power_half):
    assert poisson_imag(power_half, 1.0) == pytest.approx(math.sqrt(2), abs=1e-8)


@pytest.mark.parametrize("beta", [0.3, 0.7])
def test_poisson_power_closed_form(beta):
    w = make_power_weight(beta)
    for r in (0.5, 2.0, 1e3):
        assert poisson_imag(w, r) == pytest.approx(r**beta / math.cos(math.pi * beta / 2), rel=1e-7)


def test_poisson_scaling_linearity(power_half):
    doubled = WeightFn("2w", lambda ys: 2.0 * power_half._phi(ys), envelope=Envelope(0.5, 0.0, 2.0))
    assert poisson_imag(doubled, 3.0) == pytest.approx(2 * poisson_imag(power_half, 3.0), rel=1e-8)


def test_poisson_batch_matches_scalar():
    w = gevrey_tilde(2.0)
    ys = np.linspace(-2.0, 10.0, 9)
    batch = poisson_batch(w, ys)
    single = np.array([poisson_imag(w, float(r)) for r in np.exp(ys)])
    assert np.allclose(batch, single, rtol=1e-9, atol=1e-9)
    assert poisson_batch(w, []).shape == (0,)


def test_poisson_batch_without_quadrature_matches_interval():
    # the closed form lies inside the quadrature bracket wherever the
    # window |log mu_j - log r| <= 8 stays inside the quotient array
    for w in [gevrey_tilde(s) for s in (1.5, 2.0, 3.0)] + [expgevrey_tilde(a) for a in (0.125, 1.0, 8.0)]:
        for r in (0.5, 10.0, 1e3, 1e6):
            if r == 1e6 and w.assoc._log_mu[-1] < math.log(r) + func_core.P_WINDOW:
                continue
            iv = poisson_interval(w, r)
            assert iv.lo <= poisson_batch(w, [math.log(r)])[0] <= iv.hi, (w.name, r)


def test_poisson_interval_of_a_radius_past_the_cutoff():
    # omega vanishes on [0, 1], so for r = 1e-3 the integral starts at
    # u = -log r, beyond the cutoff: the whole value is the envelope tail
    w = WeightFn("tiny", lambda ys: 1e-12 * np.sqrt(np.maximum(np.expm1(ys), 0.0)),
                 envelope=Envelope(0.5, 0.0, 1e-12), normalized=True)
    y = math.log(1e-3)
    iv = poisson_interval(w, 1e-3)
    assert iv.lo == 0.0 and iv.hi == float(func_core._envelope_tail(w.envelope, y, -y, 2.0 / math.pi)) > 0.0


def test_ti2_is_catalan_at_one_and_inverts():
    assert abs(func_core._ti2(np.array([1.0]))[0] - CATALAN) <= 1e-15
    # Ti2(x) = Ti2(1) + int_0^log(x) arctan(e^u) du, by a 200-point rule
    nodes, weights = np.polynomial.legendre.leggauss(200)
    for x in (1.5, 10.0, 1e3):
        half = 0.5 * math.log(x)
        direct = CATALAN + half * float(weights @ np.arctan(np.exp(half * (nodes + 1.0))))
        inverted = float(func_core._ti2(np.array([1.0 / x]))[0]) + 0.5 * math.pi * math.log(x)
        assert inverted == pytest.approx(direct, rel=1e-14, abs=1e-14), x


def test_ti2_blocks_match_one_pass(rng):
    x = rng.uniform(0.0, 1.0, 2**14 + 5)
    one_pass = np.arctan(np.multiply.outer(x, func_core._TI2_NODES)) @ func_core._TI2_COEFFS
    assert np.array_equal(func_core._ti2(x), one_pass)


def test_phi_star_blocks_match_per_block_calls(power_half, rng):
    block = func_core.PHI_STAR_BLOCK
    xs = rng.uniform(0.0, 50.0, 2 * block + 1)
    per_block = np.concatenate([phi_star(power_half, xs[i : i + block]) for i in range(0, len(xs), block)])
    assert np.array_equal(phi_star(power_half, xs), per_block)


def test_closed_form_P_past_the_array_overlaps_quadrature():
    # gevrey 1.5 at r = 1e6: log mu_J = 17.7 < log r + 8, so the terms past
    # the 2^17-term array are only bracketed
    w = gevrey_tilde(1.5)
    p, lo, hi = func_core._poisson_assoc(w, np.array([math.log(1e6)]))
    assert w.assoc._log_mu[-1] < math.log(1e6) + func_core.P_WINDOW
    iv = poisson_interval(w, 1e6)
    assert lo[0] <= iv.hi and iv.lo <= hi[0] and lo[0] <= p[0] <= hi[0]


def test_closed_form_P_at_huge_radius():
    w = omega_tilde_from_seq(make_exp_gevrey_member(2.0, 8.0))
    assert np.all(np.isfinite(poisson_batch(w, [1000.0])))
    # a radius beyond the last quotient of an array at its cap is refused
    g = omega_tilde_from_seq(make_gevrey(2.0))
    with pytest.raises(TruncationExhausted):
        poisson_batch(g, [g.assoc._log_mu[-1] + 1.0])


def test_closed_form_P_of_a_finite_sequence_is_exact_beyond_its_quotients():
    # M with quotients e, e^2: omega_M(r) = 2 log r - 3 beyond e^2, and every
    # term of the sum is in the window
    seq = WeightSeq.from_values("two", [0.0, 1.0, 3.0], is_weight_seq=True)
    w = omega_from_seq(seq)
    y = 20.0
    p, lo, hi = func_core._poisson_assoc(w, np.array([y]))
    ti2 = [float(func_core._ti2(np.array([math.exp(v - y)]))[0]) for v in (1.0, 2.0)]
    assert p[0] == pytest.approx(2 * y - 3 + (2 / math.pi) * sum(ti2), rel=1e-15)
    assert lo[0] <= p[0] <= hi[0]


def test_sandwich_on_assoc(gevrey2):
    w = omega_tilde_from_seq(gevrey2)
    for r in log_t_grid(1.0, 1e5, 9):
        P = poisson_batch(w, [math.log(r)])[0]
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


def test_normalize_fn_refuses_a_flat_weight():
    # omega constant past 1: the normalized function vanishes and its
    # conjugate sup_y x y is unbounded; the plateau search must stop
    flat = WeightFn("flat", lambda ys: np.minimum(ys, 0.0))
    with pytest.raises(UnboundedConjugate):
        normalize_fn(flat)


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
    # squared-log members diverge linearly; member 8 at k = 256 has its
    # conjugate maximizer at y = 1024
    mat_l = matrix_from_omega(logsq)
    assert not seq_equivalent(mat_l.member(0.125), mat_l.member(8.0), 256).holds


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 1.0])
def test_assoc_far_path_matches_the_factorial_closed_form(s):
    # past the array the sup of k y - s log k! is at k* = floor(e^(y/s)); s = 1 is k!
    seq = make_factorial() if s == 1.0 else make_gevrey(s)
    ev = omega_from_seq(seq).assoc
    ys = np.linspace(ev._log_mu[-1] + 1e-3, s * math.log(2.0**52), 40)
    ks = np.floor(np.exp(ys / s))
    exact = np.array([k * y - s * math.lgamma(k + 1.0) for k, y in zip(ks, ys)])
    val, _ = ev.eval(ys)
    assert np.max(np.abs(val - exact) / exact) < 1e-13


def test_assoc_far_path_of_a_conjugate_member(power_half):
    # member 1 of the canonical matrix has log M_k = phi*(k) for phi(y) = e^(y/2) - 1,
    # so the sup of k y - log M_k sits near k = phi'(y) = e^(y/2)/2
    ev = omega_from_seq(matrix_from_omega(power_half).member(1.0)).assoc
    ys = np.linspace(ev._log_mu[-1] + 1e-3, 60.0, 20)
    ref = normalize_fn(power_half).phi_star_ref
    k0 = np.floor(0.5 * np.exp(ys / 2.0))
    oracle = np.max([(k0 + d) * ys - ref(k0 + d) for d in (-2.0, -1.0, 0.0, 1.0, 2.0)], axis=0)
    val, _ = ev.eval(ys)
    assert np.max(np.abs(val - oracle) / oracle) < 1e-13


def test_assoc_far_bracket_that_stays_open_is_refused(factorial):
    # k* = e^800 is past the float range, so no finite bracket exists
    with pytest.raises(TruncationExhausted):
        omega_from_seq(factorial).phi(800.0)


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
    dil = WeightFn("dilate", lambda ys: power_half._phi(ys + math.log(2.0)), envelope=Envelope(0.5, 0.0, 2.0))
    assert fn_preceq(power_half, dil).holds and fn_preceq(dil, power_half).holds
    # without the closed form of the power weight both transforms come from quadrature
    bare = WeightFn("power-bare", power_half._phi, envelope=power_half.envelope)
    k1, k2 = kappa_fn(bare), kappa_fn(dil)
    assert fn_preceq(k1, k2).holds and fn_preceq(k2, k1).holds


# -- associated-function structure lemmas ---------------------------------------------


def test_mg_matches_value_doubling_of_assoc(gevrey2, qgevrey2):
    # moderate growth of M <-> value-doubling condition of its associated fn
    assert has_moderate_growth(gevrey2, 128).holds
    assert fn_predicates(omega_from_seq(gevrey2)).om6.holds
    assert has_moderate_growth(qgevrey2, 64).fails
    assert not fn_predicates(omega_from_seq(qgevrey2)).om6.holds


def test_assoc_non_quasianalyticity_from_the_tail_bracket(gevrey2, factorial):
    assert fn_predicates(omega_from_seq(gevrey2)).non_quasianalytic.holds
    assert fn_predicates(omega_from_seq(factorial)).non_quasianalytic.fails


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
