import math
import tracemalloc

import numpy as np
import pytest

from ultraweights import _kernels, func_core
from ultraweights.catalog import (
    gammaln,
    make_exp_gevrey_member,
    make_factorial,
    make_gevrey,
    make_power_weight,
    make_q_gevrey,
    resolve,
)
from ultraweights.errors import (
    EnvelopeRequired,
    NotAWeightSequence,
    QuasianalyticInput,
    TruncationExhausted,
    UnboundedConjugate,
)
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
from ultraweights.seq_core import WeightSeq, has_moderate_growth, log_convex_minorant, log_tail_bracket, seq_equivalent

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
    with pytest.raises(UnboundedConjugate, match=r"^slowlog: no finite bracket for the conjugate at x=2$"):
        phi_star(w, 2.0)
    assert w._lattice.y[-1] == 2.0 ** (func_core.LATTICE_TOP / func_core.LATTICE_STEPS)


def test_lattice_chunks_change_no_point(power_half):
    # chunks double from LATTICE_CHUNK to an octave, LATTICE_STEPS points;
    # the points, their g and their slopes are those of any other schedule
    g = normalize_fn(power_half).phi

    def lattice() -> func_core._Lattice:
        return func_core._Lattice(0.0, func_core.LATTICE_TOP)

    whole, steps, fixed = lattice(), lattice(), lattice()
    whole.bracket(g, np.array([1e3]))
    for x in np.geomspace(1e-3, 1e3, 60):
        steps.bracket(g, np.array([x]))
    fixed.gy = g(fixed.y)
    while len(fixed.y) < len(whole.y):
        fixed._chunk = func_core.LATTICE_CHUNK
        fixed._extend(g)
    for lat in (steps, fixed):
        for name in ("y", "gy", "slope"):
            assert np.array_equal(getattr(lat, name), getattr(whole, name)), name


@pytest.mark.parametrize("uri", ["fn:power?beta=0.5", "fn:logsq"])
@pytest.mark.parametrize("alpha", [0.125, 8.0])
def test_phi_star_on_member_grids_matches_the_closed_form(uri, alpha):
    # the grids x = alpha k, k = 0..2^17, on which the canonical matrix's members conjugate
    w = normalize_fn(resolve(uri))
    xs = alpha * np.arange(2**17 + 1, dtype=float)
    ref = np.asarray(w.phi_star_ref(xs), dtype=float)
    assert np.max(np.abs(phi_star(w, xs) - ref) / np.maximum(1.0, np.abs(ref))) <= 2e-15


@pytest.mark.parametrize("cap", [func_core.GOLDEN_ITERS, 54])
def test_phi_star_at_the_kinks_of_an_associated_function(gevrey2, cap, monkeypatch):
    # omega_M is piecewise linear in y with slope k between log mu_k and
    # log mu_(k+1): at x = k the sup log M_k is attained between two kinks,
    # and at x = k + 1/2 only at the kink log mu_(k+1).  Every parabolic
    # seed falls back at these x, so golden section starts from the
    # neighbours of the best lattice point; near a kink the certificate's
    # bound then shrinks only linearly and holds after 51 to 60 steps here,
    # so a cap of 54 stops about half of the half-integer x at their best
    # probe
    monkeypatch.setattr(func_core, "GOLDEN_ITERS", cap)
    w = omega_from_seq(gevrey2)
    ks = np.arange(65, dtype=float)
    log_m, log_mu = gevrey2.values(64), gevrey2.log_mu(65)
    want = np.concatenate([log_m, log_m + 0.5 * log_mu])
    got = phi_star(w, np.concatenate([ks, ks + 0.5]))
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


def test_golden_max_at_the_kinks_adds_at_most_four_g_calls(gevrey2, monkeypatch):
    # golden section from a fallback bracket makes GOLDEN_ITERS + 2 g calls
    # at most (c and d, then one per step).  Seeding adds at most 4: one per
    # round and one for the probes c and d of quadruples that fail the
    # check, as the quadruples' own call takes over c and d.  Here every
    # seed falls back and the cap of 54 binds
    monkeypatch.setattr(func_core, "GOLDEN_ITERS", 54)
    w = omega_from_seq(gevrey2)
    ks = np.arange(65, dtype=float)
    xs = np.concatenate([ks, ks + 0.5])
    phi_star(w, xs)  # extends the lattice, so that the calls below are the search's own
    calls = []

    def g(ys):
        calls.append(len(ys))
        return w.phi(ys)

    func_core._golden_max(g, w._lattice, xs, ValueError)
    assert len(calls) <= func_core.GOLDEN_ITERS + 2 + 4


def test_fallback_brackets_at_the_kinks_match_the_lattice_brackets(gevrey2, monkeypatch):
    # omega_M has every maximizer at a kink log mu_k, where the seeds fall
    # back.  Golden section from the neighbours of the best probe agrees
    # with golden section from the lattice bracket within the certificate's
    # allowance at each, and with the closed form, in fewer g calls
    w = omega_from_seq(gevrey2)
    xs = np.linspace(0.01, 40.0, 4001)
    phi_star(w, xs)  # extends the lattice, so that the calls below are the search's own
    calls = []

    def g(ys):
        calls.append(len(ys))
        return w.phi(ys)

    narrowed = func_core._golden_max(g, w._lattice, xs, ValueError)[0]
    narrowed_calls = len(calls)
    monkeypatch.setattr(func_core, "_narrowed", lambda a, b, fa, fb, points: (a, b, fa, fb))
    calls.clear()
    lattice = func_core._golden_max(g, w._lattice, xs, ValueError)[0]
    assert np.all(np.abs(narrowed - lattice) <= 2.0 * func_core.GOLDEN_TOL * (1.0 + np.abs(lattice)))
    assert narrowed_calls < len(calls)
    k = np.floor(xs).astype(int)
    exact = gevrey2.values(40)[k] + (xs - k) * gevrey2.log_mu(41)[k]
    assert np.max(np.abs(narrowed - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-13


def test_phi_star_just_above_zero_on_the_plateau(power_half):
    # normalize_fn clamps phi to 0 on [0, y_c].  For power_half y_c = 0 and
    # x y - phi(y) peaks at y = 0 for x < 1/2; for max(|y| - 1, 0)^2,
    # y_c = 1 and the conjugate x + x^2/4 is attained at 1 + x/2
    xs = np.array([1e-300, 1e-12, 1e-6, 1e-3, 0.25])
    assert np.all(phi_star(normalize_fn(power_half), xs) == 0.0)
    flat = normalize_fn(plateau())
    assert np.max(np.abs(phi_star(flat, xs) - (xs + xs**2 / 4.0))) <= 2e-15


def plateau() -> WeightFn:
    return WeightFn("plateau", lambda ys: np.maximum(np.abs(ys) - 1.0, 0.0) ** 2)


@pytest.mark.parametrize("uri", ["fn:power?beta=0.5", "fn:logsq"])
@pytest.mark.parametrize("alpha", [0.125, 1.0, 8.0])
def test_phi_star_asks_for_at_most_22_points_per_x(uri, alpha):
    # seeded golden section takes about 16 points per x on these grids,
    # golden section from a fallback bracket up to about 35; no call holds more
    # than a block's worth of points (64 KiB)
    wn = normalize_fn(resolve(uri))
    inner, asked = wn._phi, []

    def counted(ys):
        asked.append(len(ys))
        return inner(ys)

    wn._phi = counted
    xs = alpha * np.arange(2**17 + 1, dtype=float)
    phi_star(wn, xs)
    assert sum(asked) <= 22 * len(xs) and max(asked) <= func_core.PHI_STAR_BLOCK


@pytest.mark.parametrize("name", ["power", "logsq", "gevrey2"])
def test_phi_star_is_the_same_per_element_and_in_any_order(name, gevrey2, rng):
    # each x's probes and value depend only on phi and x.  The gevrey 2
    # associated function has kinks, where seeds fall back; its x stay at
    # most 2^17, where the maximizers lie inside its quotient array
    w, top = {
        "power": (normalize_fn(resolve("fn:power?beta=0.5")), 2**17),
        "logsq": (normalize_fn(resolve("fn:logsq")), 2**17),
        "gevrey2": (omega_from_seq(gevrey2), 2**14),
    }[name]
    xs = rng.choice(func_core.DEFAULT_GRID, 300) * rng.integers(0, top + 1, 300)
    together = phi_star(w, xs)
    order = rng.permutation(len(xs))
    shuffled = np.empty_like(xs)
    shuffled[order] = phi_star(w, xs[order])
    assert np.array_equal(shuffled, together)
    assert np.array_equal(np.array([phi_star(w, x) for x in xs]), together)


@pytest.mark.parametrize("w", [normalize_fn(make_power_weight(0.5)), normalize_fn(plateau())], ids=["power", "plateau"])
def test_phi_star_probes_stay_in_the_lattice_bracket(w):
    xs = np.concatenate([[1e-300, 1e-12, 1e-6, 1e-3, 0.25, 0.5], np.geomspace(0.5, 1e6, 40)])
    phi_star(w, xs)  # extends the lattice, so that the probes below are the search's own
    inner = w._phi
    for x in xs:
        a, b = w._lattice.bracket(w.phi, np.array([x]))[:2]
        probes = []
        w._phi = lambda ys: (probes.append(ys.copy()), inner(ys))[1]
        try:
            phi_star(w, x)
        finally:
            w._phi = inner
        ys = np.concatenate(probes)
        assert w._lattice.y[0] <= a[0] <= ys.min() and ys.max() <= b[0], x


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
    # the full scan over the table is the oracle for the path through its minorant
    vals = np.concatenate([[0.0], np.cumsum(np.linspace(0.1, 3.0, 64))])
    vals[3] += 1.0  # break log-convexity
    seq = WeightSeq.from_values("pos", vals)
    w = omega_from_seq(seq)
    ts = np.array([0.5, 1.5, 5.0, 15.0])
    sup, _ = _kernels.assoc_sup(vals, np.log(ts))
    assert w.omega(ts) == pytest.approx(np.maximum(sup, 0.0), abs=1e-12)


def test_assoc_of_an_undeclared_table_is_that_of_its_declared_minorant():
    vals = 2.0 * gammaln(np.arange(257.0) + 1.0)
    vals[[3, 40, 200]] += 4.0  # break log-convexity
    undeclared = WeightSeq.from_values("bumped", vals)
    minorant = WeightSeq.from_values("hull", log_convex_minorant(undeclared, 256).values(256), is_weight_seq=True)
    ts, log_rs = np.exp(np.linspace(-2.0, 12.0, 57)), np.linspace(-2.0, 12.0, 29)
    w, want = omega_tilde_from_seq(undeclared), omega_tilde_from_seq(minorant)
    assert np.array_equal(kappa_assoc(w, ts), kappa_assoc(want, ts))
    assert np.array_equal(poisson_batch(w, log_rs), poisson_batch(want, log_rs))


def test_assoc_of_an_undeclared_sequence_without_a_last_index_is_refused():
    seq = WeightSeq("undeclared", lambda kk: 2.0 * gammaln(kk + 1.0))
    with pytest.raises(NotAWeightSequence):
        omega_from_seq(seq)


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


def test_brackets_widen_where_the_panel_budget_runs_out_by_itself(power_half):
    # at t = 1e10 the integrands reach 1e5, so a panel's share of the 1e-10
    # tolerance soon falls below the rounding of its sum: the bisection spends
    # its budget and widens both brackets, far past the 1e-9 of a converged one
    t = 1e10
    kap, pois = kappa_interval(power_half, t), poisson_interval(power_half, t)
    assert kap.lo <= t**0.5 / 0.5 <= kap.hi and 1e-7 < kap.width < 1e-5
    assert pois.lo <= t**0.5 / math.cos(math.pi / 4) <= pois.hi and 1e-5 < pois.width < 1e-3


def test_quadrature_sums_left_to_right():
    # 1e16 absorbs each 1.0 in turn, so only the left-to-right order gives 0:
    # the pairwise ndarray.sum and a compensated sum give 16
    x = np.array([1e16, *[1.0] * 16, -1e16])
    assert func_core._in_order(x) == 0.0 and x.sum() != 0.0 and math.fsum(x) == 16.0
    assert func_core._in_order(np.empty(0)) == 0.0


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


def test_omega_of_a_sequence_with_mu1_below_one(small_gevrey2):
    # omega_M(t) = sum_j log+(t/mu_j) > 0 on (mu_1, 1]: 12 quotients lie below log r = -4.2,
    # so P' >= 9.15 there, and the matrix is built on the normalized representative
    w = omega_tilde_from_seq(small_gevrey2)
    p_before, p_at = poisson_batch(w, [-4.2 - 1e-4, -4.2])
    assert (p_at - p_before) / 1e-4 >= 9.15
    omega = omega_from_seq(small_gevrey2)
    assert not omega.normalized
    assert matrix_from_omega(omega).member(1.0).log_m(0) == 0.0


def test_poisson_batch_matches_scalar():
    w = gevrey_tilde(2.0)
    ys = np.linspace(-2.0, 10.0, 9)
    batch = poisson_batch(w, ys)
    single = np.array([poisson_imag(w, float(r)) for r in np.exp(ys)])
    assert np.allclose(batch, single, rtol=1e-9, atol=1e-9)
    assert poisson_batch(w, []).shape == (0,)


def test_poisson_batch_without_quadrature_matches_interval():
    # the closed form lies inside the quadrature bracket wherever the window
    # |log mu_j - log r| <= 8 (`_ti2` to 3, the alternating series from 3 to
    # 8) stays inside the quotient array
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


def test_ti2_series_brackets_ti2_past_the_core():
    # Ti2(x) = x - x^3/9 + x^5/25 - ... alternates with falling terms, so the
    # sum S through x^9 lies above Ti2 by at most x^11/121.  Against 40-digit
    # values _ti2 errs by up to 1.3 ulps of x and S by up to 0.7: 3 eps x of slack
    x = np.exp(-np.linspace(func_core.P_CORE, 40.0, 20001))
    s, ti2 = func_core._ti2_series(x), func_core._ti2(x)
    slack = 3.0 * np.finfo(float).eps * x
    assert np.all(s - x**11 / 121.0 - slack <= ti2) and np.all(ti2 <= s + slack)
    assert np.max(x**10 / 121.0) <= 7.8e-16  # the band's relative error per term


@pytest.fixture(scope="module")
def power_matrix(power_half):
    return matrix_from_omega(power_half)


def _p_families(power_matrix) -> list:
    return ([gevrey_tilde(s) for s in (1.5, 2.0, 3.0)] + [expgevrey_tilde(a) for a in (0.125, 8.0)]
            + [omega_tilde_from_seq(power_matrix.member(a)) for a in (0.125, 8.0)])


def test_poisson_batch_band_series_matches_ti2_over_the_window(power_matrix, monkeypatch):
    for w in _p_families(power_matrix):
        ev = w.assoc
        ev.ensure_cover(math.inf)  # the array at its cap: the last radius's window crosses its end
        ys = np.array([math.log(0.5), math.log(10.0), math.log(1e3), ev._log_mu[-1] - 4.0])
        p, lo, hi = func_core._poisson_assoc(w, ys)
        assert np.searchsorted(ev._log_mu, ys[-1] + func_core.P_WINDOW) == ev._n < ev.seq.max_index, w.name
        with monkeypatch.context() as m:
            m.setattr(func_core, "P_CORE", func_core.P_WINDOW)  # `_ti2` on every window term
            exact = func_core._poisson_assoc(w, ys)[0]
        assert np.all(np.abs(p - exact) <= 1e-15 * np.abs(exact)), w.name
        assert np.all((lo <= p) & (p <= hi)), w.name


@pytest.mark.parametrize("member, n", [(1.0, 64), (None, 256)], ids=["power-1", "gevrey2"])
def test_P_of_seq_Q_takes_ti2_at_a_tenth_of_the_window_terms(power_matrix, member, n, monkeypatch):
    from ultraweights.derived import seq_Q

    m = make_gevrey(2.0) if member is None else power_matrix.member(member)
    points, ti2 = [], func_core._ti2
    monkeypatch.setattr(func_core, "_ti2", lambda x: points.append(len(x)) or ti2(x))
    q = seq_Q(m, n).values(n)
    core = sum(points)
    points.clear()
    monkeypatch.setattr(func_core, "P_CORE", func_core.P_WINDOW)
    assert np.allclose(seq_Q(m, n).values(n), q, rtol=1e-15, atol=0.0)
    assert 10 * core <= sum(points), (core, sum(points))


@pytest.mark.parametrize("kind", ["gevrey2", "qgevrey", "expgevrey", "power-1/8", "complete"])
def test_assoc_tail_reads_match_the_full_bracket(kind, power_matrix, rng):
    # every tail is a series, evaluated only at the counts read, bit for bit
    # as in the full arrays: the three catalog series tails (q-Gevrey's with
    # no span and an exact remainder, exp-Gevrey's with a remainder whose log
    # lower end is -inf) and the generic one of a conjugate-built member
    seq = {"gevrey2": lambda: make_gevrey(2.0), "qgevrey": lambda: make_q_gevrey(1.5),
           "expgevrey": lambda: make_exp_gevrey_member(2.0, 0.3), "power-1/8": lambda: power_matrix.member(0.125),
           "complete": lambda: WeightSeq.from_values("tab", make_gevrey(2.0).values(300), is_weight_seq=True)}[kind]()
    ev = omega_from_seq(seq).assoc
    n = ev._n
    assert (n == seq.max_index) == (kind == "complete")
    lo, hi = log_tail_bracket(seq, np.arange(1, n + 2), n)
    counts = np.concatenate([[0, n], rng.integers(0, n + 1, 1000)])
    lo_c, hi_c = ev.log_tail_after(counts)
    assert lo_c.tobytes() == lo[counts].tobytes() and hi_c.tobytes() == hi[counts].tobytes()


def test_assoc_evaluator_keeps_three_arrays_of_its_length():
    # log M, log mu and the tail's suffix log-sums; not the tail's two ends
    omega_from_seq(make_gevrey(2.0))  # the modules that the first build imports
    tracemalloc.start()
    try:
        ev = omega_from_seq(make_gevrey(2.0)).assoc
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ev._n == ev.ARRAY_CAP and kept <= 3 * 8 * (ev._n + 1) + 2**16


def test_phi_star_blocks_match_per_block_calls(power_half, rng):
    block = func_core.PHI_STAR_BLOCK
    xs = rng.uniform(0.0, 50.0, 2 * block + 1)
    per_block = np.concatenate([phi_star(power_half, xs[i : i + block]) for i in range(0, len(xs), block)])
    assert np.array_equal(phi_star(power_half, xs), per_block)


def test_phi_star_does_not_depend_on_how_far_the_lattice_reaches(power_half):
    xs = np.linspace(0.0, 50.0, 1001)
    fresh = phi_star(normalize_fn(power_half), xs)
    wn = normalize_fn(power_half)
    phi_star(wn, 1e6)  # extends the lattice far past the maximizers of xs
    assert np.array_equal(phi_star(wn, xs), fresh)


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
    # member n at k equals member 1 at n k divided by n
    mat = matrix_from_omega(power_half)
    ks = np.arange(0, 65, dtype=float)
    for nshift in (2, 3):
        lhs = mat.member(float(nshift)).log_m(ks)
        rhs = mat.member(1.0).log_m(nshift * ks) / nshift
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_matrix_members_equivalent_iff_value_doubling(power_half, logsq):
    mat_p = matrix_from_omega(power_half)
    assert seq_equivalent(mat_p.member(0.125), mat_p.member(8.0), 256).holds
    # squared-log members diverge linearly; member 8 at k = 256 has its
    # conjugate maximizer at y = 1024
    mat_l = matrix_from_omega(logsq)
    assert not seq_equivalent(mat_l.member(0.125), mat_l.member(8.0), 256).holds


def count_conjugate_points(monkeypatch) -> list[int]:
    """Patch `func_core.phi_star` to record how many x each call asks for."""
    asked, inner = [], func_core.phi_star

    def counted(w, x):
        asked.append(np.size(x))
        return inner(w, x)

    monkeypatch.setattr(func_core, "phi_star", counted)
    return asked


@pytest.mark.parametrize("uri", ["fn:power?beta=0.5", "fn:logsq"])
def test_matrix_members_built_after_half_their_parameter_are_bitwise_unchanged(uri):
    n = 2**17
    mat = matrix_from_omega(resolve(uri))
    for a in mat.grid:  # ascending: each member reads the one at half its parameter
        mat.member(a).values(n)
    for a in (0.25, 1.0, 8.0):
        alone = matrix_from_omega(resolve(uri)).member(a).values(n)
        assert np.array_equal(mat.member(a).values(n), alone)


def test_matrix_members_do_not_depend_on_the_build_order(power_half):
    n = 2**12
    alone = {a: matrix_from_omega(power_half).member(a).values(n) for a in func_core.DEFAULT_GRID}
    descending = matrix_from_omega(power_half)
    for a in func_core.DEFAULT_GRID[::-1]:
        assert np.array_equal(descending.member(a).values(n), alone[a])
    # members at half the parameter cached to 2^10 and 2^11 only: member 2
    # reads k <= 512 of member 1 and evaluates the rest
    partial = matrix_from_omega(power_half)
    partial.member(1.0).values(2**10)
    partial.member(0.5).values(2**11)
    for a in (2.0, 1.0, 4.0):
        assert np.array_equal(partial.member(a).values(n), alone[a])
    # k = 0, a real k and a k past every prefix take the conjugate; k = 3 is shared
    ks = np.array([0.0, 3.0, 3.5, 2.0**20])
    assert np.array_equal(partial.member(2.0).log_m(ks), matrix_from_omega(power_half).member(2.0).log_m(ks))


def test_matrix_members_share_on_a_non_dyadic_grid(power_half, monkeypatch):
    n = 2**12
    alone = {a: matrix_from_omega(power_half, grid=[1.0, 1.5, 3.0]).member(a).values(n) for a in (1.0, 1.5, 3.0)}
    asked = count_conjugate_points(monkeypatch)
    mat = matrix_from_omega(power_half, grid=[1.0, 1.5, 3.0])
    for a in mat.grid:
        assert np.array_equal(mat.member(a).values(n), alone[a])
    # 1 and 1.5 have no member at half their parameter; 3 reads k <= n/2 of 1.5
    assert sum(asked) <= 2 * n + n // 2 + 8


def test_matrix_members_at_double_the_parameter_evaluate_half_the_conjugates(power_half, monkeypatch):
    asked = count_conjugate_points(monkeypatch)
    mat = matrix_from_omega(power_half)
    mat.member(0.125).values(2**17)
    mat.member(0.25).values(2**17)
    assert sum(asked) <= 2**17 + 2**16 + 64  # 2^18 + 2 when each member evaluates all its own


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


def test_kappa_past_the_array_of_a_quasianalytic_sequence_is_infinite():
    # mu_k = k e^7: harmonic quotients, so sum 1/mu_k diverges, yet the last
    # window fits p = 1 + 1.4e-14; past the array the tail remainder must be
    # refused by the same rule as the tail bracket, not read as k / (p - 1)
    h = WeightSeq("h", lambda kk: gammaln(kk + 1.0) + 7.0 * kk, is_weight_seq=True)
    assert log_tail_bracket(h, [1])[1][0] == np.inf
    w = omega_from_seq(h)
    assert kappa_assoc(w, math.exp(w.assoc._log_mu[-1] + 5.0)) == np.inf


def test_assoc_far_bracket_that_stays_open_is_refused(factorial):
    # k* = e^800 is past the float range, so no finite bracket exists
    with pytest.raises(TruncationExhausted):
        omega_from_seq(factorial).phi(800.0)


def test_assoc_far_lattice_reaches_its_top_in_doubling_chunks(factorial, monkeypatch):
    # the far lattice runs from k = 2^17 to 2^1024, 16 points per doubling of
    # k: fixed 4-point chunks took 3991 extensions to refuse y = 800
    extensions, inner = [], func_core._Lattice._extend

    def counted(self, g):
        extensions.append(1)
        inner(self, g)

    monkeypatch.setattr(func_core._Lattice, "_extend", counted)
    w = omega_from_seq(factorial)
    with pytest.raises(TruncationExhausted):
        w.phi(800.0)
    assert len(extensions) < 64


def test_assoc_far_lattice_stops_at_the_last_index():
    # log M_k = 2 log k! up to k = 2^18 only: the far lattice over k >= 2^17
    # may reach k = 2^18, the lattice point 16 steps above the array's end.
    # y needs points up to about 2^17.9, which a 16-point third chunk would
    # overshoot into indices the sequence does not have
    top = 2**18

    def ev(kk: np.ndarray) -> np.ndarray:
        if np.any(kk > top):
            raise TruncationExhausted(f"index beyond {top}")
        return 2.0 * gammaln(kk + 1.0)

    assoc = omega_from_seq(WeightSeq("finite", ev, is_weight_seq=True, max_index=top)).assoc
    assert assoc._n == 2**17
    y = 2.0 * math.log(2.0 ** (17 + 12.5 / 16))
    val, k = assoc.eval(np.array([y]))
    ks = np.arange(top + 1, dtype=float)
    assert k[0] > assoc._n and val[0] == pytest.approx(np.max(ks * y - ev(ks)), rel=1e-14)
    assert assoc._far_lattice.y[-1] <= top
    with pytest.raises(TruncationExhausted):  # k* past the last index
        assoc.eval(np.array([2.0 * math.log(top) + 1.0]))


def test_assoc_far_path_of_a_tabulated_sequence_takes_the_sup_over_the_table():
    # the same y over the table of log M_k = 2 log k!, k <= 2^18: the far
    # path maximizes over real k, so the table must extend by its chords; a
    # nearest-index step function sent the search to k = 224647 and lost 1.7
    top = 2**18
    vals = 2.0 * gammaln(np.arange(top + 1, dtype=float) + 1.0)
    assoc = omega_from_seq(WeightSeq.from_values("table", vals, is_weight_seq=True)).assoc
    y = 2.0 * math.log(2.0 ** (17 + 12.5 / 16))
    val, k = assoc.eval(np.array([y]))
    objective = np.arange(top + 1) * y - vals
    assert k[0] == np.argmax(objective) == 225262
    assert val[0] == pytest.approx(np.max(objective), rel=1e-12)


# -- order relations and predicates ------------------------------------------------


def test_fn_preceq_examples(power_half):
    w04 = make_power_weight(0.4)
    assert fn_preceq(power_half, power_half).holds
    assert fn_preceq(power_half, w04).holds  # t^0.4 = O(sqrt t)
    assert fn_preceq(w04, power_half).fails  # sqrt t != O(t^0.4)


def late_weight() -> WeightFn:
    # phi(y) = max(y - 20, 0): zero on the whole sampled range t in [4, 1e8]
    return WeightFn("late", lambda ys: np.maximum(ys - 20.0, 0.0))


def test_fn_preceq_where_the_weights_vanish(power_half):
    late = late_weight()
    v = fn_preceq(late, late)  # 0/0 on every t: no data, not a bound
    assert v.inconclusive and v.note == "NaN in trajectory"
    assert fn_preceq(late, power_half).fails  # sqrt t / 0: overflow certificate
    assert fn_preceq(power_half, late).holds  # 0 / sqrt t


def test_fn_predicates_where_the_weight_vanishes():
    rep = fn_predicates(late_weight())
    assert rep.doubling.inconclusive and rep.doubling.note == "NaN in trajectory"
    assert rep.little_o.inconclusive
    # phi(y) = max(y - 12, 0) vanishes below t = e^12, across the first two
    # windows of the o(t) trend: their log ratios are -inf, no decay is certified
    mid = WeightFn("mid", lambda ys: np.maximum(ys - 12.0, 0.0))
    assert fn_predicates(mid).little_o.inconclusive


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
