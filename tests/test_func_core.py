import math
import re
import tracemalloc

import numpy as np
import pytest

from ultraweights import _kernels, func_core
from ultraweights.catalog import (
    gammaln,
    make_exp_gevrey_member,
    make_factorial,
    make_gevrey,
    make_log_square_weight,
    make_power_weight,
    make_q_gevrey,
    resolve,
)
from ultraweights.errors import (
    EnvelopeRequired,
    NoClosedForm,
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


def gevrey_tilde(s: float) -> WeightFn:
    return omega_tilde_from_seq(make_gevrey(s))


def engine(w: WeightFn) -> WeightFn:
    """w without its closed-form maximizer: a copy whose conjugate goes
    through the numeric engine (fixed-point bracket, then golden section)."""
    return WeightFn(w.name, w._phi, envelope=w.envelope, kappa_ref=w.kappa_ref, assoc=w.assoc,
                    include_log_term=w.include_log_term)


def max_rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def expgevrey_tilde(a: float) -> WeightFn:
    return omega_tilde_from_seq(make_exp_gevrey_member(2.0, a))


def oracle_rel(got, want: float) -> float:
    return abs(got - want) / abs(want)


# -- Young conjugate -----------------------------------------------------------


def test_phi_star_linear_at_e(linear):
    assert phi_star(linear, math.e) == pytest.approx(0.0, abs=1e-9)


def test_phi_star_sqrt(power_half):
    assert phi_star(power_half, 1.0) == pytest.approx(2 * math.log(2) - 2, abs=1e-9)


def test_phi_star_zero_of_normalized(logsq):
    assert phi_star(logsq, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_phi_star_matches_closed_forms(power_half, logsq, linear):
    # the closed-form maximizer against the numeric engine, which the
    # certificate puts within GOLDEN_TOL (1 + |f|) of the sup
    xs = np.array([0.0, 0.2, 1.0, 4.7, 33.0, 1e3, 1e6])
    xs_slow = np.array([0.0, 0.2, 1.0, 4.7, 33.0, 400.0, 1000.0, 1400.0, 1e4])
    for w, grid in ((power_half, xs), (logsq, xs_slow), (linear, xs)):
        assert max_rel(phi_star(w, grid), phi_star(engine(w), grid)) <= 2e-15, w.name
    assert phi_star(power_half, 0.2) == -1.0 and phi_star(linear, 0.2) == -1.0  # the maximum at y = 0


def test_phi_star_maximizer_monotone(power_half):
    xs = np.array([0.0, 0.5, 1.0, 10.0, 100.0, 1e4])
    assert np.array_equal(phi_star_maximizer(power_half, xs), power_half.maximizer(xs))
    for w in (power_half, engine(power_half)):
        ys = phi_star_maximizer(w, xs)
        assert np.all(np.diff(ys) >= -1e-9), w
    # the engine's maximizer is a golden probe near the closed form's
    assert np.allclose(phi_star_maximizer(engine(power_half), xs), power_half.maximizer(xs), rtol=1e-6, atol=1e-6)


def test_phi_star_unbounded_for_logarithmic_weight():
    asked = []
    w = WeightFn("slowlog", lambda ys: (asked.append(ys.copy()), np.logaddexp(0.0, ys))[1])  # log(1 + t)
    with pytest.raises(UnboundedConjugate, match=r"^slowlog: no finite bracket for the conjugate at x=2$"):
        phi_star(w, 2.0)
    # the bracket walks the fixed points up to the top, y = 8 * 2^64, and no further
    assert np.concatenate(asked).max() == func_core.LATTICE_TOP == 2.0**67


@pytest.mark.parametrize("x", [math.nan, [1.0, math.nan]])
def test_phi_star_refuses_nan_before_the_lattice_grows(power_half, x):
    # refused before the bracket's walk starts: no phi call at all
    for wn in (normalize_fn(power_half), engine(normalize_fn(power_half))):
        inner, asked = wn._phi, []
        wn._phi = lambda ys: (asked.append(len(ys)), inner(ys))[1]
        with pytest.raises(ValueError, match=r"^conjugate is defined for x >= 0$"):
            phi_star(wn, x)
        assert asked == []


def bracket(g, xs: np.ndarray, doubling: bool = False) -> tuple[np.ndarray, ...]:
    """`phi_star`'s bracket of each x: (a, b, f(a), f(b))."""
    with np.errstate(over="ignore", invalid="ignore"):
        return func_core._bracket(g, 0.0, func_core.LATTICE_TOP, xs, ValueError, doubling)


def test_lattice_chunks_change_no_point(power_half):
    # chunks are an octave, LATTICE_STEPS points, or double from it without
    # bound; an x alone stops the walk early.  The bracket of each x
    # is the same under every schedule, and its ends are fixed points
    g = normalize_fn(power_half).phi
    xs = np.geomspace(1e-3, 1e3, 60)
    together = bracket(g, xs)
    alone = [np.concatenate(v) for v in zip(*(bracket(g, xs[i : i + 1]) for i in range(len(xs))))]
    for got in (alone, bracket(g, xs, doubling=True)):
        for want, v in zip(together, got):
            assert np.array_equal(v, want)
    ends = np.concatenate(together[:2])
    j = np.round(func_core.LATTICE_STEPS * np.log2(ends[ends > 0]))
    assert np.array_equal(ends[ends > 0], 2.0 ** (j / func_core.LATTICE_STEPS)) and j.min() >= func_core.LATTICE_LOW


@pytest.mark.parametrize("uri", ["fn:power?beta=0.5", "fn:logsq"])
@pytest.mark.parametrize("alpha", [0.125, 8.0])
def test_phi_star_on_member_grids_matches_the_closed_form(uri, alpha):
    # the grids x = alpha k, k = 0..2^17, on which the canonical matrix's
    # members conjugate: the closed form against the numeric engine
    w = normalize_fn(resolve(uri))
    xs = alpha * np.arange(2**17 + 1, dtype=float)
    assert max_rel(phi_star(w, xs), phi_star(engine(w), xs)) <= 2e-15


@pytest.mark.parametrize("e", [1000, 1010])
def test_phi_star_engine_where_phi_overflows_on_the_lattice(power_half, e):
    # e^(y/2) overflows past y = 1420, on the lattice and, at x = 2^1010 k,
    # at golden probes too: those points are skipped without a RuntimeWarning
    # (the suite raises them)
    w = normalize_fn(power_half)
    xs = 2.0**e * np.arange(1.0, 4.0)
    assert max_rel(phi_star(engine(w), xs), phi_star(w, xs)) <= 2e-15


@pytest.mark.parametrize("cap", [func_core.GOLDEN_ITERS, 54])
def test_phi_star_at_the_kinks_of_an_associated_function(gevrey2, cap, monkeypatch):
    # omega_M is piecewise linear in y with slope k between log mu_k and
    # log mu_(k+1): at x = k the sup log M_k is attained between two kinks,
    # and at x = k + 1/2 only at the kink log mu_(k+1).  An associated
    # function has no closed-form maximizer, so golden section starts from
    # the neighbours of the best lattice point; near a kink the certificate's
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
    # golden section from the bracket makes GOLDEN_ITERS + 2 g calls at
    # most past the bracket's walk: one for each of the probes c and d,
    # then one per step.  The cap of 54 binds
    monkeypatch.setattr(func_core, "GOLDEN_ITERS", 54)
    w = omega_from_seq(gevrey2)
    ks = np.arange(65, dtype=float)
    xs = np.concatenate([ks, ks + 0.5])
    calls = []

    def g(ys):
        calls.append(len(ys))
        return w.phi(ys)

    bracket(g, xs)
    walk = len(calls)
    calls.clear()
    func_core._golden_max(g, 0.0, func_core.LATTICE_TOP, xs, ValueError)
    assert len(calls) <= walk + func_core.GOLDEN_ITERS + 2


def test_fallback_brackets_at_the_kinks_match_the_lattice_brackets(gevrey2):
    # omega_M has every maximizer at a kink log mu_k.  Golden section from
    # the two-cell bracket around the point after which f stops rising
    # agrees, within the certificate's allowance at each, with golden
    # section from the bracket one fixed point wider on either side (the
    # four cells that a lattice once bracketed in), and with the closed
    # form, in fewer g calls
    w = omega_from_seq(gevrey2)
    xs = np.linspace(0.01, 40.0, 4001)
    assert len(xs) <= func_core.PHI_STAR_BLOCK
    calls = []

    def g(ys):
        calls.append(len(ys))
        return w.phi(ys)

    a, b, fa, fb = bracket(g, xs)
    step = 2.0 ** (1.0 / func_core.LATTICE_STEPS)
    a4, b4 = np.where(a > 2.0 ** (func_core.LATTICE_LOW / func_core.LATTICE_STEPS), a / step, 0.0), b * step
    fa4, fb4 = xs * a4 - w.phi(a4), xs * b4 - w.phi(b4)
    calls.clear()
    narrowed = func_core._golden_block(g, xs, a, b, fa, fb)[0]
    narrowed_calls = len(calls)
    calls.clear()
    lattice = func_core._golden_block(g, xs, a4, b4, fa4, fb4)[0]
    assert np.all(np.abs(narrowed - lattice) <= 2.0 * func_core.GOLDEN_TOL * (1.0 + np.abs(lattice)))
    assert narrowed_calls < len(calls)
    k = np.floor(xs).astype(int)
    exact = gevrey2.values(40)[k] + (xs - k) * gevrey2.log_mu(41)[k]
    assert np.max(np.abs(narrowed - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-13


def test_phi_star_just_above_zero_on_the_plateau(power_half):
    # the normalized phi vanishes on [0, y_c].  For power_half y_c = 0 and
    # x y - phi(y) peaks at y = 0 for x < 1/2; for max(y - 1, 0)^2,
    # y_c = 1 and the conjugate x + x^2/4 is attained at 1 + x/2
    xs = np.array([1e-300, 1e-12, 1e-6, 1e-3, 0.25])
    for wn in (normalize_fn(power_half), engine(normalize_fn(power_half))):
        assert np.all(phi_star(wn, xs) == 0.0)
    flat = normalize_fn(plateau())
    assert np.max(np.abs(phi_star(flat, xs) - (xs + xs**2 / 4.0))) <= 2e-15


def plateau() -> WeightFn:
    return WeightFn("plateau", lambda ys: np.maximum(ys - 1.0, 0.0) ** 2)


@pytest.mark.parametrize("uri", ["fn:power?beta=0.5", "fn:logsq"])
@pytest.mark.parametrize("alpha", [0.125, 1.0, 8.0])
def test_phi_star_asks_for_at_most_22_points_per_x(uri, alpha):
    # now exactly 1 point per x (the name keeps the bound of the former
    # vertex-table seeds): the closed-form maximizer takes phi at the
    # maximizer only (the numeric engine takes 32 to 35 on these
    # grids, 2 for its golden probes and one per step); no call holds more
    # than a block's worth of points (64 KiB)
    wn = normalize_fn(resolve(uri))
    inner, asked = wn._phi, []

    def counted(ys):
        asked.append(len(ys))
        return inner(ys)

    wn._phi = counted
    xs = alpha * np.arange(2**17 + 1, dtype=float)
    phi_star(wn, xs)
    assert sum(asked) == len(xs) and max(asked) <= func_core.PHI_STAR_BLOCK


def test_canonical_matrix_member_arrays_take_one_phi_point_per_conjugate_x(monkeypatch):
    # phi at the closed-form maximizer, past the normalization's one point,
    # phi(0).  Each member asks for the conjugate once per index: its log
    # M_0 check and k = 1 .. 2^17
    n = func_core._AssocEvaluator.ARRAY_CAP
    asked = count_conjugate_points(monkeypatch)
    for uri, normalization in (("fn:power?beta=0.5", 1), ("fn:logsq", 1)):
        w = resolve(uri)
        inner, points = w._phi, []
        w._phi = lambda ys: (points.append(np.size(ys)), inner(ys))[1]
        asked.clear()
        mat = matrix_from_omega(w)
        assert sum(points) == normalization, uri
        for a in mat.grid:
            mat.member(a).values(n)
        assert sum(asked) == len(mat.grid) * (n + 1) == 917_511, uri
        assert sum(points) == normalization + sum(asked) == 1 + 917_511, uri


@pytest.mark.parametrize("name", ["power", "logsq", "kappa-power", "kappa-logsq", "gevrey2"])
def test_phi_star_is_the_same_per_element_and_in_any_order(name, gevrey2, rng):
    # each x's probes and value depend only on phi and x, on the numeric
    # engine and on the closed form; the root of kappa' = x brackets each x
    # by the first doubling point past it, however far the largest x of the
    # call takes the doubling.  The gevrey 2 associated function has kinks;
    # its x stay at most 2^14, where the maximizers lie inside its quotient
    # array
    w, top = {
        "power": (normalize_fn(resolve("fn:power?beta=0.5")), 2**17),
        "logsq": (normalize_fn(resolve("fn:logsq")), 2**17),
        "kappa-power": (kappa_fn(resolve("fn:power?beta=0.5")), 2**17),
        "kappa-logsq": (kappa_fn(resolve("fn:logsq")), 2**17),
        "gevrey2": (omega_from_seq(gevrey2), 2**14),
    }[name]
    xs = rng.choice(func_core.DEFAULT_GRID, 300) * rng.integers(0, top + 1, 300)
    order = rng.permutation(len(xs))
    for v in (w, engine(w)):
        together = phi_star(v, xs)
        shuffled = np.empty_like(xs)
        shuffled[order] = phi_star(v, xs[order])
        assert np.array_equal(shuffled, together)
        assert np.array_equal(np.array([phi_star(v, x) for x in xs]), together)


@pytest.mark.parametrize("uri", ["fn:power?beta=0.1", "fn:power?beta=0.5", "fn:power?beta=0.9", "fn:logsq"])
def test_table_seeded_conjugates_match_rounds_seeded_ones(uri):
    # the closed-form maximizer, which replaced the vertex table's seeds,
    # against the numeric engine, golden section from the narrowed lattice
    # bracket (once seeded by parabolic rounds, hence the name): the engine
    # is certified within GOLDEN_TOL (1 + |f|) of the sup
    xs = np.concatenate([alpha * np.arange(2**17 + 1, dtype=float) for alpha in (0.125, 8.0)])
    closed = phi_star(normalize_fn(resolve(uri)), xs)
    golden = phi_star(engine(normalize_fn(resolve(uri))), xs)
    assert np.all(np.abs(closed - golden) <= 2.0 * func_core.GOLDEN_TOL * (1.0 + np.abs(golden)))


@pytest.mark.parametrize("uri", ["fn:power?beta=0.1", "fn:power?beta=0.5", "fn:logsq"])
def test_phi_star_outside_the_vertex_table_matches_the_closed_form(uri):
    # x past 2^-64 and 2^64, where the former vertex table had no nodes: the
    # numeric engine against the closed form
    w = normalize_fn(resolve(uri))
    xs = np.concatenate([2.0 ** np.linspace(-90.0, -65.0, 26), 2.0 ** np.linspace(64.0, 67.0, 31)])
    assert max_rel(phi_star(engine(w), xs), phi_star(w, xs)) <= 2e-15


@pytest.mark.parametrize(
    "w",
    [engine(normalize_fn(make_power_weight(0.5))), normalize_fn(plateau()), engine(make_log_square_weight())],
    ids=["power", "plateau", "logsq"],
)
def test_phi_star_probes_stay_in_the_lattice_bracket(w):
    # past the calls of the bracket's walk over the fixed points, every phi
    # point of a conjugate lies in the bracket of its x
    xs = np.concatenate([[1e-300, 1e-12, 1e-6, 1e-3, 0.25, 0.5], np.geomspace(0.5, 1e6, 40)])
    inner = w._phi
    for x in xs:
        probes = []
        w._phi = lambda ys: (probes.append(ys.copy()), inner(ys))[1]
        try:
            a, b = bracket(w.phi, np.array([x]))[:2]
            walk = len(probes)
            probes.clear()
            phi_star(w, x)
        finally:
            w._phi = inner
        ys = np.concatenate(probes[walk:])
        assert 0.0 <= a[0] <= ys.min() and ys.max() <= b[0], x


@pytest.mark.parametrize("name", ["linear", "power_half", "logsq"])
def test_involution(name, request):
    w = request.getfixturevalue(name)
    assert phi_star_involution_check(w).holds


# -- associated function ---------------------------------------------------------


def test_assoc_array_fits_its_tail_once_and_shares_its_quotients(monkeypatch):
    # one power-law fit and one log mu per array, with the generic sums bit
    # for bit those that `tail_sums` builds from the sequence on its own
    from ultraweights import seq_core

    seq = WeightSeq("g2", lambda kk: 2.0 * gammaln(kk + 1.0), is_weight_seq=True)  # no attached tail
    fits, reads = [], []
    for mod in (func_core, seq_core):
        real = mod._tail_exponent
        monkeypatch.setattr(mod, "_tail_exponent", lambda log_mu, real=real: (fits.append(len(log_mu)), real(log_mu))[1])
    monkeypatch.setattr(seq, "log_mu", lambda n: (reads.append(n), WeightSeq.log_mu(seq, n))[1])
    ev = func_core._AssocEvaluator(seq)
    assert fits == [ev._n] and reads == []
    counts = np.arange(ev._n + 1)
    mine, own = ev.log_tail_after(counts), seq_core.tail_sums(seq, 1, ev._n + 1, ev._n).at(counts + 1)
    for got, want in ((mine.lo, own.lo), (mine.hi, own.hi)):
        assert np.array_equal(got, want)


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
    # associated functions carry no envelope, and need none: their transforms
    # are closed forms over the quotients (kappa is infinite for the
    # quasianalytic factorial sequence, whose tail diverges)
    assert kappa(omega_from_seq(factorial), 2.0) == math.inf
    base = omega_from_seq(gevrey2)
    assert kappa(base, 2.0) == kappa_assoc(base, 2.0)
    w = omega_tilde_from_seq(gevrey2)
    iv = poisson_interval(w, 2.0)
    assert iv.lo <= poisson_batch(w, [math.log(2.0)])[0] <= iv.hi
    kap = kappa_fn(w)
    assert kap.envelope is None
    assert kap.phi(3.0) == pytest.approx(kappa_assoc(w, math.e**3) - kappa_assoc(w, 1.0), rel=1e-12)


def test_proven_envelopes_cover_samples():
    # the catalog's envelopes certify non-quasianalyticity (`fn_predicates`)
    ys = np.linspace(-5.0, 400.0, 2000)
    for w in [make_power_weight(beta) for beta in (0.3, 0.5, 0.7)] + [make_log_square_weight()]:
        assert np.all(w.envelope.bound(ys) - w.phi(ys) >= 0.0), w.name


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


def test_kappa_assoc_matches_quadrature(oracle):
    # against 30-digit values of the definition; t = 1e6 grows the quotient
    # array past 10^4 terms, where the tail remainder must still come from
    # the right index
    for s in (2.0, 1.5, 3.0):
        w = gevrey_tilde(s)
        for t, want in oracle["kappa"][f"seq:gevrey?s={s:g}"]:
            assert oracle_rel(kappa_assoc(w, t), want) <= 1e-13, (s, t)


def test_kappa_assoc_matches_quadrature_exp_gevrey(oracle):
    for a in (0.125, 1.0, 8.0):
        w = expgevrey_tilde(a)
        for t, want in oracle["kappa"][f"seq:expgevrey?p=2&a={a:g}"]:
            assert oracle_rel(kappa_assoc(w, t), want) <= 1e-13, (a, t)


def test_kappa_assoc_inside_quadrature_bracket_at_large_t(oracle):
    # the transform of log(1+t^2) is log(1+t^2) + 2t arctan(1/t) -> 2; written
    # as t (pi - 2 arctan t) it cancels to rounding noise beyond t ~ 1e8
    w = expgevrey_tilde(8.0)
    cases = {round(math.log(t)): want for t, want in oracle["kappa"]["seq:expgevrey?p=2&a=8"]}
    for y in (20.0, 50.0, 400.0):
        assert oracle_rel(kappa_assoc(w, math.exp(y)), cases[y]) <= 1e-13, y


def test_kappa_interval_of_an_associated_function_brackets_the_oracle(oracle, oracle_fn):
    # the ends read the tail bracket at k*: the 30-digit value of gevrey 1.5
    # at t = 1e6 lies 1.08e-14 relative below the value, outside a bare
    # ROUNDING allowance around it
    for uri, cases in oracle["kappa"].items():
        if not uri.startswith("seq:"):
            continue
        w = oracle_fn(uri)
        for t, want in cases:
            iv = kappa_interval(w, t)
            assert iv.lo <= want <= iv.hi and iv.lo <= kappa(w, t) <= iv.hi, (uri, t)
            assert math.isfinite(iv.hi) and iv.width <= 1e-9 * abs(want), (uri, t)


def test_kappa_interval_past_the_array_has_no_upper_end():
    # past the last quotient the tail has only a power-law fit: the lower end
    # takes the tail as 0, the upper end is +inf
    w = gevrey_tilde(1.5)
    t = math.exp(w.assoc._log_mu[-1] + 1.0)
    iv = kappa_interval(w, t)
    assert iv.lo < kappa(w, t) and iv.hi == math.inf


def test_quasianalytic_transforms_have_no_nan_and_no_infinite_lower_end():
    # mu_k = k: sum 1/mu_k diverges.  kappa(0) = 0 with no -inf + inf at
    # y = -inf, and P's lower end stays finite where P is infinite (the
    # suite raises RuntimeWarnings)
    w = omega_from_seq(make_factorial())
    out = kappa(w, [0.0, 2.0])
    assert out[0] == 0.0 and out[1] == math.inf
    assert kappa_interval(w, 0.0) == func_core.Interval(0.0, 0.0)
    for v in (w, omega_tilde_from_seq(make_factorial())):
        p, lo, hi = func_core._poisson_assoc(v, np.array([0.7]))
        assert p[0] == hi[0] == math.inf and 0.0 < lo[0] < math.inf, v.name


@pytest.mark.parametrize("uri", ["fn:power?beta=0.5", "fn:power?beta=0.3", "fn:logsq"])
def test_catalog_transforms_match_the_oracle(oracle, oracle_fn, uri):
    # the attached closed forms against 30-digit quadrature of the definitions,
    # at r, t = 0.1, 0.5 and the 16 points of `compute --n 16`, 1 to 1e8
    w = oracle_fn(uri)
    for kind, transform, interval in (("kappa", kappa, kappa_interval), ("poisson", poisson_imag, poisson_interval)):
        xs, want = map(np.array, zip(*oracle[kind][uri]))
        assert np.all(np.abs(transform(w, xs) - want) <= 1e-14 * np.abs(want)), kind
        for x, v in zip(xs, want):
            iv = interval(w, float(x))
            assert iv.lo <= v <= iv.hi, (kind, x)


def test_transforms_without_a_closed_form_are_refused(power_half):
    for envelope, error in ((None, EnvelopeRequired), (Envelope(1.0, 0.0, 1.0), QuasianalyticInput),
                            (power_half.envelope, NoClosedForm)):
        w = WeightFn("bare", power_half._phi, envelope=envelope)
        for transform in (kappa, kappa_interval, poisson_imag, poisson_interval, kappa_fn):
            with pytest.raises(error, match=" refused for bare: "):
                transform(w, 2.0) if transform is not kappa_fn else transform(w)


def test_kappa_fn_of_logsq_is_exact_at_large_y(logsq):
    # kappa = y^2 + 2y + 2 for y >= 0, normalized by kappa(1) = 2; t = e^800
    # is beyond the float range
    assert kappa_fn(logsq).phi(800.0) == 800.0**2 + 2 * 800.0


KAPPA_URIS = ["fn:power?beta=0.25", "fn:power?beta=0.5", "fn:power?beta=0.95", "fn:logsq"]


@pytest.mark.parametrize("uri", KAPPA_URIS)
def test_kappa_slope_is_kappa_ref_minus_phi(uri):
    # kappa(y) = e^y int_y^inf phi(v) e^-v dv, so kappa' = kappa - phi, the
    # slope whose root is kappa_fn's maximizer: against a central difference
    w = resolve(uri)
    ys = np.linspace(0.0, 40.0, 161)
    h = 1e-5
    diff = (w.kappa_ref(ys + h) - w.kappa_ref(ys - h)) / (2.0 * h)
    slope = w.kappa_ref(ys) - w.phi(ys)
    assert np.max(np.abs(diff - slope) / slope) <= 1e-8


@pytest.mark.parametrize("uri", KAPPA_URIS)
def test_kappa_matrix_members_by_the_root_match_the_golden_conjugate(uri):
    # members 1/8 .. 8, 16 and 32 of the kappa matrix, k = 0 .. 64: the
    # root of kappa' = x against golden section, compared as conjugates f =
    # alpha log M_k (alpha is a power of 2).  The certificate puts golden
    # section within GOLDEN_TOL (1 + |f|) of the sup, but each value is the
    # objective x y - (kappa(y) - kappa(0)) evaluated at a point, rounded at
    # the scale of its terms: for beta = 0.95, where kappa(0) = 20 and f is
    # below 1, the two differ by up to 3.6 GOLDEN_TOL (1 + |f|), and by 0.5
    # at most for the other weights
    w = resolve(uri)
    kf = kappa_fn(w)
    assert kf.maximizer is not None
    grid = [*func_core.DEFAULT_GRID, 16.0, 32.0]
    root, golden = matrix_from_omega(kf, grid=grid), matrix_from_omega(engine(kf), grid=grid)
    for a in grid:
        xs = a * np.arange(65.0)
        got, want = a * root.member(a).values(64), a * golden.member(a).values(64)
        y = phi_star_maximizer(kf, xs)
        terms = xs * y + w.kappa_ref(y)
        assert np.all(np.abs(got - want) <= 2.0 * func_core.GOLDEN_TOL * (1.0 + np.abs(want) + terms)), a


@pytest.mark.parametrize("uri", ["fn:power?beta=0.5", "fn:logsq"])
def test_kappa_root_takes_at_most_doublings_plus_root_halvings_plus_1_slope_calls_per_block(uri):
    # the slope kappa_ref - phi is evaluated at y = 1, 2, 4, ... up to the
    # first point past the largest root, then once per halving; phi itself
    # is read nowhere else by the conjugate of kappa
    w = resolve(uri)
    kf = kappa_fn(w)
    inner, calls = w._phi, []
    w._phi = lambda ys: (calls.append(len(ys)), inner(ys))[1]
    for alpha, n in [*((a, 64) for a in (*func_core.DEFAULT_GRID, 16.0, 32.0)), (8.0, 2**17)]:
        xs = alpha * np.arange(n + 1, dtype=float)
        calls.clear()
        phi_star(kf, xs)
        slopes = len(calls)
        blocks = -(-len(xs) // func_core.PHI_STAR_BLOCK)
        doublings = max(0, math.ceil(math.log2(phi_star_maximizer(kf, xs[-1]))))
        assert slopes <= blocks * (doublings + func_core.ROOT_HALVINGS + 1), (alpha, n)


def test_kappa_fn_of_an_associated_function_keeps_the_numeric_engine(gevrey2):
    # omega~ has no kappa_ref, so its kappa is conjugated by golden section
    assert kappa_fn(omega_tilde_from_seq(gevrey2)).maximizer is None


@pytest.mark.parametrize("uri, x", [("fn:logsq", 2.0**70), ("fn:power?beta=0.5", 1e306)])
def test_kappa_root_refuses_an_unbounded_conjugate(uri, x):
    # kappa' of the squared log is 2y + 2, below 2^70 up to y = LATTICE_TOP:
    # no bracket.  For the power weight x y overflows at the root.  Both
    # refuse as the numeric engine does
    kf = kappa_fn(resolve(uri))
    for v in (kf, engine(kf)):
        with pytest.raises(UnboundedConjugate, match=rf"^{re.escape(kf.name)}: no finite bracket for the conjugate at x="):
            phi_star(v, np.array([1.0, x]))


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


def test_omega_of_a_sequence_with_mu1_below_one(small_gevrey2):
    # omega_M(t) = sum_j log+(t/mu_j) > 0 on (mu_1, 1]: 12 quotients lie below log r = -4.2,
    # so P' >= 9.15 there, and the matrix is built on the normalized representative
    w = omega_tilde_from_seq(small_gevrey2)
    p_before, p_at = poisson_batch(w, [-4.2 - 1e-4, -4.2])
    assert (p_at - p_before) / 1e-4 >= 9.15
    omega = omega_from_seq(small_gevrey2)
    assert omega.phi(0.0) > 0.0 and normalize_fn(omega) is not omega
    assert matrix_from_omega(omega).member(1.0).log_m(0) == 0.0


def test_poisson_batch_matches_scalar(oracle):
    # nine radii in one call, against 30-digit values and one radius at a time
    w = gevrey_tilde(2.0)
    rs, want = map(np.array, zip(*oracle["poisson"]["seq:gevrey?s=2"]))
    batch = poisson_batch(w, np.log(rs))
    single = np.array([poisson_imag(w, float(r)) for r in rs])
    assert np.allclose(batch, want, rtol=1e-9, atol=1e-9)
    assert np.allclose(batch, single, rtol=1e-9, atol=1e-9)
    assert poisson_batch(w, []).shape == (0,)


def test_poisson_batch_without_quadrature_matches_interval(oracle, oracle_fn):
    # the 30-digit value lies inside the closed form's bracket, and so does
    # the closed form, also where the window |log mu_j - log r| <= 8
    # (`_ti2` to 3, the alternating series from 3 to 8) passes the end of the
    # quotient array (gevrey 1.5 at r = 1e6); gevrey 1.5, 2, 3 and the
    # exp-Gevrey members a = 0.125, 1, 8
    for uri, cases in oracle["poisson"].items():
        if not uri.startswith("seq:"):
            continue
        w = oracle_fn(uri)
        for r, want in cases:
            p, lo, hi = func_core._poisson_assoc(w, np.array([math.log(r)]))
            assert lo[0] <= want <= hi[0] and lo[0] <= p[0] <= hi[0], (uri, r)
            iv = poisson_interval(w, r)
            assert (iv.lo, iv.hi) == (lo[0], hi[0]) and poisson_imag(w, r) == p[0]


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
    full = log_tail_bracket(seq, np.arange(1, n + 2), n)
    counts = np.concatenate([[0, n], rng.integers(0, n + 1, 1000)])
    read = ev.log_tail_after(counts)
    assert read.lo.tobytes() == full.lo[counts].tobytes() and read.hi.tobytes() == full.hi[counts].tobytes()


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
    phi_star(wn, 1e6)  # walks the fixed points far past the maximizers of xs
    assert np.array_equal(phi_star(wn, xs), fresh)


def test_closed_form_P_past_the_array_overlaps_quadrature(oracle):
    # gevrey 1.5 at r = 1e6: log mu_J = 17.7 < log r + 8, so the terms past
    # the 2^17-term array are only bracketed, and the bracket holds the
    # 30-digit value
    w = gevrey_tilde(1.5)
    p, lo, hi = func_core._poisson_assoc(w, np.array([math.log(1e6)]))
    assert w.assoc._log_mu[-1] < math.log(1e6) + func_core.P_WINDOW
    want = dict(oracle["poisson"]["seq:gevrey?s=1.5"])[1e6]
    assert lo[0] <= want <= hi[0] and lo[0] <= p[0] <= hi[0]


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


def test_normalize_fn_zero_on_unit_interval(power_half, logsq):
    wn = normalize_fn(power_half)
    assert wn is not power_half and wn.name == power_half.name
    # phi(0) = 0: the function is its own normalized representative
    assert normalize_fn(wn) is wn and normalize_fn(logsq) is logsq
    assert wn.omega(0.5) == 0.0 and wn.omega(1.0) == 0.0
    assert wn.omega(4.0) == pytest.approx(1.0)


def test_normalize_fn_refuses_a_flat_weight():
    # omega constant past 1: the normalized function vanishes and its
    # conjugate sup_y x y is unbounded; the conjugate's bracket must stop
    flat = WeightFn("flat", lambda ys: np.minimum(ys, 0.0))
    with pytest.raises(UnboundedConjugate, match=r"^flat: no finite bracket for the conjugate at x=1$"):
        phi_star(normalize_fn(flat), 1.0)


def test_normalize_transported_conjugate(power_half):
    # the transported maximizer against the engine, and against the closed
    # form 2x (log(2x) - 1) + 1 past x = 1/2, 0 below
    wn = normalize_fn(power_half)
    xs = np.array([0.0, 0.3, 1.0, 7.0, 1e4, 1e9])
    got = phi_star(wn, xs)
    assert max_rel(got, phi_star(engine(wn), xs)) <= 2e-15
    with np.errstate(divide="ignore", invalid="ignore"):  # at x = 0, which np.where drops
        want = np.where(xs > 0.5, 2.0 * xs * (np.log(2.0 * xs) - 1.0) + 1.0, 0.0)
    assert max_rel(got, want) <= 2e-15
    # phi = max(y - 1, 0)^2 has its plateau end at y_c = 1 and the maximizer
    # 1 + x/2 past it
    x = xs[:4]
    flat = WeightFn("plateau", lambda ys: np.maximum(ys - 1.0, 0.0) ** 2, maximizer=lambda v: 1.0 + v / 2.0)
    assert max_rel(phi_star(normalize_fn(flat), x), x + x**2 / 4.0) <= 2e-15


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
    for a in mat.grid:  # ascending: each after the member at half its parameter
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
    # members at half the parameter grown to 2^10 and 2^11 only
    partial = matrix_from_omega(power_half)
    partial.member(1.0).values(2**10)
    partial.member(0.5).values(2**11)
    for a in (2.0, 1.0, 4.0):
        assert np.array_equal(partial.member(a).values(n), alone[a])
    # k = 0, an integer k, a real k and a k past every prefix
    ks = np.array([0.0, 3.0, 3.5, 2.0**20])
    assert np.array_equal(partial.member(2.0).log_m(ks), matrix_from_omega(power_half).member(2.0).log_m(ks))


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
    # so the sup of k y - log M_k sits near k = phi'(y) = e^(y/2)/2; the
    # member conjugates through the closed form and, built from the engine
    # copy, through the numeric engine
    ref = normalize_fn(power_half)
    for w in (power_half, engine(power_half)):
        ev = omega_from_seq(matrix_from_omega(w).member(1.0)).assoc
        ys = np.linspace(ev._log_mu[-1] + 1e-3, 60.0, 20)
        k0 = np.floor(0.5 * np.exp(ys / 2.0))
        oracle = np.max([(k0 + d) * ys - phi_star(ref, k0 + d) for d in (-2.0, -1.0, 0.0, 1.0, 2.0)], axis=0)
        val, _ = ev.eval(ys)
        assert np.max(np.abs(val - oracle) / oracle) < 1e-13, w


def test_kappa_past_the_array_of_a_quasianalytic_sequence_is_infinite():
    # mu_k = k e^7: harmonic quotients, so sum 1/mu_k diverges, yet the last
    # window fits p = 1 + 1.4e-14; past the array the tail remainder must be
    # refused by the same rule as the tail bracket, not read as k / (p - 1)
    h = WeightSeq("h", lambda kk: gammaln(kk + 1.0) + 7.0 * kk, is_weight_seq=True)
    assert log_tail_bracket(h, [1]).hi[0] == np.inf
    w = omega_from_seq(h)
    assert kappa_assoc(w, math.exp(w.assoc._log_mu[-1] + 5.0)) == np.inf


def test_assoc_far_bracket_that_stays_open_is_refused(factorial):
    # k* = e^800 is past the float range, so no finite bracket exists
    with pytest.raises(TruncationExhausted):
        omega_from_seq(factorial).phi(800.0)


def test_assoc_far_lattice_reaches_its_top_in_doubling_chunks():
    # the far path's bracket points run from k = 2^17 to 2^1024, 16 per
    # doubling of k: fixed 4-point chunks took 3991 log M calls to refuse
    # y = 800, and one-octave chunks about 1000
    seq = make_factorial()
    w = omega_from_seq(seq)
    inner, calls = seq.log_m, []
    seq.log_m = lambda kk: (calls.append(np.size(kk)), inner(kk))[1]
    with pytest.raises(TruncationExhausted):
        w.phi(800.0)
    assert 0 < len(calls) < 64


def test_assoc_far_lattice_stops_at_the_last_index():
    # log M_k = 2 log k! up to k = 2^18 only: the far lattice over k >= 2^17
    # may reach k = 2^18, the lattice point 16 steps above the array's end.
    # y needs points up to about 2^17.9; the first chunk, one octave, ends at
    # k = 2^18, and the walk must not go on into indices the sequence does not have
    top, asked = 2**18, []

    def ev(kk: np.ndarray) -> np.ndarray:
        asked.append(np.max(kk, initial=0.0))
        if np.any(kk > top):
            raise TruncationExhausted(f"index beyond {top}")
        return 2.0 * gammaln(kk + 1.0)

    assoc = omega_from_seq(WeightSeq("finite", ev, is_weight_seq=True, max_index=top)).assoc
    assert assoc._n == 2**17
    y = 2.0 * math.log(2.0 ** (17 + 12.5 / 16))
    val, k = assoc.eval(np.array([y]))
    assert max(asked) == top  # the walk reached the last index, and went no further
    ks = np.arange(top + 1, dtype=float)
    assert k[0] > assoc._n and val[0] == pytest.approx(np.max(ks * y - ev(ks)), rel=1e-14)
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
    # (kappa of omega(2t) is kappa(2t))
    dil = WeightFn("dilate", lambda ys: power_half._phi(ys + math.log(2.0)), envelope=Envelope(0.5, 0.0, 2.0),
                   kappa_ref=lambda ys: power_half.kappa_ref(ys + math.log(2.0)))
    assert fn_preceq(power_half, dil).holds and fn_preceq(dil, power_half).holds
    k1, k2 = kappa_fn(power_half), kappa_fn(dil)
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
