import decimal
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsplab.channels import amplitude_damping, apply_local
from rsplab.enhancement import (
    GAIN_TOL,
    MAX_POINTS,
    _crossings,
    dg_under_damping,
    enhance_report,
    enhancibility_margin,
    evolve_closed_form,
    f_under_damping,
    is_enhancible,
    p_opt,
    profile_line,
    q1,
    scan_tetrahedron,
    sweep_best_p,
    trace_evolution,
    write_scan_csv,
    write_trace_csv,
)
from rsplab.measures import gmqd, rsp_fidelity
from rsplab.oracles import random_bell_params
from rsplab.states import BellDiagonalParams, bell_diagonal, bell_eigenvalues

from references import parse_scan_csv, parse_trace_csv

ZERO_TOUCH_GT = -math.log(2.0 - math.sqrt(2.0))        # 0.534799996739...
SUDDEN_GT = -math.log((5.0 - math.sqrt(17.0)) / 2.0)   # 0.824515914124...
DEMO_C = (0.5, 0.0, -0.5)


def random_tetra_point(rng):
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        if bell_eigenvalues(*c).min() >= 0.0:
            return tuple(float(x) for x in c)


def assert_12_digits(got, want):
    # "%.12g" rounds to half a unit in the 12th digit, 5e-12 relative
    np.testing.assert_allclose(got, want, rtol=6e-12, atol=0.0)


# --- closed-form evolution --------------------------------------------------

def test_evolve_closed_form_identity_at_zero():
    s = evolve_closed_form(DEMO_C, 0.0)
    assert np.allclose(s.rho, bell_diagonal(*DEMO_C).rho, atol=1e-15)


def test_evolve_closed_form_full_damping():
    s = evolve_closed_form(DEMO_C, 1.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0  # |00><00|
    assert np.allclose(s.rho, expected, atol=1e-12)


def test_evolve_closed_form_middle_element_zero():
    # (1-q)^2 = 0.5 q^2 at q = 2 - sqrt(2)
    q = 2.0 - math.sqrt(2.0)
    s = evolve_closed_form(DEMO_C, 1.0 - q)
    assert abs(s.e[2, 2]) <= 1e-15


def test_closed_form_matches_kraus():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        c = random_tetra_point(rng)
        p = float(rng.uniform(0.0, 1.0))
        direct = evolve_closed_form(c, p)
        ch = amplitude_damping(p)
        via_kraus = apply_local(ch, ch, bell_diagonal(*c))
        assert np.abs(direct.rho - via_kraus.rho).max() <= 1e-12


def test_damped_measures_match_generic():
    rng = np.random.default_rng(4321)
    for _ in range(300):
        c = random_tetra_point(rng)
        p = float(rng.uniform(0.0, 1.0))
        s = evolve_closed_form(c, p)
        assert f_under_damping(c, p) == pytest.approx(rsp_fidelity(s),
                                                      abs=1e-12)
        assert dg_under_damping(c, p) == pytest.approx(gmqd(s), abs=1e-12)


def test_damped_measures_demo_points():
    assert f_under_damping(DEMO_C, 0.0) == pytest.approx(0.125, abs=1e-15)
    assert dg_under_damping(DEMO_C, 0.0) == pytest.approx(0.125, abs=1e-15)
    q = 2.0 - math.sqrt(2.0)
    assert f_under_damping(DEMO_C, 1.0 - q) == pytest.approx(0.0, abs=1e-15)
    assert dg_under_damping(DEMO_C, 1.0 - q) == pytest.approx(0.125 * q * q,
                                                            abs=1e-12)


def test_full_damping_kills_both_measures():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = random_tetra_point(rng)
        assert f_under_damping(c, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert dg_under_damping(c, 1.0) == pytest.approx(0.0, abs=1e-15)


# --- branch point q1 --------------------------------------------------------

def test_f_under_damping_at_q1():
    # the fidelity switches branch at p = 1 - q1 without a jump
    for c in [(-1.0, 0.0, 0.0), (0.8, 0.3, -0.4), (0.5, -0.5, 0.5)]:
        p = 1.0 - q1(max(abs(c[0]), abs(c[1])), c[2])
        assert abs(f_under_damping(c, p - 1e-11) - f_under_damping(c, p + 1e-11)) <= 1e-10
    # the witness (-1, 0, 0) reaches q1^2 / 2 there
    qq = 2.0 / (3.0 + math.sqrt(5.0))
    val = f_under_damping((-1.0, 0.0, 0.0), 1.0 - qq)
    assert val == pytest.approx(0.5 * qq * qq, abs=1e-15)
    assert val == pytest.approx(0.072949, abs=1e-6)


def test_q1_values():
    assert q1(1.0, 0.0) == pytest.approx(2.0 / (3.0 + math.sqrt(5.0)),
                                         abs=1e-15)
    assert q1(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert q1(0.5, -0.5) == pytest.approx(
        2.0 / (2.5 + math.sqrt(0.25 + 4.0)), abs=1e-15)


def test_q1_root_property():
    # q c = c3 q^2 + (1-q)^2 must hold at the returned root
    rng = np.random.default_rng(77)
    for _ in range(200):
        c = float(rng.uniform(1e-3, 1.0))
        c3 = float(rng.uniform(-c, c))
        q = q1(c, c3)
        assert 0.0 < q <= 1.0
        assert abs(q * c - (c3 * q * q + (1.0 - q) ** 2)) <= 1e-12


def test_q1_rejects_degenerate():
    with pytest.raises(ValueError):
        q1(0.0, 0.0)
    with pytest.raises(ValueError):
        q1(0.5, 0.7)


# --- enhancibility ----------------------------------------------------------

def test_enhancible_named_cases():
    assert is_enhancible((-1.0, 0.0, 0.0))
    assert not is_enhancible((0.0, 0.0, 0.0))
    assert not is_enhancible((-1.0, -1.0, -1.0))
    assert not is_enhancible((0.0, 0.0, 0.5))  # |c3| above both |c1|, |c2|


def test_enhancible_c3_sign_matters():
    # flipping the sign of c3 changes the verdict on this state
    assert is_enhancible((0.65, 0.0, 0.3))
    assert not is_enhancible((0.65, 0.0, -0.3))


def test_enhancible_agrees_with_sweep():
    """Eq.-style criterion vs brute force, away from the boundary."""
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 300:
        c = random_tetra_point(rng)
        if abs(c[2]) > max(abs(c[0]), abs(c[1])):
            continue
        if abs(enhancibility_margin(c)) <= 1e-6:
            continue
        checked += 1
        _, f_best = sweep_best_p(c, n=10000)
        f0 = f_under_damping(c, 0.0)
        assert is_enhancible(c) == (f_best > f0 + 1e-9)


def test_not_enhancible_when_c3_dominates():
    # f strictly decreases for every damping strength
    rng = np.random.default_rng(333)
    found = 0
    while found < 50:
        c = random_tetra_point(rng)
        if abs(c[2]) <= max(abs(c[0]), abs(c[1])) or abs(c[2]) < 1e-3:
            continue
        found += 1
        assert not is_enhancible(c)
        f0 = f_under_damping(c, 0.0)
        for p in np.linspace(0.01, 0.99, 99):
            assert f_under_damping(c, float(p)) < f0 + 1e-12


def test_p_opt_witness_state():
    golden = (1.0 + math.sqrt(5.0)) / (3.0 + math.sqrt(5.0))
    assert p_opt((-1.0, 0.0, 0.0)) == pytest.approx(golden, abs=1e-15)
    assert p_opt((0.0, -1.0, 0.0)) == pytest.approx(golden, abs=1e-15)
    f_after = f_under_damping((-1.0, 0.0, 0.0), p_opt((-1.0, 0.0, 0.0)))
    assert f_after == pytest.approx(0.072949, abs=1e-6)


def test_p_opt_rejects_non_enhancible():
    with pytest.raises(ValueError):
        p_opt((0.0, 0.0, 0.0))


def test_p_opt_is_sweep_maximum():
    p_best, f_best = sweep_best_p((-1.0, 0.0, 0.0), n=10000)
    p_star = p_opt((-1.0, 0.0, 0.0))
    assert abs(p_best - p_star) <= 1e-3
    assert f_best <= f_under_damping((-1.0, 0.0, 0.0), p_star) + 1e-12


def test_sweep_best_p_bounds_its_points_before_allocating(monkeypatch):
    # the least grid with an interior point has 3 points; each refusal
    # names the range and allocates nothing
    assert sweep_best_p((-1.0, 0.0, 0.0), n=3) == (0.5, 0.03125)
    assert sweep_best_p((-1.0, 0.0, 0.0), n=np.int64(MAX_POINTS))[0] == pytest.approx(p_opt((-1.0, 0.0, 0.0)), abs=1e-5)

    def allocated(*args, **kwargs):
        raise AssertionError("the grid was allocated before the check")

    monkeypatch.setattr(np, "linspace", allocated)
    for bad in (2, 0, -1, MAX_POINTS + 1, 10**12, 5.0, True, "7", None):
        with pytest.raises(ValueError) as exc:
            sweep_best_p((-1.0, 0.0, 0.0), n=bad)
        assert str(exc.value) == f"points must be an integer in [3, {MAX_POINTS}], got {bad!r}"


def test_enhance_report_fields():
    rep = enhance_report((-1.0, 0.0, 0.0))
    assert rep.c == 1.0
    assert rep.enhancible
    assert rep.p_opt == 1.0 - rep.q1
    assert rep.f_before == pytest.approx(0.0, abs=1e-15)
    assert rep.f_after > rep.f_before + 1e-12

    rep = enhance_report((0.0, 0.0, 0.5))
    assert not rep.enhancible
    assert rep.q1 is None and rep.p_opt is None
    assert rep.f_after == rep.f_before


# Tetrahedron points: seeded uniform draws, and exact dyadic triples, which
# hit the corners, edges, faces and |c3| = max(|c1|, |c2|) ties that draws miss.
TETRA_POINTS = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: random_bell_params(np.random.default_rng(seed)).as_tuple()),
    st.tuples(*[st.integers(-32, 32)] * 3).map(lambda k: tuple(x / 32 for x in k))
    .filter(lambda c: bell_eigenvalues(*c).min() >= 0.0))


@settings(max_examples=300)
@given(c=TETRA_POINTS)
def test_enhance_report_holds_its_invariants_by_construction(c):
    # an EnhanceReport checks nothing itself; its one producer sets its fields
    rep = enhance_report(c)
    if rep.q1 is not None:
        assert rep.p_opt == 1.0 - rep.q1
    assert rep.enhancible == (rep.f_after > rep.f_before + GAIN_TOL)
    if not rep.enhancible:
        assert rep.f_after == rep.f_before
    # the scalar entry points read the same verdict
    assert is_enhancible(c) == rep.enhancible
    if rep.enhancible:
        assert p_opt(c) == rep.p_opt
    else:
        with pytest.raises(ValueError, match="not enhancible"):
            p_opt(c)


# --- traces -----------------------------------------------------------------

def test_trace_demo_events():
    tr = trace_evolution(DEMO_C, 3.0, steps=2001)
    assert tr.f_rsp[0] == pytest.approx(0.125, abs=1e-12)
    assert tr.d_g[0] == pytest.approx(0.125, abs=1e-12)

    assert len(tr.zero_touches) == 1
    assert tr.zero_touches[0] == pytest.approx(ZERO_TOUCH_GT, abs=1e-13)
    dg_at = dg_under_damping(DEMO_C, 1.0 - math.exp(-tr.zero_touches[0]))
    assert dg_at == pytest.approx(0.0429, abs=1e-4)

    f_events = [ev.gamma_t for ev in tr.sudden_changes if ev.measure == "f"]
    assert len(f_events) == 1
    assert f_events[0] == pytest.approx(SUDDEN_GT, abs=1e-13)
    assert f_events[0] == pytest.approx(-math.log(q1(0.5, -0.5)), abs=1e-13)

    # fidelity strictly positive on both sides of the touch
    for dt in (1e-3, 1e-2):
        for gt in (tr.zero_touches[0] - dt, tr.zero_touches[0] + dt):
            assert f_under_damping(DEMO_C, 1.0 - math.exp(-gt)) > 0


def test_trace_grid_and_ordering():
    tr = trace_evolution(DEMO_C, 3.0, steps=501)
    assert np.all(np.diff(tr.gamma_t) > 0)
    assert np.all(tr.d_g >= tr.f_rsp - 1e-12)
    assert np.allclose(tr.p, 1.0 - np.exp(-tr.gamma_t), atol=1e-15)


def test_trace_degenerate_families():
    tr = trace_evolution((0.0, 0.0, 0.0), 2.0, steps=101)
    assert np.allclose(tr.f_rsp, 0.0, atol=1e-15)
    assert np.allclose(tr.d_g, 0.0, atol=1e-15)
    assert not tr.sudden_changes
    assert not tr.zero_touches

    tr = trace_evolution((-1.0, -1.0, -1.0), 2.0, steps=401)
    assert tr.f_rsp[0] == pytest.approx(1.0, abs=1e-12)
    # f dips, partially recovers past gamma_t = ln(5/2), but never beats
    # its start, consistent with the state not being enhancible
    assert np.all(tr.f_rsp <= 1.0 + 1e-12)
    assert not is_enhancible((-1.0, -1.0, -1.0))
    assert not tr.zero_touches
    kinks = {ev.measure: ev.gamma_t for ev in tr.sudden_changes}
    assert kinks["dg"] == pytest.approx(math.log(2.0), abs=1e-13)
    assert kinks["f"] == pytest.approx(math.log(3.0), abs=1e-13)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       gamma_t_max=st.floats(1e-3, 20.0),
       steps=st.integers(2, 3000))
def test_trace_csv_round_trip(seed, gamma_t_max, steps):
    c = DEMO_C if seed == 0 else random_tetra_point(np.random.default_rng(seed))
    tr = trace_evolution(c, gamma_t_max, steps=steps)
    buf = io.StringIO()
    write_trace_csv(tr, buf)
    text = buf.getvalue()
    assert text.startswith("gamma_t,p,f_rsp,d_g\n")
    parsed = parse_trace_csv(text)
    for field in ("gamma_t", "p", "f_rsp", "d_g"):
        assert_12_digits(getattr(parsed, field), getattr(tr, field))
    assert [ev.measure for ev in parsed.sudden_changes] == \
        [ev.measure for ev in tr.sudden_changes]
    assert_12_digits([ev.gamma_t for ev in parsed.sudden_changes],
                     [ev.gamma_t for ev in tr.sudden_changes])
    assert_12_digits(parsed.zero_touches, tr.zero_touches)


@pytest.mark.parametrize("c", [DEMO_C, (-1.0, -1.0, -1.0), (1e-6, 0.0, -0.5),
                               (0.65, 0.0, 0.3), (-0.2, 0.55, -0.1)])
def test_trace_events_do_not_depend_on_steps(c):
    traces = [trace_evolution(c, 3.0, steps=n) for n in (2, 101, 2001)]
    for tr in traces[1:]:
        assert tr.sudden_changes == traces[0].sudden_changes
        assert tr.zero_touches == traces[0].zero_touches


def _gaps(c, gamma_t):
    """The f and dg gaps E33^2 - c^2 q^2 and E33^2 + p^2 - c^2 q^2."""
    c1, c2, c3 = c
    q = np.exp(-gamma_t)
    p = 1.0 - q
    e3 = c3 * q * q + p * p
    top = max(c1 * c1, c2 * c2) * q * q
    return {"f": e3 * e3 - top, "dg": e3 * e3 + p * p - top}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), gamma_t_max=st.floats(0.05, 5.0))
def test_trace_events_match_grid_sign_changes(seed, gamma_t_max):
    # independent check: on a fine grid, a cell where a gap changes sign
    # holds an odd number of that measure's events, any other cell an even one
    c = random_tetra_point(np.random.default_rng(seed))
    tr = trace_evolution(c, gamma_t_max, steps=2)
    grid = np.linspace(0.0, gamma_t_max, 4001)
    for measure, gap in _gaps(c, grid).items():
        events = [ev.gamma_t for ev in tr.sudden_changes if ev.measure == measure]
        assert all(0.0 < gt < gamma_t_max for gt in events)
        per_cell = np.bincount(np.searchsorted(grid, events) - 1, minlength=4000)
        assert np.array_equal(per_cell % 2 == 1, gap[:-1] * gap[1:] < 0.0)


def _decimal_log1p_root(coef, u):
    """log1p of the root next to u of the ascending polynomial coef, by
    Newton in 50 digits on the coefficients taken exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        u = decimal.Decimal(u)
        for _ in range(5):
            value = sum(a * u**i for i, a in enumerate(coef))
            slope = sum(i * a * u**(i - 1) for i, a in enumerate(coef) if i)
            u -= value / slope
        return float((1 + u).ln())


@settings(max_examples=100)
@given(c=st.integers(0, 2**32 - 1).map(lambda s: random_tetra_point(np.random.default_rng(s))))
@example(c=DEMO_C)
@example(c=(0.3, 0.1, 0.3 + 1e-9))       # kinks at gamma_t ~ 3e-9, next to the
@example(c=(0.3, 0.1, -0.3 - 1e-9))      # tie |c3| = c at gamma_t = 0
@example(c=(0.2, -0.3, -0.3 - 1e-12))
def test_trace_event_times_have_full_precision(c):
    # (E33^2 - c^2 q^2 + [p^2 for dg]) (1 + u)^4 in u = e^gamma_t - 1
    c1, c2, c3 = (decimal.Decimal(x) for x in c)
    with decimal.localcontext() as ctx:
        ctx.prec = 50  # exact for products of two doubles
        cc = max(c1 * c1, c2 * c2)
        polys = {"f": [c3 * c3 - cc, -2 * cc, 2 * c3 - cc, 0, 1],
                 "dg": [c3 * c3 - cc, -2 * cc, 1 + 2 * c3 - cc, 2, 2]}
    tr = trace_evolution(c, 5.0, steps=2)
    for ev in tr.sudden_changes:
        exact = _decimal_log1p_root(polys[ev.measure], math.expm1(ev.gamma_t))
        assert ev.gamma_t == pytest.approx(exact, rel=1e-14, abs=0.0)
    for gt in tr.zero_touches:
        assert gt == pytest.approx(float((1 + (-c3).sqrt()).ln()), rel=1e-14, abs=0.0)


def test_trace_tangency_is_no_event():
    # E33 = c q has the double root q = 8/9 here: f touches its other
    # branch without crossing it
    c = (0.25, 0.0, 0.265625)
    assert np.min(np.abs(_gaps(c, np.linspace(0.0, 3.0, 30001))["f"])) < 1e-8
    assert not [ev for ev in trace_evolution(c, 3.0).sudden_changes if ev.measure == "f"]


@pytest.mark.parametrize("c", [(0.3, 0.1, 0.3), (0.3, 0.1, -0.3), (-1.0, -1.0, -1.0),
                               (0.5, -0.5, 0.5), (-1.0, 0.0, 0.0)])
def test_trace_tie_at_start_is_no_event(c):
    # |c3| = c or E33 = 0 at q = 1: a gap is exactly 0 at gamma_t = 0
    tr = trace_evolution(c, 3.0)
    assert all(ev.gamma_t > 1e-3 for ev in tr.sudden_changes)


def test_crossings_skip_double_roots():
    assert _crossings([1.0, -1.0, 0.25]) == []                     # (x - 0.5)^2
    assert _crossings(np.poly([0.5, 0.5, 0.8])) == pytest.approx([0.8], abs=1e-15)
    assert sorted(_crossings(np.poly([-0.5, 0.25, 3.0]))) == pytest.approx([0.25, 3.0],
                                                                          abs=1e-14)
    # an exact root at 0 is divided out, and one 1e-10 beside it still counts
    assert sorted(_crossings(np.poly([0.0, 1e-10, 0.5]))) == pytest.approx([1e-10, 0.5],
                                                                          rel=1e-12)


def test_trace_rejects_bad_grid():
    with pytest.raises(ValueError):
        trace_evolution(DEMO_C, 3.0, steps=1)
    with pytest.raises(ValueError):
        trace_evolution(DEMO_C, -1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            trace_evolution(DEMO_C, bad)
    # a grid finer than the subnormal spacing repeats values: an input error
    with pytest.raises(ValueError, match="gamma_t_max 1e-320 is too small for 10000 steps"):
        trace_evolution(DEMO_C, 1e-320, steps=10000)


# --- scans ------------------------------------------------------------------

def test_scan_flags_landmarks():
    res = scan_tetrahedron(resolution=41)
    flags = {tuple(round(float(v), 10) for v in pt): bool(flag)
             for pt, flag in zip(res.points, res.enhancible)}
    assert flags[(-1.0, 0.0, 0.0)]
    for corner in [(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)]:
        assert not flags[tuple(float(v) for v in corner)]
    assert res.fraction == pytest.approx(res.enhancible.mean(), abs=1e-15)


def test_scan_small_resolution_corners_false():
    res = scan_tetrahedron(resolution=3)
    for pt, flag in zip(res.points, res.enhancible):
        if sorted(np.abs(pt)) == [1.0, 1.0, 1.0]:
            assert not flag


def test_scan_symmetries():
    res = scan_tetrahedron(resolution=21)
    # the criterion is even in c1 and in c2 separately, not in c3
    assert res.symmetry["neg_c1"]["holds"]
    assert res.symmetry["neg_c2"]["holds"]
    assert res.symmetry["neg_c1_c2"]["holds"]
    assert not res.symmetry["neg_c1_c3"]["holds"]
    assert not res.symmetry["neg_c2_c3"]["holds"]
    assert res.symmetry["neg_c1_c3"]["mismatches"] > 0


def test_scan_matches_pointwise_verdict():
    res = scan_tetrahedron(resolution=17)
    for pt, flag in zip(res.points, res.enhancible):
        assert flag == is_enhancible(tuple(float(v) for v in pt))


@settings(max_examples=20)
@given(resolution=st.integers(2, 41))
def test_scan_csv_round_trip(resolution):
    res = scan_tetrahedron(resolution=resolution)
    buf = io.StringIO()
    write_scan_csv(res, buf)
    text = buf.getvalue()
    assert text.startswith("c1,c2,c3,enhancible\n")
    pts, flags = parse_scan_csv(text)
    assert pts.shape == (len(res.points), 3)
    assert_12_digits(pts, res.points)
    assert np.array_equal(flags, res.enhancible)


# Resolution-101 lattice points that the scan flagged before its verdict
# required a gain above 1e-12: each lies on the criterion boundary, where
# damping at p_opt gains about 1e-17.
SCAN_101_BOUNDARY = [
    (-0.4000000000000001, 0.0, -0.19999999999999996),
    (-0.3, 0.0, 0.19999999999999996),
    (0.0, -0.4000000000000001, -0.19999999999999996),
    (0.0, -0.3, 0.19999999999999996),
    (0.0, 0.3, 0.19999999999999996),
    (0.0, 0.4000000000000001, -0.19999999999999996),
    (0.3, 0.0, 0.19999999999999996),
    (0.4000000000000001, 0.0, -0.19999999999999996),
]


def test_scan_leaves_boundary_points_unflagged():
    res = scan_tetrahedron(resolution=101)
    flags = {tuple(pt.tolist()): flag
             for pt, flag in zip(res.points, res.enhancible)}
    for c in SCAN_101_BOUNDARY:
        assert not flags[c]
        assert not is_enhancible(c)
        rep = enhance_report(c)
        assert not rep.enhancible and rep.f_after == rep.f_before
    for name in ("neg_c1", "neg_c2", "neg_c1_c2"):
        assert res.symmetry[name]["holds"]


# --- profile ----------------------------------------------------------------

def test_profile_layout_and_endpoints():
    rows = profile_line(201)
    assert rows.shape == (201, 3)
    c1s = rows[:, 0]
    assert c1s[0] == pytest.approx(-1.0)
    assert c1s[-1] == pytest.approx(1.0)

    by_c1 = {round(float(r[0]), 10): r for r in rows}
    # corner (-1,-1,-1): already maximal, untouched
    assert by_c1[-1.0][1] == pytest.approx(1.0, abs=1e-12)
    assert by_c1[-1.0][2] == pytest.approx(1.0, abs=1e-12)
    # (0,-1,0) behaves exactly like the (-1,0,0) witness
    assert by_c1[0.0][1] == pytest.approx(0.0, abs=1e-15)
    assert by_c1[0.0][2] == pytest.approx(0.072949, abs=1e-6)


def test_profile_never_loses_fidelity():
    rows = profile_line(101)
    assert np.all(rows[:, 2] >= rows[:, 1] - 1e-15)


def test_profile_matches_pointwise_reports():
    # bit for bit: the batched sweep, the one-point report and the scalar
    # f_under_damping all square by multiplication
    rows = profile_line(20001)
    for c1, f_before, f_after in rows.tolist():
        c = BellDiagonalParams(c1, -1.0, c1)
        rep = enhance_report(c)
        assert (f_before, f_after) == (rep.f_before, rep.f_after)
        assert f_before == f_under_damping(c, 0.0)
        if rep.enhancible:
            assert f_after == f_under_damping(c, rep.p_opt)


def test_profile_points_are_admissible():
    rows = profile_line(51)
    for c1 in rows[:, 0]:
        assert bell_eigenvalues(float(c1), -1.0, float(c1)).min() >= -1e-12
