import io
import math

import numpy as np
import pytest

from rsplab.channels import amplitude_damping, apply_local
from rsplab.enhancement import (
    EnhanceReport,
    dg_under_damping,
    enhance_report,
    enhancibility_margin,
    evolve_closed_form,
    f_derivative,
    f_piecewise,
    f_under_damping,
    is_enhancible,
    p_opt,
    parse_scan_csv,
    parse_trace_csv,
    profile_line,
    q1,
    scan_tetrahedron,
    sweep_best_p,
    trace_evolution,
    write_scan_csv,
    write_trace_csv,
)
from rsplab.measures import gmqd, rsp_fidelity
from rsplab.states import bell_diagonal, bell_eigenvalues

ZERO_TOUCH_GT = -math.log(2.0 - math.sqrt(2.0))        # 0.534799996739...
SUDDEN_GT = -math.log((5.0 - math.sqrt(17.0)) / 2.0)   # 0.824515914124...
DEMO_C = (0.5, 0.0, -0.5)


def random_tetra_point(rng):
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        if bell_eigenvalues(*c).min() >= 0.0:
            return tuple(float(x) for x in c)


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


# --- piecewise form and derivative ------------------------------------------

def test_f_piecewise_no_damping():
    c1, c2, c3 = 0.6, -0.3, 0.2
    c = max(abs(c1), abs(c2))
    expected = 0.5 * (c1 * c1 + c2 * c2 + c3 * c3 - c * c)
    assert f_piecewise((c1, c2, c3), 1.0) == pytest.approx(expected,
                                                           abs=1e-15)


def test_f_piecewise_matches_direct_form():
    rng = np.random.default_rng(10)
    n = 0
    while n < 300:
        c = random_tetra_point(rng)
        if abs(c[2]) > max(abs(c[0]), abs(c[1])):
            continue
        n += 1
        q = float(rng.uniform(0.0, 1.0))
        assert f_piecewise(c, q) == pytest.approx(
            f_under_damping(c, 1.0 - q), abs=1e-12)


def test_f_piecewise_continuous_at_q1():
    for c in [(-1.0, 0.0, 0.0), (0.8, 0.3, -0.4), (0.5, -0.5, 0.5)]:
        qq = q1(max(abs(c[0]), abs(c[1])), c[2])
        below = f_piecewise(c, qq - 1e-11)
        above = f_piecewise(c, qq + 1e-11)
        assert abs(below - above) <= 1e-10


def test_f_piecewise_rejects_large_c3():
    with pytest.raises(ValueError):
        f_piecewise((0.1, 0.0, 0.5), 0.5)


def test_f_piecewise_witness_value_at_q1():
    qq = 2.0 / (3.0 + math.sqrt(5.0))
    val = f_piecewise((-1.0, 0.0, 0.0), qq)
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


def test_f_derivative_at_q_one():
    for c in [(-1.0, 0.0, 0.0), (0.7, 0.2, 0.1), (0.5, -0.5, 0.5)]:
        c1, c2, c3 = c
        cmax = max(abs(c1), abs(c2))
        expected = c1 * c1 + c2 * c2 - cmax * cmax + 2.0 * c3 * c3
        assert f_derivative(c, 1.0) == pytest.approx(expected, abs=1e-12)


def test_f_derivative_matches_finite_difference():
    rng = np.random.default_rng(31)
    cases = [(-1.0, 0.0, 0.0), (0.5, -0.4, 0.3)]
    while len(cases) < 40:
        c = random_tetra_point(rng)
        if abs(c[2]) <= max(abs(c[0]), abs(c[1])):
            cases.append(c)
    for c in cases:
        qq = q1(max(abs(c[0]), abs(c[1])), c[2])
        for q in np.linspace(qq, 1.0, 7):
            q = float(min(max(q, qq + 2e-6), 1.0 - 2e-6))
            fd = (f_piecewise(c, q + 1e-6)
                  - f_piecewise(c, q - 1e-6)) / 2e-6
            assert f_derivative(c, q) == pytest.approx(fd, abs=1e-6)


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


def test_enhance_report_validates_gain():
    with pytest.raises(ValueError):
        EnhanceReport(c=1.0, enhancible=True, q1=0.4, p_opt=0.6,
                      f_before=0.5, f_after=0.5)


# --- traces -----------------------------------------------------------------

def test_trace_demo_events():
    tr = trace_evolution(DEMO_C, 3.0, steps=2001)
    assert tr.f_rsp[0] == pytest.approx(0.125, abs=1e-12)
    assert tr.d_g[0] == pytest.approx(0.125, abs=1e-12)

    assert len(tr.zero_touches) == 1
    assert tr.zero_touches[0] == pytest.approx(ZERO_TOUCH_GT, abs=1e-6)
    dg_at = dg_under_damping(DEMO_C, 1.0 - math.exp(-tr.zero_touches[0]))
    assert dg_at == pytest.approx(0.0429, abs=1e-4)

    f_events = [ev.gamma_t for ev in tr.sudden_changes if ev.measure == "f"]
    assert len(f_events) == 1
    assert f_events[0] == pytest.approx(SUDDEN_GT, abs=1e-6)

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
    assert kinks["dg"] == pytest.approx(math.log(2.0), abs=1e-6)
    assert kinks["f"] == pytest.approx(math.log(3.0), abs=1e-6)


def test_trace_csv_round_trip():
    tr = trace_evolution(DEMO_C, 3.0, steps=301)
    buf = io.StringIO()
    write_trace_csv(tr, buf)
    text = buf.getvalue()
    assert text.startswith("gamma_t,p,f_rsp,d_g\n")
    parsed = parse_trace_csv(text)
    assert np.allclose(parsed.gamma_t, tr.gamma_t, atol=1e-10)
    assert np.allclose(parsed.f_rsp, tr.f_rsp, atol=1e-10)
    assert len(parsed.sudden_changes) == len(tr.sudden_changes)
    assert len(parsed.zero_touches) == len(tr.zero_touches)
    for got, want in zip(parsed.sudden_changes, tr.sudden_changes):
        assert got.measure == want.measure
        assert got.gamma_t == pytest.approx(want.gamma_t, abs=1e-10)


def test_trace_rejects_bad_grid():
    with pytest.raises(ValueError):
        trace_evolution(DEMO_C, 3.0, steps=1)
    with pytest.raises(ValueError):
        trace_evolution(DEMO_C, -1.0)


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


def test_scan_csv_round_trip():
    res = scan_tetrahedron(resolution=9)
    buf = io.StringIO()
    write_scan_csv(res, buf, include_summary=True)
    text = buf.getvalue()
    assert text.startswith("c1,c2,c3,enhancible\n")
    pts, flags = parse_scan_csv(text)
    assert pts.shape == (len(res.points), 3)
    assert np.allclose(pts, res.points, atol=1e-10)
    assert np.array_equal(flags, res.enhancible)


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


def test_profile_points_are_admissible():
    rows = profile_line(51)
    for c1 in rows[:, 0]:
        assert bell_eigenvalues(float(c1), -1.0, float(c1)).min() >= -1e-12
