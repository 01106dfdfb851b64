"""Amplitude-damping enhancement analysis for Bell-diagonal states.

Symmetric local amplitude damping AD(p) o AD(p) sends the Bell-diagonal
state with correlations (c1, c2, c3) to the state with

    a = b = (0, 0, p),   E = diag(q c1, q c2, c3 q^2 + p^2),   q = 1 - p.

Everything in this module is closed form on top of that: the measures
along the damping trajectory, the piecewise fidelity in q with branch
point q1, the enhancibility criterion and optimal parameter, time
traces with sudden-change and vanish-at-instant event detection, and
the tetrahedron scan / profile sweeps behind the region plots.
The enhancement verdict, one batched core behind every entry point, needs
the criterion to hold and damping at p_opt = 1 - q1 to raise f by > 1e-12.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import probability
from .states import (BELL_TOL, PauliDecomposition, TwoQubitState,
                     as_bell_params, bell_eigenvalues, compose)

EVENT_TOL = 1e-9  # bisection width for event gamma_t
# Size limits, checked before anything is allocated: a scan holds
# resolution^3 lattice floats, a trace steps rows and a profile a few
# arrays of points floats.
MAX_RESOLUTION = 201
MAX_STEPS = 10**6
MAX_POINTS = 10**5
_CSV_CHUNK = 2**16  # rows per .tolist(); whole columns add 290 MiB to a 201 scan


def evolve_closed_form(c, p) -> TwoQubitState:
    """State after symmetric amplitude damping, via the closed form.

    Equals the Kraus-route apply_local(AD(p), AD(p), bell_diagonal(c))
    within 1e-12.
    """
    params = as_bell_params(c)
    p = probability(p, "damping probability")
    q = 1.0 - p
    c1, c2, c3 = params.as_tuple()
    shift = np.array([0.0, 0.0, p])
    e = np.diag([q * c1, q * c2, c3 * q * q + p * p])
    return compose(PauliDecomposition(a=shift, b=shift, e=e))


def _damped(c1, c2, c3, p, q):
    """Measures of the damped state at the damping pair (p, q = 1 - p).

    Takes floats or arrays of one shape for p and q.  Returns ``(f, dg,
    f_cands, dg_cands, e3)``: the two measures, the three max-branch
    candidates of each, and the middle correlation element
    E33 = c3 q^2 + p^2.
    """
    e1, e2 = q * c1, q * c2
    e1sq = e1 * e1  # not ** 2, which on floats is C pow, an ulp off at times
    e2sq = e2 * e2
    e3 = c3 * q * q + p * p
    f_cands = (e1sq, e2sq, e3 * e3)
    dg_cands = (e1sq, e2sq, e3 * e3 + p * p)
    total = e1sq + e2sq + e3 * e3
    top12 = np.maximum(e1sq, e2sq)
    f = 0.5 * (total - np.maximum(top12, f_cands[2]))
    dg = 0.5 * (p * p + total - np.maximum(top12, dg_cands[2]))
    return f, dg, f_cands, dg_cands, e3


def f_under_damping(c, p) -> float:
    """RSP-fidelity along the damping trajectory (closed form)."""
    params = as_bell_params(c)
    p = probability(p, "damping probability")
    return float(_damped(*params.as_tuple(), p, 1.0 - p)[0])


def dg_under_damping(c, p) -> float:
    """Normalized geometric discord along the damping trajectory."""
    params = as_bell_params(c)
    p = probability(p, "damping probability")
    return float(_damped(*params.as_tuple(), p, 1.0 - p)[1])


def q1(c_max: float, c3: float) -> float:
    """Branch point of the piecewise fidelity: smaller root of
    q c = c3 q^2 + (1-q)^2.

    Requires 0 < c_max <= 1 and |c3| <= c_max.
    """
    c_max, c3 = float(c_max), float(c3)
    if not 0.0 < c_max <= 1.0:
        raise ValueError(f"c_max must lie in (0,1], got {c_max!r}")
    if abs(c3) > c_max:
        raise ValueError(f"|c3| = {abs(c3)!r} exceeds c_max = {c_max!r}")
    return float(_criterion(c_max, 0.0, c3).q1)


def f_piecewise(c, q: float) -> float:
    """Piecewise fidelity in q = 1 - p, valid when |c3| <= max(|c1|,|c2|).

    First branch (q1 <= q <= 1): [q^2 (c1^2+c2^2-c^2) + (c3 q^2 + p^2)^2] / 2.
    Second branch (0 <= q < q1): q^2 (c1^2 + c2^2) / 2.
    Agrees with f_under_damping(c, 1 - q) on the whole domain.
    """
    params = as_bell_params(c)
    c1, c2, c3 = params.as_tuple()
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0,1], got {q!r}")
    c_max = max(abs(c1), abs(c2))
    if abs(c3) > c_max:
        raise ValueError("piecewise form requires |c3| <= max(|c1|,|c2|); "
                         "use f_under_damping instead")
    if c_max == 0.0:
        return 0.0
    if q >= q1(c_max, c3):
        p = 1.0 - q
        e3 = c3 * q * q + p * p
        return 0.5 * (q * q * (c1 * c1 + c2 * c2 - c_max * c_max) + e3 * e3)
    return 0.5 * q * q * (c1 * c1 + c2 * c2)


def f_derivative(c, q: float) -> float:
    """d/dq of the first piecewise branch, valid for q in [q1, 1].

    Matches a central finite difference of the branch formula within
    1e-6 at step 1e-6.
    """
    params = as_bell_params(c)
    c1, c2, c3 = params.as_tuple()
    q = float(q)
    c_max = max(abs(c1), abs(c2))
    if abs(c3) > c_max:
        raise ValueError("derivative requires |c3| <= max(|c1|,|c2|)")
    if c_max == 0.0:
        raise ValueError("derivative undefined for the maximally mixed state")
    q_lo = q1(c_max, c3)
    if not q_lo <= q <= 1.0 + 1e-12:
        raise ValueError(f"q = {q!r} outside the branch domain [{q_lo!r}, 1]")
    one_minus_q = 1.0 - q
    e3 = one_minus_q * one_minus_q + c3 * q * q
    return (c1 * c1 + c2 * c2 - c_max * c_max) * q + e3 * (2.0 * (c3 + 1.0) * q - 2.0)


_Criterion = namedtuple("_Criterion", "c_max applicable q1 num den rhs")


def _criterion(c1, c2, c3) -> _Criterion:
    """Terms of the enhancibility inequality num > rhs * den.

    Inputs broadcast together.  With c = max(|c1|,|c2|) and
    s = 2 + c + sqrt(c^2 + 4 (c - c3)), the branch point is q1 = 2/s and
    rhs = s^2/4; the criterion applies where c > 0 and |c3| <= c.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    c3 = np.asarray(c3, dtype=float)
    c_max = np.maximum(np.abs(c1), np.abs(c2))
    num = c1 * c1 + c2 * c2
    den = np.minimum(c1 * c1, c2 * c2) + c3 * c3
    s = 2.0 + c_max + np.sqrt(np.maximum(c_max * c_max + 4.0 * (c_max - c3), 0.0))
    applicable = (c_max > 0.0) & (np.abs(c3) <= c_max)
    return _Criterion(c_max, applicable, 2.0 / s, num, den, 0.25 * s * s)


def _verdict(c1, c2, c3):
    """The enhancement verdict over 1-d arrays of Bell-diagonal points.

    Enhancible: the criterion applies, num > rhs * den (true for
    den = 0 < num), and f at p_opt = 1 - q1, evaluated only there, beats
    f at p = 0 by more than 1e-12.  Returns (criterion, indices of
    enhancible points, f there).
    """
    crit = _criterion(c1, c2, c3)
    holds = np.flatnonzero(crit.applicable & (crit.num > crit.rhs * crit.den))
    c1, c2, c3 = c1[holds], c2[holds], c3[holds]
    p = 1.0 - crit.q1[holds]
    f_opt = _damped(c1, c2, c3, p, 1.0 - p)[0]
    gain = f_opt > _damped(c1, c2, c3, 0.0, 1.0)[0] + 1e-12
    return crit, holds[gain], f_opt[gain]


def enhancibility_margin(c) -> float:
    """Signed criterion margin LHS - RHS; +inf for the zero-denominator
    case, -inf when the criterion does not apply (|c3| > c or c = 0).

    A margin at rounding level is not a verdict: on the criterion's
    boundary the gain at p_opt is zero in exact arithmetic, so such
    points read as not enhancible whatever the sign of the margin.
    """
    crit = _criterion(*as_bell_params(c).as_tuple())
    if not crit.applicable:
        return -math.inf
    if crit.den == 0.0:
        return math.inf
    return float(crit.num / crit.den - crit.rhs)


def is_enhancible(c) -> bool:
    """Whether damping at p_opt raises the RSP-fidelity by more than 1e-12.

    False when max(|c1|,|c2|) < |c3| (damping only hurts there), for the
    maximally mixed state, and where the criterion fails or holds by
    rounding only.
    """
    return _verdict(*np.reshape(as_bell_params(c).as_tuple(), (3, 1)))[1].size > 0


def p_opt(c) -> float:
    """Optimal damping strength 1 - q1 for an enhancible state (a gain in
    f above 1e-12).

    Raises:
        ValueError: when called on a non-enhancible state.
    """
    params = as_bell_params(c)
    crit, idx, f_opt = _verdict(*np.reshape(params.as_tuple(), (3, 1)))
    if not idx.size:
        raise ValueError("state is not enhancible")
    p = 1.0 - float(crit.q1[0])
    # post-check: local maximality
    for probe in (max(0.0, p - 1e-4), min(1.0, p + 1e-4)):
        if f_under_damping(params, probe) > f_opt[0] + 1e-12:
            raise RuntimeError("p_opt is not a local maximum")
    return p


def sweep_best_p(c, n: int = 10000):
    """Brute-force check: (p, f) maximizing f over an interior p grid."""
    grid = np.linspace(0.0, 1.0, int(n))[1:-1]
    vals = _damped(*as_bell_params(c).as_tuple(), grid, 1.0 - grid)[0]
    k = int(np.argmax(vals))
    return float(grid[k]), float(vals[k])


@dataclass(frozen=True)
class EnhanceReport:
    """Summary of the enhancement analysis for one Bell-diagonal state.

    q1 and p_opt are None when the branch analysis does not apply
    (maximally mixed, or |c3| > max(|c1|,|c2|)); p_opt = 1 - q1 whenever
    both are present, regardless of the verdict.
    """

    c: float
    enhancible: bool
    q1: Optional[float]
    p_opt: Optional[float]
    f_before: float
    f_after: float

    def __post_init__(self):
        if self.q1 is not None and self.p_opt != 1.0 - self.q1:
            raise ValueError("p_opt must equal 1 - q1")
        if self.enhancible and not self.f_after > self.f_before + 1e-12:
            raise ValueError("enhancible report must show a strict gain")


def enhance_report(c) -> EnhanceReport:
    """Full enhancement analysis of one Bell-diagonal state."""
    params = as_bell_params(c)
    crit, idx, f_opt = _verdict(*np.reshape(params.as_tuple(), (3, 1)))
    f_before = float(_damped(*params.as_tuple(), 0.0, 1.0)[0])
    q1v = float(crit.q1[0]) if crit.applicable[0] else None
    return EnhanceReport(c=float(crit.c_max[0]), enhancible=bool(idx.size), q1=q1v,
                         p_opt=None if q1v is None else 1.0 - q1v,
                         f_before=f_before,
                         f_after=float(f_opt[0]) if idx.size else f_before)


# ---------------------------------------------------------------------------
# Time traces

class SuddenChange(NamedTuple):
    gamma_t: float
    measure: str  # "f" or "dg"


@dataclass(frozen=True)
class EvolutionTrace:
    """Uniform gamma_t trace of both measures plus detected events."""

    gamma_t: np.ndarray
    p: np.ndarray
    f_rsp: np.ndarray
    d_g: np.ndarray
    sudden_changes: tuple
    zero_touches: tuple

    def __post_init__(self):
        if not np.all(np.diff(self.gamma_t) > 0.0):
            raise ValueError("gamma_t grid must be strictly increasing")


def _bisect(fn, lo: float, hi: float, tol: float = EVENT_TOL) -> float:
    flo = fn(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trace_evolution(c, gamma_t_max: float, steps: int = 2001) -> EvolutionTrace:
    """Measures on a uniform gamma_t grid with event detection.

    Sudden changes are located where the argmax among the max-branch
    candidates of either measure switches between adjacent grid points,
    refined by bisection on the difference of the two competing
    candidates.  Argmax flips whose candidate gap does not change sign
    across the interval are ties, not crossings, and are dropped.  Zero
    touches are roots of the middle correlation element where the
    fidelity vanishes but the discord stays positive.
    """
    c1, c2, c3 = as_bell_params(c).as_tuple()
    gamma_t_max = float(gamma_t_max)
    steps = int(steps)
    if not 2 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in [2, {MAX_STEPS}], got {steps}")
    if gamma_t_max <= 0.0:
        raise ValueError("gamma_t_max must be positive")
    gts = np.linspace(0.0, gamma_t_max, steps)
    q = np.exp(-gts)
    p = 1.0 - q
    f_vals, dg_vals, f_cands, dg_cands, e3 = _damped(c1, c2, c3, p, q)

    events = []
    for which, cands, slot in (("f", f_cands, 2), ("dg", dg_cands, 3)):
        idx = np.argmax(np.stack(cands), axis=0)
        for k in np.nonzero(np.diff(idx) != 0)[0]:
            old, new = int(idx[k]), int(idx[k + 1])

            def gap(gt, old=old, new=new, slot=slot):
                q = np.exp(-np.array([gt]))
                vals = _damped(c1, c2, c3, 1.0 - q, q)[slot]
                return vals[new][0] - vals[old][0]

            lo, hi = float(gts[k]), float(gts[k + 1])
            if not gap(lo) * gap(hi) < 0.0:
                continue
            root = _bisect(gap, lo, hi)
            events.append(SuddenChange(gamma_t=root, measure=which))
    events.sort(key=lambda ev: (ev.gamma_t, ev.measure))

    touches = []
    for k in np.nonzero(np.sign(e3[:-1]) * np.sign(e3[1:]) < 0)[0]:

        def e3_at(gt):
            q = math.exp(-gt)
            return _damped(c1, c2, c3, 1.0 - q, q)[4]

        root = _bisect(e3_at, float(gts[k]), float(gts[k + 1]))
        p_root = 1.0 - math.exp(-root)
        f_root, dg_root = _damped(c1, c2, c3, p_root, 1.0 - p_root)[:2]
        # only isolated vanishing points with surviving discord qualify
        if f_root <= 1e-10 and dg_root >= 1e-6:
            touches.append(root)

    return EvolutionTrace(gamma_t=gts, p=p, f_rsp=f_vals, d_g=dg_vals,
                          sudden_changes=tuple(events),
                          zero_touches=tuple(touches))


def _write_rows(fh, header: str, row_format: str, columns) -> None:
    """Write a CSV header line, then ``row_format % row`` for each row of
    the zipped array columns, converted to Python values in chunks."""
    fh.write(header + "\n")
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        rows = zip(*(col[start:start + _CSV_CHUNK].tolist() for col in columns))
        fh.writelines(row_format % row for row in rows)


def write_trace_csv(trace: EvolutionTrace, fh) -> None:
    """Serialize a trace: data rows, then event comment lines."""
    _write_rows(fh, "gamma_t,p,f_rsp,d_g", "%.12g,%.12g,%.12g,%.12g\n",
                (trace.gamma_t, trace.p, trace.f_rsp, trace.d_g))
    for ev in trace.sudden_changes:
        fh.write(f"# sudden_change gamma_t={ev.gamma_t:.12g} measure={ev.measure}\n")
    for gt in trace.zero_touches:
        fh.write(f"# zero_touch gamma_t={gt:.12g}\n")


def parse_trace_csv(text: str) -> EvolutionTrace:
    """Inverse of write_trace_csv, validating the schema."""
    rows = []
    events = []
    touches = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "gamma_t,p,f_rsp,d_g":
        raise ValueError("missing trace CSV header")
    for ln in lines[1:]:
        if ln.startswith("#"):
            parts = ln[1:].split()
            if parts[0] == "sudden_change":
                fields = dict(kv.split("=", 1) for kv in parts[1:])
                events.append(SuddenChange(gamma_t=float(fields["gamma_t"]),
                                           measure=fields["measure"]))
            elif parts[0] == "zero_touch":
                fields = dict(kv.split("=", 1) for kv in parts[1:])
                touches.append(float(fields["gamma_t"]))
            else:
                raise ValueError(f"unknown comment line: {ln!r}")
            continue
        vals = [float(x) for x in ln.split(",")]
        if len(vals) != 4:
            raise ValueError(f"expected 4 columns, got {len(vals)}")
        rows.append(vals)
    arr = np.array(rows)
    return EvolutionTrace(gamma_t=arr[:, 0], p=arr[:, 1], f_rsp=arr[:, 2],
                          d_g=arr[:, 3], sudden_changes=tuple(events),
                          zero_touches=tuple(touches))


# ---------------------------------------------------------------------------
# Region scan and profile sweep

_SYMMETRY_MAPS = {
    "neg_c1": (True, False, False),
    "neg_c2": (False, True, False),
    "neg_c1_c2": (True, True, False),
    "neg_c1_c3": (True, False, True),
    "neg_c2_c3": (False, True, True),
}


@dataclass(frozen=True)
class ScanResult:
    """Tetrahedron lattice tagged by enhancibility, plus symmetry audit.

    symmetry maps each sign-flip map name to a dict with keys
    holds/mismatches/checked, comparing flags at mirrored lattice points.
    """

    resolution: int
    points: np.ndarray       # (n, 3) lattice members
    enhancible: np.ndarray   # (n,) bool
    fraction: float
    symmetry: dict


def scan_tetrahedron(resolution: int = 81) -> ScanResult:
    """Tag every tetrahedron lattice point with the enhancibility verdict.

    The [-1,1] axis is symmetrized so mirrored lattice points carry
    exactly negated coordinates, making the symmetry audit exact.  The
    criterion is evaluated on lattice members only; the audit compares
    flags only where a point and its mirror image are both members.
    """
    resolution = int(resolution)
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}], got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    axis = 0.5 * (axis - axis[::-1])  # exactly antisymmetric
    c1, c2, c3 = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    member = ((1.0 - c1 - c2 - c3 >= -4e-12)
              & (1.0 - c1 + c2 + c3 >= -4e-12)
              & (1.0 + c1 - c2 + c3 >= -4e-12)
              & (1.0 + c1 + c2 - c3 >= -4e-12))
    points = np.stack([c1[member], c2[member], c3[member]], axis=1)
    del c1, c2, c3  # release the lattice before the verdict
    flags = np.zeros(len(points), dtype=bool)
    flags[_verdict(*points.T)[1]] = True
    flags_full = np.zeros(member.size, dtype=bool)
    flags_full[member] = flags

    member3 = member.reshape((resolution,) * 3)
    flags3 = flags_full.reshape(member3.shape)
    symmetry = {}
    for name, (f1, f2, f3) in _SYMMETRY_MAPS.items():
        sl = tuple(slice(None, None, -1) if f else slice(None)
                   for f in (f1, f2, f3))
        both = member3 & member3[sl]
        mism = int(np.count_nonzero((flags3 != flags3[sl]) & both))
        symmetry[name] = {"holds": mism == 0, "mismatches": mism,
                          "checked": int(np.count_nonzero(both))}

    fraction = float(np.count_nonzero(flags) / flags.size) if flags.size else 0.0
    return ScanResult(resolution=resolution, points=points, enhancible=flags,
                      fraction=fraction, symmetry=symmetry)


def write_scan_csv(result: ScanResult, fh, include_summary: bool = False) -> None:
    _write_rows(fh, "c1,c2,c3,enhancible", "%.12g,%.12g,%.12g,%s\n",
                (*result.points.T, np.where(result.enhancible, "true", "false")))
    if include_summary:
        for line in scan_summary_lines(result):
            fh.write(f"# {line}\n")


def scan_summary_lines(result: ScanResult):
    lines = [f"enhancible_fraction {result.fraction:.12g}"]
    for name in sorted(result.symmetry):
        info = result.symmetry[name]
        lines.append(f"symmetry map={name} holds={'true' if info['holds'] else 'false'} "
                     f"mismatches={info['mismatches']} checked={info['checked']}")
    return lines


def parse_scan_csv(text: str):
    """Rows of the scan CSV as (points array, bool flags)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "c1,c2,c3,enhancible":
        raise ValueError("missing scan CSV header")
    pts = []
    flags = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        parts = ln.split(",")
        if len(parts) != 4 or parts[3] not in ("true", "false"):
            raise ValueError(f"bad scan row: {ln!r}")
        pts.append([float(x) for x in parts[:3]])
        flags.append(parts[3] == "true")
    return np.array(pts), np.array(flags, dtype=bool)


def profile_line(n: int = 201) -> np.ndarray:
    """Sweep of (c1, -1, c1): rows (c1, f_before, f_after).

    f_after is the fidelity at the optimal damping when the state is
    enhancible, else f_before.
    """
    n = int(n)
    if not 2 <= n <= MAX_POINTS:
        raise ValueError(f"points must lie in [2, {MAX_POINTS}], got {n}")
    c1 = np.linspace(-1.0, 1.0, n)
    c2 = np.full(n, -1.0)
    if bell_eigenvalues(c1, c2, c1).min() < -BELL_TOL:
        raise ValueError("profile line leaves the Bell tetrahedron")
    _, idx, f_opt = _verdict(c1, c2, c1)
    f_before = _damped(c1, c2, c1, 0.0, 1.0)[0]
    rows = np.column_stack([c1, f_before, f_before])
    rows[idx, 2] = f_opt
    return rows


def write_profile_csv(rows: np.ndarray, fh) -> None:
    _write_rows(fh, "c1,f_before,f_after", "%.12g,%.12g,%.12g\n", rows.T)
