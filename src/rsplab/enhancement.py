"""Amplitude-damping enhancement analysis for Bell-diagonal states.

Symmetric local amplitude damping AD(p) o AD(p) sends the Bell-diagonal
state with correlations (c1, c2, c3) to the state with

    a = b = (0, 0, p),   E = diag(q c1, q c2, c3 q^2 + p^2),   q = 1 - p.

Everything in this module is closed form on top of that: the measures
along the damping trajectory, the branch point q1 of the fidelity in q,
the enhancibility criterion and optimal parameter, time
traces with their sudden-change and vanish-at-instant events, and the
tetrahedron scan / profile sweeps behind the region plots.
The enhancement verdict, one batched core behind every entry point, needs
the criterion to hold and damping at p_opt = 1 - q1 to raise f by > 1e-12.
The trace events are exact polynomial roots in u = 1/q - 1 = e^gamma_t - 1:
the fidelity kinks solve E33 = +-c q and the zero touches E33 = 0, both
quadratics, and E33 = c q at q1 itself; the discord kinks solve the
quartic E33^2 + p^2 = c^2 q^2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import probability
from .states import BELL_TOL, TwoQubitState, as_bell_params, bell_eigenvalues

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
    c = np.diag([1.0, q * c1, q * c2, c3 * q * q + p * p])
    c[3, 0] = c[0, 3] = p  # a = b = (0, 0, p)
    return TwoQubitState.from_coefficients(c)


def _squares(c1, c2, c3, p, q):
    """Squared terms of the damped state at the damping pair (p, q = 1 - p).

    Takes floats or arrays of one shape for p and q.  Returns ``(S, m12,
    E33^2, p^2)``: S sums the squared correlations (q c1)^2, (q c2)^2 and
    E33^2, E33 = c3 q^2 + p^2, and m12 is the larger of the first two.
    """
    e1, e2 = q * c1, q * c2
    e1sq = e1 * e1  # not ** 2, which on floats is C pow, an ulp off at times
    e2sq = e2 * e2
    pp = p * p
    e3 = c3 * q * q + pp
    e3sq = e3 * e3
    return e1sq + e2sq + e3sq, np.maximum(e1sq, e2sq), e3sq, pp


def _damped_f(c1, c2, c3, p, q):
    """RSP-fidelity of the damped state (see ``_squares``): half of S minus
    the largest of its three max-branch candidates (q c1)^2, (q c2)^2, E33^2."""
    total, top12, e3sq, _ = _squares(c1, c2, c3, p, q)
    return 0.5 * (total - np.maximum(top12, e3sq))


def _damped(c1, c2, c3, p, q):
    """``(f, dg)`` of the damped state: dg is f with p^2 added to S and to
    the E33^2 candidate."""
    total, top12, e3sq, pp = _squares(c1, c2, c3, p, q)
    return (0.5 * (total - np.maximum(top12, e3sq)),
            0.5 * (pp + total - np.maximum(top12, e3sq + pp)))


def f_under_damping(c, p) -> float:
    """RSP-fidelity along the damping trajectory (closed form)."""
    params = as_bell_params(c)
    p = probability(p, "damping probability")
    return float(_damped_f(*params.as_tuple(), p, 1.0 - p))


def dg_under_damping(c, p) -> float:
    """Normalized geometric discord along the damping trajectory."""
    params = as_bell_params(c)
    p = probability(p, "damping probability")
    return float(_damped(*params.as_tuple(), p, 1.0 - p)[1])


def q1(c_max: float, c3: float) -> float:
    """Branch point of the piecewise fidelity: smaller root of
    q c = c3 q^2 + (1-q)^2.

    It is also the fidelity kink of a trace: gamma_t = -ln q1 is the
    sudden change where |E33| meets c q.  Requires 0 < c_max <= 1 and
    |c3| <= c_max.
    """
    c_max, c3 = float(c_max), float(c3)
    if not 0.0 < c_max <= 1.0:
        raise ValueError(f"c_max must lie in (0,1], got {c_max!r}")
    if abs(c3) > c_max:
        raise ValueError(f"|c3| = {abs(c3)!r} exceeds c_max = {c_max!r}")
    return float(_criterion(c_max, 0.0, c3).q1)


def _line_disc(k, c3):
    """(disc, sqrt(max(disc, 0))) for E33 = k q, batched.

    With u = 1/q - 1 = e^gamma_t - 1, E33 = c3 q^2 + (1 - q)^2 = k q reads
    u^2 - k u + c3 - k = 0: roots u = (k +- sqrt(disc))/2, or q = 2/s with
    s = 2 + k +- sqrt(disc), never dividing by 1 + c3.  k = c gives q1.
    """
    disc = k * k + 4.0 * (k - c3)
    return disc, np.sqrt(np.maximum(disc, 0.0))


_Criterion = namedtuple("_Criterion", "c_max domain applicable q1 num den rhs")


def _criterion(c1, c2, c3) -> _Criterion:
    """Terms of the enhancibility inequality num > rhs * den.

    Inputs broadcast together.  With c = max(|c1|,|c2|), the branch point
    is the near root q1 = 2/s of E33 = c q, s = 2 + c + sqrt(disc)
    (``_line_disc``), and rhs = s^2/4.  The piecewise domain is |c3| <= c;
    the criterion applies there where c > 0.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    c3 = np.asarray(c3, dtype=float)
    c_max = np.maximum(np.abs(c1), np.abs(c2))
    num = c1 * c1 + c2 * c2
    den = np.minimum(c1 * c1, c2 * c2) + c3 * c3
    s = 2.0 + c_max + _line_disc(c_max, c3)[1]
    domain = np.abs(c3) <= c_max
    return _Criterion(c_max, domain, domain & (c_max > 0.0), 2.0 / s, num, den,
                      0.25 * s * s)


def _verdict(c1, c2, c3, f_before=None):
    """The enhancement verdict over 1-d arrays of Bell-diagonal points.

    Enhancible: the criterion applies, num > rhs * den (true for
    den = 0 < num), and f at p_opt = 1 - q1, evaluated only there, beats
    f at p = 0 by more than 1e-12.  f at p = 0 is read from ``f_before``
    (one value per point) when the caller holds it, else evaluated where
    the criterion holds.  Returns (criterion, indices of enhancible
    points, f there).
    """
    crit = _criterion(c1, c2, c3)
    holds = np.flatnonzero(crit.applicable & (crit.num > crit.rhs * crit.den))
    c1, c2, c3 = c1[holds], c2[holds], c3[holds]
    p = 1.0 - crit.q1[holds]
    f_opt = _damped_f(c1, c2, c3, p, 1.0 - p)
    f0 = _damped_f(c1, c2, c3, 0.0, 1.0) if f_before is None else f_before[holds]
    gain = f_opt > f0 + 1e-12
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
    probes = np.array([max(0.0, p - 1e-4), min(1.0, p + 1e-4)])
    if (_damped_f(*params.as_tuple(), probes, 1.0 - probes) > f_opt[0] + 1e-12).any():
        raise RuntimeError("p_opt is not a local maximum")
    return p


def sweep_best_p(c, n: int = 10000):
    """Brute-force check: (p, f) maximizing f over an interior p grid."""
    grid = np.linspace(0.0, 1.0, int(n))[1:-1]
    vals = _damped_f(*as_bell_params(c).as_tuple(), grid, 1.0 - grid)
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
    point = np.reshape(as_bell_params(c).as_tuple(), (3, 1))
    f0 = _damped_f(*point, 0.0, 1.0)
    crit, idx, f_opt = _verdict(*point, f0)
    f_before = float(f0[0])
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


_PROBE = 1e-6  # half-width of the sign test around a polynomial root


def _crossings(coef) -> list:
    """Roots x > 0 where a polynomial (descending coef) changes sign.

    Exact roots at 0 are divided out first.  The rest are companion-matrix
    roots (np.roots) polished by one Newton step.  Rounding splits a double
    root into a complex pair or two real roots about sqrt(eps) apart, with
    one sign on both sides; so a root counts only if the signs at
    x -+ _PROBE differ (two simple roots closer than _PROBE cancel like a
    double root).
    """
    coef = np.trim_zeros(np.asarray(coef, dtype=float), "b")
    roots = np.roots(coef)
    x = roots.real[(np.abs(roots.imag) < _PROBE) & (roots.real > 0.0)]
    x = x[np.polyval(coef, x - _PROBE) * np.polyval(coef, x + _PROBE) < 0.0]
    x = x - np.polyval(coef, x) / np.polyval(np.polyder(coef), x)
    return [float(v) for v in x if v > 0.0]


def trace_evolution(c, gamma_t_max: float, steps: int = 2001) -> EvolutionTrace:
    """Measures on a uniform gamma_t grid, with the exact event times.

    An event is a root u > 0 in u = e^gamma_t - 1 with gamma_t = log1p(u)
    below gamma_t_max; steps does not move it.  With c = max(|c1|,|c2|):
    f kinks solve E33 = +-c q (a discriminant <= 0 is a tangency, a tie),
    dg kinks are sign changes of (E33^2 + p^2 - c^2 q^2)(1 + u)^4 and zero
    touches solve E33 = 0 where f <= 1e-10 but d_g >= 1e-6.
    """
    c1, c2, c3 = as_bell_params(c).as_tuple()
    gamma_t_max = float(gamma_t_max)
    steps = int(steps)
    if not 2 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in [2, {MAX_STEPS}], got {steps}")
    if not 0.0 < gamma_t_max < math.inf:  # NaN fails both comparisons
        raise ValueError(f"gamma_t_max must be positive and finite, got {gamma_t_max}")
    gts = np.linspace(0.0, gamma_t_max, steps)
    q = np.exp(-gts)
    p = 1.0 - q
    f_vals, dg_vals = _damped(c1, c2, c3, p, q)

    def line_roots(k):  # the u where E33 - k q changes sign
        disc, r = _line_disc(k, c3)
        big = 0.5 * (k + math.copysign(r, k))
        # the roots multiply to c3 - k, so a tie at gamma_t = 0 gives exactly 0
        return [big, (c3 - k) / big] if disc > 0.0 else []

    def times(roots):
        return [t for t in (math.log1p(u) for u in roots if u > 0.0) if t < gamma_t_max]

    c_max = max(abs(c1), abs(c2))
    # at c = 0 both lines are E33 = 0, and E33^2 - c^2 q^2 keeps its sign
    kinks = line_roots(c_max) + line_roots(-c_max) if c_max > 0.0 else []
    cc = c_max * c_max
    quartic = [2.0, 2.0, 1.0 + 2.0 * c3 - cc, -2.0 * cc, (c3 - c_max) * (c3 + c_max)]
    events = sorted([SuddenChange(t, "f") for t in times(kinks)]
                    + [SuddenChange(t, "dg") for t in times(_crossings(quartic))])

    touches = []
    for t in times(line_roots(0.0)):
        f_root, dg_root = _damped(c1, c2, c3, -math.expm1(-t), math.exp(-t))
        # only isolated vanishing points with surviving discord qualify
        if f_root <= 1e-10 and dg_root >= 1e-6:
            touches.append(t)

    return EvolutionTrace(gamma_t=gts, p=p, f_rsp=f_vals, d_g=dg_vals,
                          sudden_changes=tuple(events),
                          zero_touches=tuple(touches))


def _write_rows(fh, header: str, row_format: str, columns) -> None:
    """Write a CSV header line, then ``row_format % row`` for each row of
    the zipped array columns.  Each chunk of rows is converted to Python
    values, interleaved row by row, and formatted by one ``%``."""
    fh.write(header + "\n")
    width = len(columns)
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        chunk = [col[start:start + _CSV_CHUNK].tolist() for col in columns]
        values = [None] * (width * len(chunk[0]))
        for j, col in enumerate(chunk):
            values[j::width] = col
        fh.write(row_format * len(chunk[0]) % tuple(values))


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


def write_scan_csv(result: ScanResult, fh) -> None:
    """The scan's rows as CSV, then its summary lines, each after '# '."""
    _write_rows(fh, "c1,c2,c3,enhancible", "%.12g,%.12g,%.12g,%s\n",
                (*result.points.T, np.where(result.enhancible, "true", "false")))
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
    f_before = _damped_f(c1, c2, c1, 0.0, 1.0)
    _, idx, f_opt = _verdict(c1, c2, c1, f_before)
    rows = np.column_stack([c1, f_before, f_before])
    rows[idx, 2] = f_opt
    return rows


def write_profile_csv(rows: np.ndarray, fh) -> None:
    _write_rows(fh, "c1,f_before,f_after", "%.12g,%.12g,%.12g\n", rows.T)
