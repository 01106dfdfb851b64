"""Test-only references: routes the package itself never takes.

Each is written from its definition, with its own Pauli matrices and
tolerance, so a test that checks the package against one of them shares
no code with what it checks.  The only names taken from the package are
the two result types that ``parse_trace_csv`` rebuilds.

- ``choi_from_affine`` and ``affine_to_kraus``: from an affine Bloch map
  (t, T) to its Choi matrix and to Kraus operators;
- ``rotation_axis_angle``: the Bloch rotation of an axis and an angle;
- ``checked_coefficients``: the bounds that a state's coefficient
  matrix C satisfies, checked on C itself;
- ``parse_trace_csv`` and ``parse_scan_csv``: readers of the CSV files
  that ``evolve`` and ``scan`` write.
"""

import math

import numpy as np

from rsplab.enhancement import EvolutionTrace, SuddenChange

CP_TOL = 1e-9  # PSD tolerance of a Choi matrix

# sigma_mu for mu = 0..3, sigma_0 = I
PAULI = np.array([[[1, 0], [0, 1]],
                  [[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)


def choi_from_affine(t, tmat) -> np.ndarray:
    """Choi matrix sum_ij |i><j| o Phi(|i><j|) of the affine map, no CP check.

    The affine action extends to all 2x2 inputs by complex linearity:
    X = x0 I + x.sigma maps to x0 I + (x0 t + T x).sigma.  Maps that are
    not channels are allowed; their Choi matrix then fails PSD.
    """
    m = np.zeros((4, 4))  # the Pauli transfer matrix 1 (+) (t, T)
    m[0, 0] = 1.0
    m[1:, 0] = np.asarray(t, dtype=float).reshape(3)
    m[1:, 1:] = np.asarray(tmat, dtype=float).reshape(3, 3)
    # Phi(|i><j|) = sum_{mu nu} M[mu, nu] sigma_nu[j, i] sigma_mu / 2
    choi = np.einsum("mn,nji,mab->iajb", m, PAULI, PAULI)
    return 0.5 * choi.reshape(4, 4)


def affine_to_kraus(t, tmat):
    """Kraus operators of a CP affine map via Choi eigendecomposition.

    Raises:
        ValueError: if the Choi matrix is not PSD within CP_TOL (the map
            is not completely positive).
    """
    vals, vecs = np.linalg.eigh(choi_from_affine(t, tmat))
    if vals[0] < -CP_TOL:
        raise ValueError(f"map is not completely positive: Choi eigenvalue {vals[0]:.3e}")
    kraus = []
    for val, vec in zip(vals, vecs.T):
        if val > 1e-12:
            kraus.append(np.sqrt(val) * vec.reshape(2, 2).T)
    return kraus


def rotation_axis_angle(axis, angle: float) -> np.ndarray:
    """Proper rotation about a unit axis by ``angle`` radians (Rodrigues).

    Raises:
        ValueError: if ``axis`` is not unit length within 1e-12.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"axis must be unit length, |axis| = {norm!r}")
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _top(values):
    """Max of per-matrix values; one matrix's 0-d value as it is."""
    return values.max() if values.ndim else values


def checked_coefficients(c: np.ndarray) -> np.ndarray:
    """Validate coefficient matrices (..., 4, 4) and make them read-only.

    A message with a number gives the worst entry of the stack.
    """
    if not np.isfinite(c).all():
        raise ValueError("decomposition entries must be finite")
    dev = abs(c[..., 0, 0] - 1.0)
    if _top(dev) > 1e-9:
        raise ValueError(f"C[0, 0] must be 1 (unit trace), got {float(c[..., 0, 0].flat[dev.argmax()])!r}")
    sq = c * c
    if math.sqrt(max(_top(sq[..., 1:, 0].sum(-1)), _top(sq[..., 0, 1:].sum(-1)))) > 1 + 1e-9:
        raise ValueError("Bloch vector norm exceeds 1")
    if abs(c[..., 1:, 1:]).max() > 1 + 1e-9:
        raise ValueError("correlation matrix entry exceeds 1 in magnitude")
    c.setflags(write=False)
    return c


def parse_trace_csv(text: str) -> EvolutionTrace:
    """The trace that ``evolve`` wrote, validating the schema."""
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


def parse_scan_csv(text: str):
    """Rows of the CSV that ``scan`` wrote, as (points array, bool flags)."""
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
