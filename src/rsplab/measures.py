"""Closed-form correlation measures for two-qubit states.

Both measures are spectra of blocks of the state's coefficient matrix C
(a = C[1:, 0], E = C[1:, 1:]):

* RSP-fidelity  F = (E2^2 + E3^2) / 2  with E1^2 >= E2^2 >= E3^2 the
  eigenvalues of E^T E,
* normalized geometric discord  D = (|a|^2 + |E|_F^2 - lambda_max) / 2
  with lambda_max the largest eigenvalue of a a^T + E E^T.

D >= F holds for every state; `measure_pair` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import TwoQubitState

ORDER_TOL = 1e-9
# eigvalsh of a 3x3 symmetric matrix A errs by up to about 3 eps ||A||_2, and
# ||E^T E||_2 = e_sq[0]; measure_pair reports values at or below
# NOISE_REL * e_sq[0] (zero in exact arithmetic, e.g. for product states) as 0.
NOISE_REL = 3.0 * np.finfo(float).eps
# d_g = (S - lambda_max) / 2 with S = |a|^2 + |E|_F^2 = tr(A), A = a a^T + E E^T,
# errs by at most DG_NOISE_REL * S: each entry of A sums 4 rounded products
# of absolute sum at most that entry of |a||a|^T + |E||E|^T, a PSD matrix
# whose Frobenius norm is at most its trace S, so forming A moves lambda_max by
# up to 2 eps S; eigvalsh adds 3 eps ||A||_2 <= 3 eps S; summing the 12 rounded
# squares of S errs by up to 5 eps S.  measure_pair reports d_g at or below it
# (zero in exact arithmetic, e.g. for product states) as 0.
DG_NOISE_REL = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class MeasureReport:
    f_rsp: float
    d_g: float
    lambda_max: float
    e_sq: tuple  # eigenvalues of E^T E, descending

    def __post_init__(self):
        e_sq = tuple(float(v) for v in self.e_sq)
        if list(e_sq) != sorted(e_sq, reverse=True):
            raise ValueError("e_sq must be sorted descending")
        if self.d_g < self.f_rsp - 1e-10:
            raise ValueError("d_g below f_rsp beyond tolerance")
        object.__setattr__(self, "e_sq", e_sq)


def spectra(c):
    """Both measures of coefficient matrices C, batched over leading axes.

    Args:
        c: array of shape (..., 4, 4), each C as in ``states``.

    Returns:
        ``(f_rsp, d_g, e_sq, lambda_max)`` with e_sq of shape (..., 3)
        holding the eigenvalues of E^T E in descending order.
    """
    c = np.asarray(c, dtype=float)
    a = c[..., 1:, 0]
    e = c[..., 1:, 1:]
    et = e.swapaxes(-1, -2)
    # both Grams, E^T E and a a^T + E E^T, written into one stack
    grams = np.empty(c.shape[:-2] + (2, 3, 3))
    np.matmul(et, e, out=grams[..., 0, :, :])
    outer = np.multiply(a[..., :, None], a[..., None, :], out=grams[..., 1, :, :])
    outer += e @ et
    vals = np.linalg.eigvalsh(grams)
    f, e_sq = _fidelity(vals[..., 0, :])
    lam_max = vals[..., 1, -1]
    d = np.maximum(0.5 * ((a * a).sum(-1) + (e * e).sum((-2, -1)) - lam_max), 0.0)
    return f, d, e_sq, lam_max


def _fidelity(vals):
    """f_rsp and e_sq (descending) from the ascending eigenvalues (..., 3)
    of E^T E."""
    # E^T E is PSD; clip eigensolver noise
    e_sq = np.maximum(vals[..., ::-1], 0.0)
    return 0.5 * (e_sq[..., 1] + e_sq[..., 2]), e_sq


def _rsp_fidelities(c) -> np.ndarray:
    """The f_rsp of ``spectra(c)`` alone, bit for bit, from E^T E only:
    half the eigensolves, for the unital suite."""
    e = np.asarray(c, dtype=float)[..., 1:, 1:]
    return _fidelity(np.linalg.eigvalsh(e.swapaxes(-1, -2) @ e))[0]


def rsp_fidelity(s: TwoQubitState) -> float:
    """RSP-fidelity, the sum of the two smallest eigenvalues of E^T E over 2."""
    return float(spectra(s.c)[0])


def gmqd(s: TwoQubitState) -> float:
    """Normalized geometric quantum discord."""
    return float(spectra(s.c)[1])


def measure_pair(s: TwoQubitState) -> MeasureReport:
    """Both measures plus the intermediate spectra.

    f_rsp and the e_sq entries at or below NOISE_REL * e_sq[0], and d_g at
    or below DG_NOISE_REL * (|a|^2 + |E|_F^2), are taken as rounding of an
    exact zero and reported as 0.0; rsp_fidelity, gmqd and spectra return
    them as computed.

    Raises:
        RuntimeError: if d_g < f_rsp - 1e-9, which can only come from a
            numerical bug, never from a valid state.
    """
    c = s.c
    f, d, e_sq, lam_max = spectra(c)
    f, d = float(f), float(d)
    if d < f - ORDER_TOL:
        raise RuntimeError(f"ordering violated: d_g={d!r} < f_rsp={f!r}")
    e_sq = e_sq.tolist()
    noise = NOISE_REL * e_sq[0]
    d_noise = DG_NOISE_REL * float((c[1:] * c[1:]).sum())
    return MeasureReport(f_rsp=f if f > noise else 0.0,
                         d_g=d if d > d_noise else 0.0,
                         lambda_max=float(lam_max),
                         e_sq=tuple(v if v > noise else 0.0 for v in e_sq))
