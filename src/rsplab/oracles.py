"""Brute-force verifiers independent of the closed-form measures.

The protocol oracle replays the remote-state-preparation game itself:
Alice measures along trial axes, Bob conditionally applies a pi
rotation about a correction axis, and the squared overlap with each
target is averaged over a great circle of targets and minimized over
the correction axis.  The discord oracle searches classical-quantum
states directly.  Both must land on the closed forms within stated
tolerances without sharing any code with them.

All randomness is derived per trial from (seed, trial index), so a
suite's report depends only on its arguments.  The unital suite draws
each trial's inputs in turn and then evaluates its trials as stacked
arrays, a fixed-size chunk at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channels, enhancement, measures, seeding, states
from .linalg import ID2, PAULIS, su2_axis_angle
from .states import BellDiagonalParams, TwoQubitState, bell_diagonal, bell_eigenvalues

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
MAX_GRID = 2**24
MAX_AXES = 2**15
MAX_TRIALS = 10**7
# Trials per stacked evaluation in the unital suite: bounds its working set.
SUITE_CHUNK = 1024


@dataclass(frozen=True)
class OracleConfig:
    """Grid sizes for the direction-search oracles."""

    seed: int = 0
    n_beta: int = 72       # correction-axis / CQ-axis grid
    n_target: int = 24     # targets per great circle
    n_alpha: int = 256     # measurement-direction grid
    refine_iters: int = 4  # local refinement rounds, shrink 0.2

    def __post_init__(self):
        for name in ("n_beta", "n_target", "n_alpha", "refine_iters"):
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be at least 4")
        # The searches are batched, so the grids set the working set:
        # payoff arrays of n_beta * n_target * n_alpha floats (128 MiB at
        # the cap) and about 3 KB per CQ-axis candidate (n_beta * 5/4).
        size = self.n_beta * self.n_target * self.n_alpha
        if size > MAX_GRID:
            raise ValueError(f"n_beta * n_target * n_alpha must be at most {MAX_GRID}, got {size}")
        if self.n_beta > MAX_AXES:
            raise ValueError(f"n_beta must be at most {MAX_AXES}, got {self.n_beta}")

    def as_dict(self):
        return {"seed": int(self.seed), "n_beta": int(self.n_beta),
                "n_target": int(self.n_target), "n_alpha": int(self.n_alpha),
                "refine_iters": int(self.refine_iters)}


@dataclass(frozen=True)
class OracleReport:
    estimate: float
    reference: float
    abs_err: float
    trials: int
    seed: int
    config: dict = field(default_factory=dict)
    worst_case: str = ""
    passed: bool = True

    def __post_init__(self):
        if abs(self.abs_err - abs(self.estimate - self.reference)) > 1e-15:
            raise ValueError("abs_err must equal |estimate - reference|")

    def as_dict(self):
        """The serialized report: exactly the documented six keys."""
        return {"estimate": self.estimate, "reference": self.reference,
                "abs_err": self.abs_err, "trials": self.trials,
                "seed": self.seed, "config": dict(self.config)}


def _report(estimate, reference, trials, seed, config, worst_case, passed):
    return OracleReport(estimate=float(estimate), reference=float(reference),
                        abs_err=abs(float(estimate) - float(reference)),
                        trials=int(trials), seed=int(seed), config=config,
                        worst_case=worst_case, passed=bool(passed))


# ---------------------------------------------------------------------------
# Direction grids and the search loop

def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly uniform unit vectors, no pole clustering."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _frame(v: np.ndarray):
    """Unit vectors (u, w) completing each unit axis v (..., 3) to a frame."""
    aux = np.where(np.abs(v[..., :1]) < 0.9,
                   np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    u = np.cross(v, aux)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(v, u)


def _cap_grid(centers: np.ndarray, radius: float, n: int) -> np.ndarray:
    """(..., n, 3) Fibonacci-style points inside the caps around centers (..., 3)."""
    u, w = _frame(centers)
    i = np.arange(n)
    cos_t = 1.0 - ((i + 0.5) / n) * (1.0 - np.cos(radius))
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = i * GOLDEN_ANGLE
    return (cos_t[:, None] * centers[..., None, :]
            + sin_t[:, None] * (np.cos(phi)[:, None] * u[..., None, :]
                                + np.sin(phi)[:, None] * w[..., None, :]))


def _argmax_point(points: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The points (..., 3) of points (..., m, 3) where vals (..., m) is
    largest, the first one on ties."""
    k = np.asarray(vals.argmax(axis=-1))[..., None, None]
    return np.take_along_axis(np.broadcast_to(points, vals.shape + (3,)), k, axis=-2)[..., 0, :]


def _sphere_search(objective, grid, radius, n_cap, rounds, sign):
    """Optimize objective over the sphere: grid first, then shrinking caps.

    ``objective`` maps points (..., m, 3) to values (..., m); its leading
    axes are independent searches.  ``grid`` (m, 3) is shared by all of
    them.  sign=+1 maximizes, sign=-1 minimizes.  Each round scans a cap
    of ``n_cap`` points around every current best, keeps the first best
    cap point only if it strictly improves, and shrinks the radius by
    0.2.  Returns the best points (..., 3) and values (...).
    """
    vals = sign * objective(grid)
    best, best_val = _argmax_point(grid, vals), vals.max(axis=-1)
    for _ in range(rounds):
        caps = _cap_grid(best, radius, n_cap)
        vals = sign * objective(caps)
        cap_val = vals.max(axis=-1)
        better = cap_val > best_val
        best_val = np.where(better, cap_val, best_val)
        best = np.where(better[..., None], _argmax_point(caps, vals), best)
        radius *= 0.2
    return best, sign * best_val


# ---------------------------------------------------------------------------
# Protocol oracle

def _designated_payoffs(b, e, betas, targets, alphas):
    """Payoffs (..., n_target, m) of the simulated protocol round.

    ``betas`` (..., 3) are correction axes, ``targets`` (..., n_target,
    3) their target circles and ``alphas`` measurement axes, either one
    shared grid (m, 3) or one set per target (..., n_target, m, 3).
    For measurement axis alpha the two outcomes leave Bob the
    subnormalized conditional vectors (b +- E^T alpha)/2 (weight times
    conditional Bloch vector, so zero-probability outcomes need no
    special casing).  Bob applies the pi rotation about beta to one
    designated outcome; the payoff of the outcome-averaged corrected
    state is its squared projection on the target.  Both designations
    are tried and the better kept.
    """
    ea = alphas @ e  # rows are E^T alpha
    vp = 0.5 * (b + ea)
    vm = 0.5 * (b - ea)
    # the pi rotation 2 beta beta^T - 1 is symmetric, so it acts on rows as is
    flip = (2.0 * betas[..., :, None] * betas[..., None, :] - np.eye(3))[..., None, :, :]
    w_minus = vp + vm @ flip   # rotate the -1 outcome
    w_plus = vp @ flip + vm    # rotate the +1 outcome
    t = targets[..., :, None]
    pay_minus = (w_minus @ t)[..., 0] ** 2
    pay_plus = (w_plus @ t)[..., 0] ** 2
    return np.maximum(pay_minus, pay_plus)


def protocol_fidelity_oracle(s: TwoQubitState,
                             cfg: Optional[OracleConfig] = None) -> OracleReport:
    """Estimate the RSP-fidelity by simulating the protocol directly.

    Minimizes the target-averaged optimized payoff over correction axes
    on a Fibonacci grid with local cap refinement; for each correction
    axis the payoff of every target on its great circle is maximized
    over measurement axes the same way.  Contract: within 5e-3 of the
    closed form at default grids for Bell-diagonal states and random
    states of purity <= 0.99.
    """
    cfg = cfg or OracleConfig()
    b, e = s.b, s.e
    reference = measures.rsp_fidelity(s)
    alphas = fibonacci_sphere(cfg.n_alpha)
    th = 2.0 * np.pi * np.arange(cfg.n_target) / cfg.n_target

    def beta_payoff(betas):
        """Target-averaged payoff at correction axes (..., 3), optimized over alpha."""
        u, w = _frame(betas)
        targets = (np.cos(th)[:, None] * u[..., None, :]
                   + np.sin(th)[:, None] * w[..., None, :])
        _, best = _sphere_search(
            lambda a: _designated_payoffs(b, e, betas, targets, a), alphas,
            2.0 * 3.6 / np.sqrt(cfg.n_alpha), 24, cfg.refine_iters, 1.0)
        return best.mean(axis=-1)

    _, best_val = _sphere_search(beta_payoff, fibonacci_sphere(cfg.n_beta),
                                 2.0 * 3.6 / np.sqrt(cfg.n_beta), 32,
                                 cfg.refine_iters, -1.0)
    best_val = float(best_val)
    return _report(best_val, reference, 1, cfg.seed, cfg.as_dict(),
                   worst_case=f"abs_err={abs(best_val - reference):.3e}",
                   passed=abs(best_val - reference) <= 5e-3)


# ---------------------------------------------------------------------------
# GMQD search oracle

def _pinched_distances(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """2 * HS distance^2 from rho to the CQ states pinched along axes (..., 3).

    Each candidate is validated as a genuine classical-quantum state
    (orthonormal axis kets, PSD parts, weights summing to one) before
    its distance is returned.
    """
    h = np.tensordot(axes, np.stack(PAULIS), axes=(-1, 0))
    ket = np.linalg.eigh(h)[1][..., :, -1]  # +1 eigenvector of axis.sigma
    proj_p = ket[..., :, None] * ket[..., None, :].conj()
    projs = np.stack([proj_p, ID2 - proj_p])
    proj4 = np.einsum("...ij,kl->...ikjl", projs, ID2).reshape(projs.shape[:-2] + (4, 4))
    proj_rho = proj4 @ rho
    sandwiches = proj_rho @ proj4
    weights = np.trace(proj_rho, axis1=-2, axis2=-1).real
    live = weights > 1e-12
    parts = sandwiches / np.where(live, weights, 1.0)[..., None, None]
    evs = np.linalg.eigvalsh(0.5 * (parts + np.swapaxes(parts, -1, -2).conj()))
    if np.any(live & (evs[..., 0] < -1e-9)):
        raise RuntimeError("pinched part not PSD")
    if np.any(np.abs(weights[0] + weights[1] - 1.0) > 1e-10):
        raise RuntimeError("pinched weights do not sum to 1")
    diff = rho - (sandwiches[0] + sandwiches[1])
    return 2.0 * np.sum(diff * diff.conj(), axis=(-2, -1)).real


def gmqd_search_oracle(s: TwoQubitState,
                       cfg: Optional[OracleConfig] = None) -> OracleReport:
    """Upper-bound the discord by direct search over CQ states.

    Classical-quantum candidates are parameterized by Alice's axis; for
    each axis the best candidate is the pinching of the state, and the
    axis is optimized over a Fibonacci grid plus seeded random restarts
    with local cap refinement.  Always an upper bound (within 1e-9);
    within 1e-3 of the closed form for Bell-diagonal states.
    """
    cfg = cfg or OracleConfig()
    rho = s.rho
    reference = measures.gmqd(s)
    rng = np.random.default_rng([cfg.seed, 0x6d71])
    restarts = rng.normal(size=(max(4, cfg.n_beta // 4), 3))
    axes = np.concatenate([fibonacci_sphere(cfg.n_beta),
                           restarts / np.linalg.norm(restarts, axis=1, keepdims=True)])
    _, best_val = _sphere_search(lambda ax: _pinched_distances(rho, ax), axes,
                                 2.0 * 3.6 / np.sqrt(cfg.n_beta), 32,
                                 cfg.refine_iters, -1.0)
    best_val = float(best_val)
    return _report(best_val, reference, 1, cfg.seed, cfg.as_dict(),
                   worst_case=f"err={best_val - reference:.3e}",
                   passed=(best_val >= reference - 1e-9))


# ---------------------------------------------------------------------------
# Random inputs

def _ginibre_from_normals(x: np.ndarray) -> np.ndarray:
    """Matrices G (..., 4, 4) of 32 standard normals (..., 32) each: the
    real parts of G, row by row, then its imaginary parts."""
    x = x.reshape(x.shape[:-1] + (2, 4, 4))
    return x[..., 0, :, :] + 1.0j * x[..., 1, :, :]


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    """Density matrices G G^dag / tr of matrices g (..., 4, 4)."""
    rho = g @ np.swapaxes(g, -1, -2).conj()
    return rho / rho.trace(axis1=-2, axis2=-1).real[..., None, None]


def ginibre_state(rng: np.random.Generator) -> TwoQubitState:
    """Random density matrix G G^dag / tr, G standard complex normal with
    its real parts drawn first."""
    return TwoQubitState(_normalized_gram(_ginibre_from_normals(rng.normal(size=32))))


def bounded_purity_state(rng: np.random.Generator) -> TwoQubitState:
    """The first ``ginibre_state`` of purity at most 0.99."""
    s = ginibre_state(rng)
    while s.purity > 0.99:
        s = ginibre_state(rng)
    return s


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Axis uniform on the sphere, angle uniform on [0, 2pi)."""
    x, y, z, angle = channels._axis_angle_draw(rng)
    return su2_axis_angle([x, y, z], angle)


def random_bell_params(rng: np.random.Generator) -> BellDiagonalParams:
    """Uniform point of the Bell tetrahedron by rejection from the cube."""
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        if bell_eigenvalues(*c).min() >= 0.0:
            return BellDiagonalParams(*(float(x) for x in c))


# ---------------------------------------------------------------------------
# Suites

def _check_trials(n_trials: int) -> None:
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if n_trials > MAX_TRIALS:
        raise ValueError(f"n_trials must be at most {MAX_TRIALS}, got {n_trials}")


def _unital_draws(rng: np.random.Generator) -> list:
    """A trial's random inputs as 32 + 2 * UNITAL_DRAW floats, drawn in
    order from its generator as ``ginibre_state`` and
    ``sample_unital_local`` draw them: the 32 normals of the Ginibre
    matrix, then the draws of channels A and B."""
    return [*rng.normal(size=32).tolist(), *channels._unital_draw(rng),
            *channels._unital_draw(rng)]


def _unital_inputs(draws: np.ndarray):
    """Ginibre matrices G (n, 4, 4) and channel parameters w (n, 2, 4),
    axes (n, 2, 2, 3) and angles (n, 2, 2) of trial draws
    (n, 32 + 2 * UNITAL_DRAW) from ``_unital_draws``."""
    return (_ginibre_from_normals(draws[:, :32]),
            *channels._unital_params(draws[:, 32:].reshape(-1, 2, channels.UNITAL_DRAW)))


def _unital_rises(g, w, axes, angles) -> np.ndarray:
    """RSP-fidelity after minus before of stacked trials.

    The states rho = G G^dag / tr, the channels and the after-states are
    validated as ``ginibre_state``, ``sample_unital_local`` and
    ``apply_local`` validate them.
    """
    c = states._coefficients(_normalized_gram(g))
    _, ptm, _ = channels._unital_channels(w, axes, angles)
    _, after = states._composed(channels._product_action(ptm[:, 0], c, ptm[:, 1]))
    f = measures._rsp_fidelities(np.stack([c, after]))
    return f[1] - f[0]


def unital_monotonicity_suite(n_trials: int = 10000, seed: int = 0) -> OracleReport:
    """Random (state, local unital channel pair) trials; the RSP-fidelity
    must never increase beyond 1e-9.  A failed report means an
    implementation bug somewhere, never a valid outcome.

    Trial i draws its inputs from the stream of ``default_rng([seed, i])``;
    the trials are then evaluated as stacked arrays, ``SUITE_CHUNK`` at a
    time.
    """
    _check_trials(n_trials)
    worst = -np.inf
    worst_idx = -1
    for start in range(0, n_trials, SUITE_CHUNK):
        stop = min(start + SUITE_CHUNK, n_trials)
        draws = np.array([_unital_draws(r) for r in seeding.trial_rngs(seed, start, stop)])
        rises = _unital_rises(*_unital_inputs(draws))
        k = int(np.argmax(rises))
        if rises[k] > worst:
            worst = float(rises[k])
            worst_idx = start + k
    return _report(worst, 0.0, n_trials, seed, {"n_trials": int(n_trials)},
                   worst_case=f"max increase {worst:.3e} at trial {worst_idx}",
                   passed=worst <= 1e-9)


def _pair_measures(before: TwoQubitState, after: TwoQubitState):
    """((f before, f after), (d_g before, d_g after)) from one spectra call."""
    f, d, _, _ = measures.spectra(np.array([before.c, after.c]))
    return f.tolist(), d.tolist()


def nonunital_increase_witness() -> OracleReport:
    """The (-1,0,0) demonstration: zero fidelity made positive by
    symmetric amplitude damping at the optimal strength."""
    params = (-1.0, 0.0, 0.0)
    before = bell_diagonal(*params)
    p_star = enhancement.p_opt(params)
    ch = channels.amplitude_damping(p_star)
    after = channels.apply_local(ch, ch, before)
    (f0, f1), (d0, d1) = _pair_measures(before, after)
    q1v = enhancement.q1(1.0, 0.0)
    reference = 0.5 * q1v * q1v
    ok = (abs(f0) <= 1e-12 and abs(f1 - reference) <= 1e-9 and d1 > d0 + 1e-12)
    return _report(f1, reference, 1, 0, {"p_opt": p_star},
                   worst_case=(f"f {f0:.3g} -> {f1:.9g}, d_g {d0:.3g} -> {d1:.9g}"),
                   passed=ok)


def _discord_raising_pair():
    """(|00><00| + |11><11|)/2 and its image under discord_raising x id."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5  # |00><00|
    rho[3, 3] = 0.5  # |11><11|
    before = TwoQubitState(rho)
    return before, channels.apply_local(channels.discord_raising(),
                                        channels.identity_channel(), before)


def discord_raising_check() -> OracleReport:
    """The intro example: a zero-discord state gains discord 0.25 under a
    local channel while its RSP-fidelity stays zero."""
    before, after = _discord_raising_pair()
    (_, f1), (d0, d1) = _pair_measures(before, after)
    ok = (abs(d0) <= 1e-10 and abs(d1 - 0.25) <= 1e-10 and abs(f1) <= 1e-10)
    return _report(d1, 0.25, 1, 0, {},
                   worst_case=f"d_g {d0:.3g} -> {d1:.12g}, f stays {f1:.3g}",
                   passed=ok)


def _named_states():
    singlet = bell_diagonal(-1.0, -1.0, -1.0)
    mixed = bell_diagonal(0.0, 0.0, 0.0)
    demo = bell_diagonal(0.5, 0.0, -0.5)
    gap = _discord_raising_pair()[1]
    return [("singlet", singlet), ("maximally_mixed", mixed),
            ("bell(0.5,0,-0.5)", demo), ("cq_gap", gap)]


def protocol_suite(n_trials: int = 50, seed: int = 0,
                   cfg: Optional[OracleConfig] = None) -> OracleReport:
    """Protocol oracle over random states plus the named landmark states."""
    _check_trials(n_trials)
    cfg = cfg or OracleConfig(seed=seed)
    named = _named_states()
    randoms = ((f"random_{i}", bounded_purity_state(np.random.default_rng([seed, i])))
               for i in range(n_trials))
    worst_err = -1.0
    worst = None
    for label, state in itertools.chain(named, randoms):
        rep = protocol_fidelity_oracle(state, cfg)
        if rep.abs_err > worst_err:
            worst_err = rep.abs_err
            worst = (label, rep)
    label, rep = worst
    return _report(rep.estimate, rep.reference, len(named) + n_trials, seed, cfg.as_dict(),
                   worst_case=f"worst |err|={worst_err:.3e} on {label}",
                   passed=worst_err <= 5e-3)


def gmqd_suite(n_trials: int = 20, seed: int = 0,
               cfg: Optional[OracleConfig] = None) -> OracleReport:
    """Search oracle over random Bell-diagonal states."""
    _check_trials(n_trials)
    cfg = cfg or OracleConfig(seed=seed)
    worst_err = -np.inf
    worst = None
    ok = True
    for i in range(n_trials):
        rng = np.random.default_rng([seed, i])
        state = bell_diagonal(random_bell_params(rng))
        rep = gmqd_search_oracle(state, cfg)
        err = rep.estimate - rep.reference
        if err < -1e-9 or err > 1e-3:
            ok = False
        if abs(err) > worst_err:
            worst_err = abs(err)
            worst = (i, rep)
    i, rep = worst
    return _report(rep.estimate, rep.reference, n_trials, seed, cfg.as_dict(),
                   worst_case=f"worst |err|={worst_err:.3e} at trial {i}",
                   passed=ok)
