"""Slower randomized checks live in the acceptance module; these keep
the oracle plumbing honest at small trial counts."""
import tracemalloc

import numpy as np
import pytest

from rsplab import channels, oracles, seeding
from rsplab.channels import apply_local, depolarizing, phase_flip, sample_unital_local
from rsplab.linalg import su2_axis_angle
from rsplab.measures import gmqd, rsp_fidelity
from rsplab.oracles import (
    MAX_TRIALS,
    SUITE_CHUNK,
    OracleConfig,
    OracleReport,
    _named_states,
    _sphere_search,
    bounded_purity_state,
    discord_raising_check,
    fibonacci_sphere,
    ginibre_state,
    gmqd_search_oracle,
    gmqd_suite,
    nonunital_increase_witness,
    protocol_fidelity_oracle,
    protocol_suite,
    random_bell_params,
    random_unitary,
    unital_monotonicity_suite,
)
from rsplab.states import bell_diagonal, bell_eigenvalues

FAST = OracleConfig(seed=7, n_beta=24, n_target=12, n_alpha=64,
                    refine_iters=4)


def test_config_rejects_small_counts():
    for field in ("n_beta", "n_target", "n_alpha", "refine_iters"):
        with pytest.raises(ValueError):
            OracleConfig(**{field: 3})


def test_config_rejects_oversized_grids():
    with pytest.raises(ValueError):
        OracleConfig(n_beta=1024, n_target=128, n_alpha=256)  # 2^25 payoffs
    with pytest.raises(ValueError):
        OracleConfig(n_beta=2**15 + 1)
    OracleConfig(n_beta=256, n_target=256, n_alpha=256)  # exactly 2^24


def test_report_checks_abs_err():
    with pytest.raises(ValueError):
        OracleReport(estimate=1.0, reference=0.5, abs_err=0.1,
                     trials=1, seed=0, config={})


def test_report_as_dict_keys():
    rep = OracleReport(estimate=1.0, reference=0.5, abs_err=0.5,
                       trials=3, seed=9, config={"n_beta": 24})
    assert sorted(rep.as_dict()) == ["abs_err", "config", "estimate",
                                     "reference", "seed", "trials"]


def test_fibonacci_sphere_is_unit_and_spread():
    pts = fibonacci_sphere(200)
    assert pts.shape == (200, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # mean of a well spread set sits near the origin
    assert np.linalg.norm(pts.mean(axis=0)) < 0.02


def _linear(v):
    """x . v for points (..., m, 3) and one v (..., 3) per search."""
    return lambda pts: (pts * v[..., None, :]).sum(axis=-1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sphere_search_single(sign):
    v = np.array([0.3, -0.5, 0.81])
    v /= np.linalg.norm(v)
    best, val = _sphere_search(_linear(v), fibonacci_sphere(64), 0.9, 32, 6, sign)
    assert best.shape == (3,)
    assert np.linalg.norm(best - sign * v) <= 1e-3
    assert val == pytest.approx(sign, abs=1e-6)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sphere_search_batch(sign):
    # a (2, 3) batch of independent searches, each equal to its own run
    v = np.random.default_rng(3).normal(size=(2, 3, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    best, val = _sphere_search(_linear(v), fibonacci_sphere(64), 0.9, 32, 6, sign)
    assert best.shape == (2, 3, 3) and val.shape == (2, 3)
    assert np.linalg.norm(best - sign * v, axis=-1).max() <= 1e-3
    assert np.allclose(val, sign, atol=1e-6)
    for idx in np.ndindex(2, 3):
        one_best, one_val = _sphere_search(_linear(v[idx]), fibonacci_sphere(64),
                                           0.9, 32, 6, sign)
        assert np.array_equal(best[idx], one_best) and val[idx] == one_val


# FAST-config estimates on the four named states and four random ones,
# pinned so that a rewrite of the search cannot drift unnoticed
PINNED_PROTOCOL = [0.9997834569825023, 0.0, 0.12499977616482343,
                   8.841823407323042e-07, 0.035966501593306534,
                   0.04564701219350251, 0.09081158224613378,
                   0.16532203323721512]
PINNED_GMQD = [0.9999999999999989, 0.0, 0.12500000000000006, 0.25,
               0.07355545610357721, 0.05629583757967739,
               0.1233626166107603, 0.17607109263626727]


def test_oracles_match_pinned_estimates():
    rng = np.random.default_rng(2024)
    states = ([s for _, s in _named_states()]
              + [bounded_purity_state(rng) for _ in range(4)])
    for s, p_est, g_est in zip(states, PINNED_PROTOCOL, PINNED_GMQD):
        assert protocol_fidelity_oracle(s, FAST).estimate == pytest.approx(p_est, abs=1e-12)
        assert gmqd_search_oracle(s, FAST).estimate == pytest.approx(g_est, abs=1e-12)


def test_protocol_oracle_named_states():
    rep = protocol_fidelity_oracle(bell_diagonal(-1.0, -1.0, -1.0), FAST)
    assert rep.reference == pytest.approx(1.0, abs=1e-12)
    assert rep.abs_err <= 5e-3

    rep = protocol_fidelity_oracle(bell_diagonal(0.0, 0.0, 0.0), FAST)
    assert rep.reference == 0.0
    assert rep.estimate <= 5e-3

    rep = protocol_fidelity_oracle(bell_diagonal(0.5, 0.0, -0.5), FAST)
    assert rep.reference == pytest.approx(0.125, abs=1e-12)
    assert rep.abs_err <= 5e-3


def test_protocol_oracle_random_states():
    # the alpha grid undershoots each payoff while the beta grid can
    # overshoot the minimum, so the error is two sided
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = bounded_purity_state(rng)
        rep = protocol_fidelity_oracle(s, FAST)
        assert rep.abs_err <= 2e-2


def test_gmqd_oracle_named_states():
    rep = gmqd_search_oracle(bell_diagonal(-1.0, -1.0, -1.0), FAST)
    assert rep.reference == pytest.approx(1.0, abs=1e-12)
    assert rep.abs_err <= 1e-3

    rep = gmqd_search_oracle(bell_diagonal(0.5, 0.0, -0.5), FAST)
    assert rep.reference == pytest.approx(0.125, abs=1e-12)
    assert rep.abs_err <= 1e-3


def test_gmqd_oracle_upper_bounds():
    # restricting the minimization leaves the estimate above the true value
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = ginibre_state(rng)
        rep = gmqd_search_oracle(s, FAST)
        assert rep.estimate >= rep.reference - 1e-9


def test_monotonicity_small_run():
    rep = unital_monotonicity_suite(n_trials=300, seed=42)
    assert rep.passed
    assert rep.trials == 300
    assert rep.estimate <= 1e-9  # worst fidelity increase seen


def _scalar_rises(seed, n_trials):
    """Per-trial f increase along the scalar route: one state, one
    channel pair and one application at a time."""
    rises = []
    for i in range(n_trials):
        rng = np.random.default_rng([seed, i])
        s = ginibre_state(rng)
        ch_a, ch_b = sample_unital_local(rng)
        rises.append(rsp_fidelity(apply_local(ch_a, ch_b, s)) - rsp_fidelity(s))
    return rises


@pytest.mark.parametrize("seed", range(5))
def test_monotonicity_suite_matches_scalar_loop(seed):
    rises = _scalar_rises(seed, SUITE_CHUNK + 1)
    for n in (1, 20, SUITE_CHUNK + 1):  # the last crosses a chunk boundary
        worst = max(rises[:n])
        rep = unital_monotonicity_suite(n_trials=n, seed=seed)
        assert rep.estimate == worst
        assert rep.worst_case.endswith(f" at trial {rises.index(worst)}")


def _reference_channel(rng):
    """Weights, unit axes and angles of one unital channel drawn with the
    generator's uniform and normal calls: uniform(-1, 1, 3) until the point
    lies in the CP tetrahedron, then per rotation normal(3), redrawn while
    its norm is at most 1e-12, and uniform(0, 2 pi)."""
    while True:
        l0, l1, l2 = rng.uniform(-1.0, 1.0, size=3)
        w = [0.25 * (1.0 + l0 + l1 + l2), 0.25 * (1.0 + l0 - l1 - l2),
             0.25 * (1.0 - l0 + l1 - l2), 0.25 * (1.0 - l0 - l1 + l2)]
        if min(w) >= 0.0:
            break
    axes, angles = [], []
    for _ in range(2):
        v = rng.normal(size=3)
        while np.linalg.norm(v) <= 1e-12:
            v = rng.normal(size=3)
        axes.append(v / np.linalg.norm(v))
        angles.append(rng.uniform(0.0, 2.0 * np.pi))
    return w, axes, angles


def _reference_pair(rng):
    """(w, axes, angles) arrays of two reference channel draws."""
    return [np.array(x) for x in zip(_reference_channel(rng), _reference_channel(rng))]


@pytest.mark.parametrize("seed", range(5))
def test_unital_draws_match_uniform_and_normal_calls(seed):
    n = SUITE_CHUNK + 1
    draws = np.array([oracles._unital_draws(np.random.default_rng([seed, i]))
                      for i in range(n)])
    got = oracles._unital_inputs(draws)
    ref_g, ref_params = [], []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        re = rng.normal(size=(4, 4))
        ref_g.append(re + 1.0j * rng.normal(size=(4, 4)))
        ref_params.append(_reference_pair(rng))
    assert np.array_equal(got[0], np.array(ref_g))
    for got_x, ref_x in zip(got[1:], zip(*ref_params)):
        assert np.array_equal(got_x, np.array(ref_x))
    # sample_unital_local draws its pair the same way
    kraus, ptm, _ = channels._unital_channels(*_reference_pair(np.random.default_rng(seed)))
    for ch, k, m in zip(sample_unital_local(seed), kraus, ptm):
        assert np.array_equal(np.stack(ch.kraus), k) and np.array_equal(ch.ptm, m)


# seeds of 1 to 5 and of 16 uint32 words, a numpy integer among them
SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 5, 2**128 + 7, 2**511 + 2**32 - 1,
         np.uint64(2**63 + 9)]
TRIALS = [0, 1, SUITE_CHUNK - 1, SUITE_CHUNK, MAX_TRIALS - 1]


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_trial_states_match_default_rng(seed):
    for start in TRIALS:
        stop = min(start + 3, MAX_TRIALS)
        states = [r.bit_generator.state for r in seeding.trial_rngs(seed, start, stop)]
        assert states == [np.random.default_rng([seed, i]).bit_generator.state
                          for i in range(start, stop)]


def test_seed_words_reject_out_of_range():
    # a negative seed, or an index past one uint32 word, has no one-word port
    for args in [(-1, 0, 3), (0, 2**32 - 1, 2**32 + 1), (0, 5, 4)]:
        with pytest.raises(ValueError, match="need seed >= 0"):
            seeding.seed_words(*args)


@pytest.mark.parametrize("name", ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B",
                                  "_MIX_MULT_L", "_MIX_MULT_R", "_PCG64_MULT"])
def test_trial_states_guard_catches_wrong_constant(monkeypatch, name):
    monkeypatch.setattr(seeding, name, getattr(seeding, name) ^ 2)
    with pytest.raises(RuntimeError, match="seeding differs"):
        list(seeding.trial_rngs(7, 5, 9))
    with pytest.raises(RuntimeError, match="seeding differs"):
        unital_monotonicity_suite(n_trials=3, seed=7)


def test_suites_reject_negative_seed():
    # numpy's own seed check, before any trial is evaluated
    for suite in (unital_monotonicity_suite, gmqd_suite):
        with pytest.raises(ValueError, match="non-negative"):
            suite(n_trials=2, seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        protocol_suite(n_trials=2, seed=-1, cfg=FAST)


def test_suite_channels_match_sample_unital_local():
    # trial i's channels in the suite are those sample_unital_local builds
    # from the same generator after the state's draws
    seed, n = 6, 25
    draws = np.array([oracles._unital_draws(r) for r in seeding.trial_rngs(seed, 0, n)])
    kraus, ptm, choi = channels._unital_channels(*oracles._unital_inputs(draws)[1:])
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        ginibre_state(rng)
        for k, ch in enumerate(sample_unital_local(rng)):
            assert np.array_equal(np.stack(ch.kraus), kraus[i, k])
            assert np.array_equal(ch.ptm, ptm[i, k]) and np.array_equal(ch.choi, choi[i, k])


def test_monotonicity_suite_independent_of_chunking(monkeypatch):
    whole = unital_monotonicity_suite(n_trials=50, seed=11)
    monkeypatch.setattr(oracles, "SUITE_CHUNK", 7)
    chunked = unital_monotonicity_suite(n_trials=50, seed=11)
    assert (chunked.estimate, chunked.worst_case) == (whole.estimate, whole.worst_case)


def _suite_peak_bytes(n_trials):
    tracemalloc.start()
    try:
        unital_monotonicity_suite(n_trials=n_trials, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monotonicity_suite_memory_bounded_by_chunk(monkeypatch):
    # with small chunks, ten times the trials must not need ten times the memory
    monkeypatch.setattr(oracles, "SUITE_CHUNK", 32)
    _suite_peak_bytes(32)  # first-call allocations are not the suite's
    one_chunk = _suite_peak_bytes(32)
    ten_chunks = _suite_peak_bytes(320)
    assert ten_chunks < 2 * one_chunk


def test_random_unitary_draws_axis_then_angle():
    rng = np.random.default_rng(8)
    v = rng.normal(size=3)
    expected = su2_axis_angle(v / np.linalg.norm(v), rng.uniform(0.0, 2.0 * np.pi))
    assert np.array_equal(random_unitary(np.random.default_rng(8)), expected)


def test_unital_pair_decreases_fidelity():
    before = bell_diagonal(-1.0, -1.0, -1.0)
    after = apply_local(phase_flip(0.3), depolarizing(0.5), before)
    # E' = diag(1, 1, -1) scaled by (0.4 on x/y, 1 on z) and 0.5 overall
    assert rsp_fidelity(after) == pytest.approx(0.04, abs=1e-12)
    assert rsp_fidelity(after) < rsp_fidelity(before)
    assert gmqd(after) >= rsp_fidelity(after) - 1e-12


def test_nonunital_witness():
    rep = nonunital_increase_witness()
    assert rep.passed
    assert rep.estimate == pytest.approx(0.072949, abs=1e-6)
    assert rep.abs_err <= 1e-9


def test_discord_raising_check():
    rep = discord_raising_check()
    assert rep.passed
    assert rep.reference == 0.25
    assert rep.abs_err <= 1e-10


def test_suites_are_deterministic():
    a = protocol_suite(n_trials=2, seed=3, cfg=FAST).as_dict()
    b = protocol_suite(n_trials=2, seed=3, cfg=FAST).as_dict()
    assert a == b

    a = gmqd_suite(n_trials=3, seed=3, cfg=FAST).as_dict()
    b = gmqd_suite(n_trials=3, seed=3, cfg=FAST).as_dict()
    assert a == b


def test_protocol_suite_small():
    rep = protocol_suite(n_trials=2, seed=0, cfg=FAST)
    assert rep.passed
    assert rep.trials == 6  # four named states plus the random draws
    assert rep.abs_err <= 5e-3


def test_gmqd_suite_small():
    rep = gmqd_suite(n_trials=4, seed=0, cfg=FAST)
    assert rep.passed
    assert rep.abs_err <= 1e-3


@pytest.mark.parametrize("n_trials", [0, -1])
@pytest.mark.parametrize("suite", [protocol_suite, gmqd_suite,
                                   unital_monotonicity_suite])
def test_suites_need_a_trial(suite, n_trials):
    with pytest.raises(ValueError, match="at least one trial"):
        suite(n_trials=n_trials)


@pytest.mark.parametrize("suite", [protocol_suite, gmqd_suite,
                                   unital_monotonicity_suite])
def test_suites_bound_trials(suite):
    # rejected before any trial is drawn, so this returns at once
    with pytest.raises(ValueError, match=f"at most {MAX_TRIALS}"):
        suite(n_trials=MAX_TRIALS + 1)


def test_random_state_generators():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = ginibre_state(rng)
        evals = np.linalg.eigvalsh(s.rho)
        assert evals.min() >= -1e-12
        assert abs(np.trace(s.rho).real - 1.0) <= 1e-12

    for _ in range(50):
        s = bounded_purity_state(rng)
        assert np.trace(s.rho @ s.rho).real <= 0.99 + 1e-12

    for _ in range(50):
        u = random_unitary(rng)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    for _ in range(200):
        params = random_bell_params(rng)
        assert bell_eigenvalues(*params.as_tuple()).min() >= 0.0
