import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rsplab
from rsplab.cli import main
from rsplab.enhancement import (is_enhancible, p_opt, parse_scan_csv,
                                parse_trace_csv)
from rsplab.states import bell_diagonal, state_to_json


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_measure_singlet(capsys):
    payload = run_json(capsys, ["measure", "--state", "bell:-1,-1,-1"])
    assert payload["f_rsp"] == 1.0
    assert payload["d_g"] == 1.0
    assert payload["e_sq"] == [1.0, 1.0, 1.0]


def test_measure_demo_state(capsys):
    payload = run_json(capsys, ["measure", "--state", "bell:0.5,0,-0.5"])
    assert payload["f_rsp"] == 0.125
    assert payload["d_g"] == 0.125
    assert payload["lambda_max"] == 0.25


def test_measure_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(bell_diagonal(0.5, 0.0, -0.5))))
    payload = run_json(capsys, ["measure", "--state", str(path)])
    assert payload["f_rsp"] == 0.125


def test_measure_rejects_outside_tetrahedron(capsys):
    rc = main(["measure", "--state", "bell:1,1,1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_decompose_state(capsys):
    payload = run_json(capsys, ["decompose", "--state", "bell:0.5,0,-0.5"])
    assert payload["a"] == [0.0, 0.0, 0.0]
    assert payload["e"][0][0] == 0.5
    assert payload["e"][2][2] == -0.5


def test_decompose_channel(capsys):
    payload = run_json(capsys,
                       ["decompose", "--channel", "amplitude_damping:0.36"])
    assert payload["diag"] == [0.8, 0.8, 0.64]
    assert payload["sign"] == 1.0
    assert payload["d"] == [0.0, 0.0, 0.36]
    assert payload["r1"] == np.eye(3).tolist()


def test_decompose_needs_exactly_one_input(capsys):
    with pytest.raises(SystemExit):
        main(["decompose", "--state", "bell:0,0,0",
              "--channel", "identity"])


def test_apply_default_identity_on_b(capsys):
    payload = run_json(capsys, ["apply", "--state", "bell:-1,0,0",
                                "--channel-a", "identity"])
    assert payload["measures"]["f_rsp"] == 0.0
    re = np.array(payload["state"]["re"])
    assert re.shape == (4, 4)
    assert abs(np.trace(re) - 1.0) < 1e-12


def test_apply_symmetric_damping_hits_optimum(capsys):
    p = (1.0 + math.sqrt(5.0)) / (3.0 + math.sqrt(5.0))
    ch = f"amplitude_damping:{p!r}"
    payload = run_json(capsys, ["apply", "--state", "bell:-1,0,0",
                                "--channel-a", ch, "--channel-b", ch])
    assert payload["measures"]["f_rsp"] == pytest.approx(0.072949, abs=1e-6)


def test_evolve_round_trip(capsys):
    rc = main(["evolve", "--c=0.5,0,-0.5", "--gamma-t-max", "3.0",
               "--steps", "301"])
    out = capsys.readouterr().out
    assert rc == 0
    trace = parse_trace_csv(out)
    assert len(trace.gamma_t) == 301
    assert "# zero_touch" in out
    assert "# sudden_change" in out
    assert trace.zero_touches[0] == pytest.approx(
        -math.log(2.0 - math.sqrt(2.0)), abs=1e-6)


def test_evolve_to_file(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["evolve", "--c=0.5,0,-0.5", "--gamma-t-max", "2.0",
               "--steps", "101", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    trace = parse_trace_csv(out.read_text())
    assert trace.f_rsp[0] == pytest.approx(0.125, abs=1e-10)


def test_enhance_enhancible(capsys):
    payload = run_json(capsys, ["enhance", "--c=-1,0,0"])
    assert payload["enhancible"] is True
    assert payload["p_opt"] == pytest.approx(0.61803398875, abs=1e-11)
    assert payload["f_after"] == pytest.approx(0.0729490168752, abs=1e-11)
    assert payload["sweep"]["p_gap"] < 1e-3


def test_enhance_not_enhancible(capsys):
    payload = run_json(capsys, ["enhance", "--c=0,0,0.5"])
    assert payload["enhancible"] is False
    assert payload["q1"] is None
    assert payload["p_opt"] is None
    assert "sweep" not in payload


def test_scan_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--resolution", "9", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert stdout.startswith("enhancible_fraction ")
    assert "symmetry map=neg_c1 holds=true" in stdout
    assert "symmetry map=neg_c1_c3 holds=false" in stdout
    pts, flags = parse_scan_csv(out.read_text())
    assert pts.shape[1] == 3
    assert flags.dtype == bool


def test_scan_stdout(capsys):
    rc = main(["scan", "--resolution", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("c1,c2,c3,enhancible\n")
    assert "# enhancible_fraction" in out


def test_profile_to_file(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--points", "11", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["profile", "--points", "11"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_profile(capsys):
    rc = main(["profile", "--points", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "c1,f_before,f_after"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    assert float(first[1]) == 1.0


def test_verify_witness(capsys):
    payload = run_json(capsys, ["verify", "--suite", "witness"])
    assert payload["witness"]["abs_err"] <= 1e-9
    assert payload["discord_raising"]["reference"] == 0.25


def test_verify_gmqd_small(capsys):
    payload = run_json(capsys, ["verify", "--suite", "gmqd",
                                "--trials", "3", "--seed", "5"])
    assert payload["gmqd"]["trials"] == 3
    assert payload["gmqd"]["seed"] == 5


def test_bad_inputs_exit_2(tmp_path, capsys):
    assert main(["enhance", "--c=1,2"]) == 2
    capsys.readouterr()
    assert main(["measure", "--state", "no_such_file.json"]) == 2
    capsys.readouterr()
    assert main(["apply", "--state", "bell:0,0,0",
                 "--channel-a", "identity:0.3"]) == 2
    capsys.readouterr()
    assert main(["measure", "--state", "bell:0.1,0.2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    bad_files = [
        ("--state", {"type": "bell_diagonal", "c": 5}),
        ("--channel-a", {"type": "amplitude_damping", "p": None}),
        ("--channel-a", {"type": "kraus", "ops": [1]}),
        ("--channel-a", {"type": ["kraus"]}),
    ]
    for i, (flag, obj) in enumerate(bad_files):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(obj))
        argv = ["apply", "--state", "bell:0,0,0", "--channel-a", "identity"]
        argv[argv.index(flag) + 1] = str(path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "witness", "--trials", "0"],
    ["verify", "--suite", "protocol", "--trials", "-1"],
])
def test_verify_rejects_nonpositive_trials(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["scan", "--resolution", "1000000000"],
    ["evolve", "--c=0.5,0,-0.5", "--gamma-t-max", "3", "--steps", "1000000000"],
    ["profile", "--points", "1000000000"],
    ["verify", "--suite", "protocol", "--trials", "1000000000"],
    ["verify", "--suite", "gmqd", "--trials", "1000000000"],
    ["verify", "--suite", "monotonicity", "--trials", "1000000000"],
])
def test_sizes_are_bounded(capsys, argv):
    # rejected before anything is allocated, so this returns at once
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


# Estimates printed by `verify --suite monotonicity`, recorded before the
# suite evaluated its trials as stacked arrays: (seed, trials) -> estimate.
PINNED_MONOTONICITY = {
    (0, 10000): "-0.000126051617442",
    (0, 20): "-0.0158697878056",
    (1, 20): "-0.00271722621633",
    (2, 20): "-0.0179079867548",
    (3, 20): "-0.00924182084721",
    (4, 20): "-0.00277179864409",
    (5, 20): "-0.00292941691477",
    (6, 20): "-0.00498899066597",
    (7, 20): "-0.017375494232",
    (8, 20): "-0.0072091153542",
    (9, 20): "-0.00712552170711",
}


@pytest.mark.parametrize("seed,trials", sorted(PINNED_MONOTONICITY))
def test_verify_monotonicity_output_pinned(capsys, seed, trials):
    argv = ["verify", "--suite", "monotonicity", "--seed", str(seed)]
    if trials != 10000:  # the default
        argv += ["--trials", str(trials)]
    assert main(argv) == 0
    estimate = PINNED_MONOTONICITY[(seed, trials)]
    expected = "\n".join([
        "{",
        '  "monotonicity": {',
        f'    "estimate": {estimate},',
        '    "reference": 0.0,',
        f'    "abs_err": {estimate.lstrip("-")},',
        f'    "trials": {trials},',
        f'    "seed": {seed},',
        '    "config": {',
        f'      "n_trials": {trials}',
        "    }",
        "  }",
        "}",
        "",
    ])
    assert capsys.readouterr().out == expected


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def _tetra_points(seed, n):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        c1, c2, c3 = (float(x) for x in rng.uniform(-1.0, 1.0, size=3))
        if min(1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3,
               1 + c1 + c2 - c3) >= 0.0:
            pts.append((c1, c2, c3))
    return pts


def _c_arg(c):
    return "--c=" + ",".join(repr(x) for x in c)


_NAMED_C = [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0),
            (-1.0, -1.0, -1.0), (0.0, 0.0, 0.5), (0.65, 0.0, 0.3),
            (0.65, 0.0, -0.3), (0.5, 0.0, -0.5), (1.0, 1.0, 1.0)]

# Command sets whose stdout (with exit codes) is pinned below.
PINNED_COMMANDS = {
    "enhance": lambda: [["enhance", _c_arg(c)]
                        for c in _NAMED_C + _tetra_points(2024, 500)],
    "evolve": lambda: [["evolve", _c_arg(c), "--gamma-t-max", "3",
                        "--steps", "2001"]
                       for c in [(0.5, 0.0, -0.5)] + _tetra_points(7, 19)],
    "profile 2": lambda: [["profile", "--points", "2"]],
    "profile 201": lambda: [["profile", "--points", "201"]],
    "profile 20001": lambda: [["profile", "--points", "20001"]],
    "scan 41": lambda: [["scan", "--resolution", "41"]],
    "scan 81": lambda: [["scan", "--resolution", "81"]],
}

# sha256 of "<exit code>\n<stdout>" over each command set, recorded before
# the enhancement entry points shared one batched verdict.
PINNED_DIGESTS = {
    "enhance": "34ed85d37dcb75627195eaaeffcb57652b8cb5d240039f12affca39b2c4f6a00",
    "evolve": "0289a67702998e47aa26bdec107d139990b749cf630ad3a1da140551c1b8939a",
    "profile 2": "4441401570df670cb2fa43137465a8b732b7c86b0e100d8f913cf4330028fe62",
    "profile 201": "b10692137462893cf0f569f15e406c66bf4d637d93575e1e609b2f08a0ad8586",
    "profile 20001": "007cccca7261fb5933a94bb9b60d6acc096774bd316bf47c0f4b5f9e6af4f88b",
    "scan 41": "f8e2e390f39a07ddef48343d36e5ada2c1c40291472fc6d1933545d38e9d11d7",
    "scan 81": "5896bf0711422f52549a2087b693666cf17f3ca79a3fddafeb2c9cc63c55bb9b",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_enhancement_output_pinned(name):
    h = hashlib.sha256()
    for argv in PINNED_COMMANDS[name]():
        rc, out = _run(argv)
        h.update(f"{rc}\n{out}".encode())
    assert h.hexdigest() == PINNED_DIGESTS[name]


@pytest.mark.parametrize("c", [(1e-6, 0.0, 0.0),
                               (-0.3, 0.0, 0.19999999999999996)])
def test_enhance_rounding_level_gain_is_not_enhancible(capsys, c):
    # the criterion holds by rounding only; damping at p_opt gains < 1e-18
    payload = run_json(capsys, ["enhance", _c_arg(c)])
    assert payload["enhancible"] is False
    assert payload["f_after"] == payload["f_before"]
    assert payload["p_opt"] is not None
    assert not is_enhancible(c)
    with pytest.raises(ValueError):
        p_opt(c)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_byte_identical_repeat(capsys):
    main(["enhance", "--c=-1,0,0"])
    first = capsys.readouterr().out
    main(["enhance", "--c=-1,0,0"])
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point():
    # run the package under test, whether or not it is installed
    src = os.path.dirname(os.path.dirname(rsplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rsplab", "measure", "--state",
         "bell:0.5,0,-0.5"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f_rsp"] == 0.125
