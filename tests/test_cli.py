import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rsplab
from rsplab import channels, cli, enhancement, measures
from rsplab.cli import build_parser, main
from rsplab.enhancement import is_enhancible, p_opt
from rsplab.states import bell_diagonal, state_to_json

from references import parse_scan_csv, parse_trace_csv


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


def test_apply_builds_one_channel_per_spec(monkeypatch):
    loaded = []
    load = cli._load_channel

    def counting_load(arg):
        loaded.append(arg)
        return load(arg)
    monkeypatch.setattr(cli, "_load_channel", counting_load)
    ad, other = "amplitude_damping:0.3", "amplitude_damping:0.4"
    for channel_b, expected in ((ad, [ad]), (other, [ad, other]), (None, [ad])):
        argv = ["apply", "--state", "bell:-1,0,0", "--channel-a", ad]
        if channel_b:
            argv += ["--channel-b", channel_b]
        loaded.clear()
        assert _run(argv)[0] == 0
        assert loaded == expected


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


def _bad_input_argvs(tmp_path):
    """Commands with bad inputs, inline and in files written to tmp_path."""
    argvs = [["enhance", "--c=1,2"],
             ["measure", "--state", "no_such_file.json"],
             ["apply", "--state", "bell:0,0,0", "--channel-a", "identity:0.3"],
             ["measure", "--state", "bell:0.1,0.2"],
             # a grid finer than the subnormal spacing
             ["evolve", "--c=0.5,0,-0.5", "--gamma-t-max", "1e-320", "--steps", "10000"]]
    bad_files = [
        ("--state", {"type": "bell_diagonal", "c": 5}),
        ("--channel-a", {"type": "amplitude_damping", "p": None}),
        ("--channel-a", {"type": "kraus", "ops": [1]}),
        ("--channel-a", {"type": ["kraus"]}),
        # finite entries whose Choi matrix overflows: inf - inf is NaN
        ("--channel-a", {"type": "kraus", "ops": [{"re": [[1e160, 0], [0, 1]]}]}),
        ("--channel-a", {"type": "discord_raising", "p": 0.3}),
        # under the file limit, so the value is parsed and its echo capped
        ("--state", {"type": "bell_diagonal", "c": [0.1] * 100_000}),
        # over the file limit, so it is not parsed
        ("--state", {"type": "bell_diagonal", "c": [0.1] * 300_000}),
        # past Python's limit on int() of a digit string; json.dumps cannot write it
        ("--state", '{"type": "bell_diagonal", "c": [1' + "0" * 5000 + ', 0, 0]}'),
    ]
    for i, (flag, obj) in enumerate(bad_files):
        path = tmp_path / f"bad{i}.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        argv = ["apply", "--state", "bell:0,0,0", "--channel-a", "identity"]
        argv[argv.index(flag) + 1] = str(path)
        argvs.append(argv)
    return argvs


def test_bad_inputs_exit_2(tmp_path, capsys):
    errors = []
    for argv in _bad_input_argvs(tmp_path):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        # one short line, however long the input: the value is echoed in part
        assert captured.err.count("\n") == 1 and len(captured.err) <= 300
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[4] == ("error: gamma_t grid not strictly increasing: gamma_t_max 1e-320 "
                         "is too small for 10000 steps\n")
    assert errors[-4] == "error: channel type 'discord_raising' takes no 'p' field\n"
    assert errors[-3].endswith(" got " + repr([0.1] * 100_000)[:200] + "...\n")
    assert errors[-2] == (f"error: {tmp_path / 'bad7.json'}: input file longer than "
                          f"{cli.MAX_INPUT_CHARS} characters\n")
    assert errors[-1] == (f"error: {tmp_path / 'bad8.json'}: JSON integer literal too long "
                          f"(more than {sys.get_int_max_str_digits()} digits)\n")


def _read_json_peak_bytes(path):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="input file longer than"):
            cli._read_json(str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_input_file_bound_before_parsing(tmp_path):
    # past the limit, a file costs what one just past it costs, whatever
    # its size: it is read no further and never parsed
    path = tmp_path / "long.json"
    path.write_text("[" + "0," * cli.MAX_INPUT_CHARS + "0]")
    near = _read_json_peak_bytes(path)
    path.write_text("[" + "0," * (4 * cli.MAX_INPUT_CHARS) + "0]")
    assert _read_json_peak_bytes(path) < near + 2**16 < 4 * cli.MAX_INPUT_CHARS
    path.write_text(" " * (cli.MAX_INPUT_CHARS - 2) + "[]")
    assert cli._read_json(str(path)) == []


@pytest.mark.parametrize("spec", [{"type": "identity"}, {"type": "discord_raising"},
                                  {"type": "amplitude_damping", "p": 0.3}])
def test_json_builtin_channels_match_inline(tmp_path, spec):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(spec))
    inline = spec["type"] + (f":{spec['p']}" if "p" in spec else "")
    runs = [_run(["apply", "--state", "bell:0.5,0,-0.5", "--channel-a", channel])
            for channel in (str(path), inline)]
    assert runs[0][0] == 0 and runs[0] == runs[1]


@pytest.mark.parametrize("flag,obj,message", [
    ("--state", {"type": "dense", "re": np.diag([math.nan, 0.5, 0.25, 0.25]).tolist(),
                 "im": np.zeros((4, 4)).tolist()}, "density matrix entries must be finite"),
    ("--channel", {"type": "kraus", "ops": [{"re": [[1.0, 0.0], [0.0, math.inf]]}]},
     "Kraus operator entries must be finite"),
    ("--channel-a", {"type": "kraus", "ops": [{"re": [[1.0, 0.0], [0.0, 1.0]],
                                               "im": [[0.0, math.nan], [0.0, 0.0]]}]},
     "Kraus operator entries must be finite"),
    ("--state", {"type": "bell_diagonal", "c": [10 ** 400, 0, 0]},
     "bell_diagonal field 'c' holds an integer too large for a float"),
    ("--channel", {"type": "amplitude_damping", "p": 10 ** 400},
     "channel field 'p' holds an integer too large for a float"),
    ("--state", {"type": "dense", "re": np.full((4, 4), 1e308).tolist(),
                 "im": np.zeros((4, 4)).tolist()}, "trace differs from 1 by inf"),
    ("--channel", {"type": "kraus", "ops": [{"re": [[1e160, 0.0], [0.0, 1.0]]}]},
     "Choi matrix entries must be finite: Kraus operator entries too large"),
    ("--channel", {"type": "kraus", "ops": [{"re": [[1.2e154, 0.0], [1.2e154, 0.0]]}]},
     "not trace preserving: max |sum K^dag K - I| = inf"),
])
def test_nonfinite_json_input_is_named(tmp_path, capsys, flag, obj, message):
    # NaN passes every tolerance test, so it must be named before any
    # eigensolve; an int beyond float range, or a finite entry whose sums
    # overflow, gives one line too (pytest turns a numpy warning into an error)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    argv = {"--state": ["measure", "--state", str(path)],
            "--channel": ["decompose", "--channel", str(path)],
            "--channel-a": ["apply", "--state", "bell:0,0,0", "--channel-a", str(path)]}[flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flag,obj", [
    ("--state", {"type": "bell_diagonal", "c": "DEEP"}),
    ("--channel", {"type": "kraus", "ops": "DEEP"}),
])
def test_deeply_nested_json_input_is_named(tmp_path, capsys, flag, obj):
    # deeper than the parser's recursion limit: exit 2 and one line, no traceback
    depth = sys.getrecursionlimit() + 10
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(obj).replace('"DEEP"', "[" * depth + "0" + "]" * depth))
    argv = {"--state": ["measure", "--state", str(path)],
            "--channel": ["decompose", "--channel", str(path)]}[flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("suite", ["protocol", "gmqd", "monotonicity", "witness", "all"])
def test_verify_rejects_negative_seed(capsys, suite):
    # the flag is named, and no suite runs
    assert main(["verify", "--suite", suite, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be a non-negative integer, got -1\n"


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
    """Exit code, stdout and stderr of one main call; an argparse exit
    gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


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
# the enhancement entry points shared one batched verdict.  "evolve" was
# re-recorded when the event times became exact roots: its data rows are
# unchanged, and each of its 35 event lines now prints the root to 12 digits
# in place of a bisection midpoint.
PINNED_DIGESTS = {
    "enhance": "34ed85d37dcb75627195eaaeffcb57652b8cb5d240039f12affca39b2c4f6a00",
    "evolve": "d31e720078cc6f6b67ad81feca975eeda39af55eaf26f6ce6402556792503125",
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
        rc, out, _ = _run(argv)
        h.update(f"{rc}\n{out}".encode())
    assert h.hexdigest() == PINNED_DIGESTS[name]


# sha256 of "<exit code>\n<stdout>" of the searched verify suites, recorded
# while the oracles' grid sizes were still settable, at their defaults.
PINNED_VERIFY_DIGESTS = {
    "verify --suite protocol --trials 1":
        "fb9ffb8c222e1fb353c1655ee6ee239208c82ddaf2fd132afa17d700ba9dc87d",
    "verify --suite gmqd --trials 3 --seed 5":
        "7ec5131780a0e1e2fee3a85b9137f1345027625111ad87b554f80ba96041e1fd",
}


@pytest.mark.parametrize("command", sorted(PINNED_VERIFY_DIGESTS))
def test_verify_search_output_pinned(command):
    rc, out, _ = _run(command.split())
    digest = hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()
    assert digest == PINNED_VERIFY_DIGESTS[command]


def _channel_commands():
    """Seeded witness, apply, decompose and measure commands, bad inputs too."""
    def state(c):
        return "--state=bell:" + ",".join(repr(x) for x in c)

    rng = np.random.default_rng(9)
    cmds = [["verify", "--suite", "witness"]]
    for c in _tetra_points(11, 30):
        ad = f"amplitude_damping:{rng.uniform()!r}"
        cmds.append(["apply", state(c), "--channel-a", ad, "--channel-b", ad])
    cmds += [["apply", state(c), "--channel-a", "discord_raising"]
             for c in _tetra_points(12, 30)]
    cmds += [["apply", state(c), "--channel-a", f"depolarizing:{rng.uniform()!r}"]
             for c in _tetra_points(13, 30)]
    for c in _tetra_points(14, 10):
        cmds.append(["apply", state(c), "--channel-a", "identity", "--channel-b", "discord_raising"])
        cmds.append(["apply", state(c), "--channel-a", "discord_raising", "--channel-b", "identity"])
    cmds += [["decompose", "--channel", "discord_raising"],
             ["decompose", "--channel", "identity"],
             ["apply", "--state", "bell:0,0,0", "--channel-a", "identity:0.3"],
             ["apply", "--state", "bell:0,0,0", "--channel-a", "discord_raising:1"],
             ["apply", "--state", "bell:0,0,0", "--channel-a", "amplitude_damping:1.5",
              "--channel-b", "amplitude_damping:1.5"],
             ["apply", "--state", "bell:0,0,0", "--channel-a", "identity",
              "--channel-b", "discord_raising:0"]]
    cmds += [["measure", state(c)] for c in _NAMED_C[:-1] + _tetra_points(15, 150)]
    return cmds


# sha256 of "<exit code>\n<stdout>\n<stderr>" over _channel_commands(),
# recorded before the constant channels were built once per process.
CHANNEL_COMMANDS_DIGEST = "d0651b95c5f3cdf893d365f924c120f009da429834c004eef4d21835fe9dc82f"


def test_channel_output_pinned():
    h = hashlib.sha256()
    for argv in _channel_commands():
        rc, out, err = _run(argv)
        h.update(f"{rc}\n{out}\n{err}".encode())
    assert h.hexdigest() == CHANNEL_COMMANDS_DIGEST


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


def test_evolve_reports_close_f_kinks(capsys):
    # |E33| dips below c q for 1.4e-6 in gamma_t around the zero of E33
    assert main(["evolve", "--c=1e-6,0,-0.5", "--gamma-t-max", "3",
                 "--steps", "2001"]) == 0
    events = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("#")]
    assert events == ["# sudden_change gamma_t=0.534799289632 measure=f",
                      "# sudden_change gamma_t=0.534800703846 measure=f"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evolve_rejects_nonfinite_gamma_t_max(capsys, value):
    assert main(["evolve", "--c=0.5,0,-0.5", f"--gamma-t-max={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: gamma_t_max must be positive and finite, "
                            f"got {float(value)}\n")


def _reuse_sequence(out_file):
    """Commands that would leak state from one parse to the next, if any did."""
    evolve = ["evolve", "--c=0.5,0,-0.5", "--gamma-t-max", "3"]
    apply = ["apply", "--state", "bell:0.5,0,-0.5", "--channel-a", "identity"]
    measure = ["measure", "--state", "bell:0.5,0,-0.5"]
    return [
        evolve + ["--steps", "11"], evolve,
        apply + ["--channel-b", "amplitude_damping:0.3"], apply,
        evolve + ["--steps", "11", "--out", str(out_file)], evolve + ["--steps", "11"],
        ["frobnicate"], measure,
        ["measure"], measure,
        ["decompose", "--state", "bell:0,0,0", "--channel", "identity"],
        ["decompose", "--state", "bell:0.5,0,-0.5"],
    ]


def test_parser_reuse_keeps_no_state(tmp_path, monkeypatch):
    # each call on the parser main reuses matches the same argv on a fresh one
    out_file = tmp_path / "trace.csv"
    sequence = _reuse_sequence(out_file)
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_run(argv))
    reused = [_run(argv) for argv in sequence]
    assert reused == fresh

    assert len(parse_trace_csv(reused[1][1]).gamma_t) == 2001
    assert json.loads(reused[2][1])["measures"]["f_rsp"] < 0.125
    assert json.loads(reused[3][1])["measures"]["f_rsp"] == 0.125
    assert reused[4][1] == "" and reused[5][1] == out_file.read_text()
    for i in (6, 8, 10):
        assert reused[i][0] == 2 and reused[i][2].startswith("usage: rsplab")
    assert reused[7][0] == reused[9][0] == reused[11][0] == 0


def test_main_builds_parser_once(monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    argvs = [["measure", "--state", "bell:0.5,0,-0.5"],
             ["decompose", "--channel", "amplitude_damping:0.36"],
             ["apply", "--state", "bell:-1,0,0", "--channel-a", "identity"],
             ["enhance", "--c=-1,0,0"],
             ["evolve", "--c=0.5,0,-0.5", "--gamma-t-max", "3", "--steps", "2"]]
    for argv in argvs * 4:
        assert _run(argv)[0] == 0
    assert len(built) <= 1


def test_direct_dispatch_matches_full_parser(tmp_path, monkeypatch):
    # the top-level parser alone, forced by an empty subcommand lookup, gives
    # the same exit code, stdout and stderr, usage and error text included
    argvs = _bad_input_argvs(tmp_path) + _reuse_sequence(tmp_path / "trace.csv") + [
        [], ["-h"], ["measure", "-h"], ["measure", "--sta", "bell:0,0,0"],
        ["measure", "--state", "bell:0,0,0", "extra"],
        ["measure", "--", "--state", "bell:0,0,0"],
        ["decompose", "--state", "bell:0,0,0", "--channel", "identity"],
        ["frobnicate"],
    ]
    direct = [_run(argv) for argv in argvs]
    good = [argv for argv, (rc, _, _) in zip(argvs, direct) if rc == 0 and "-h" not in argv]
    parsed = [cli._parse(argv) for argv in good]
    assert set(cli._SUBPARSERS) == {"measure", "decompose", "apply", "evolve", "enhance",
                                    "scan", "profile", "verify"}
    monkeypatch.setattr(cli, "_SUBPARSERS", {})
    assert [_run(argv) for argv in argvs] == direct
    assert [cli._parse(argv) for argv in good] == parsed
    assert ["--sta", "bell:0,0,0"] in [argv[1:] for argv in good]
    assert all(args.command == argv[0] for argv, args in zip(good, parsed))


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


def _run_python(*args):
    """Run the interpreter on the package under test, whether or not it is
    installed; stdout and stderr are bytes."""
    src = os.path.dirname(os.path.dirname(rsplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          timeout=120, env=env)


def test_module_entry_point():
    # the real stdout gets the same bytes as in-process main, and the CLI
    # path raises no warning that -W error would turn into a traceback
    for argv in (["measure", "--state", "bell:0.5,0,-0.5"],
                 ["apply", "--state", "bell:0.5,0,-0.5", "--channel-a", "amplitude_damping:0.3",
                  "--channel-b", "amplitude_damping:0.3"],
                 ["verify", "--suite", "witness"]):
        rc, out, err = _run(argv)
        assert rc == 0 and err == ""
        proc = _run_python("-W", "error", "-m", "rsplab", *argv)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout == out.encode()


def _low_dg(gap):
    """A force that puts d_g gap below f_rsp, which the ordering check refuses."""
    def force(monkeypatch):
        spectra = measures.spectra

        def low(c):
            f, _, e_sq, lam_max = spectra(c)
            return f, f - gap, e_sq, lam_max
        monkeypatch.setattr(measures, "spectra", low)
    return force


def _shifted_round_trip(monkeypatch):
    """A rebuilt translation 1e-6 off the channel's own."""
    as_affine = channels.ChannelFactorization.as_affine

    def shifted(fac):
        t, tmat = as_affine(fac)
        return channels.AffineRep(t + 1e-6, tmat)
    monkeypatch.setattr(channels.ChannelFactorization, "as_affine", shifted)


def _nonunital_sample(monkeypatch):
    """Transfer matrices whose translation is 1e-6 off zero."""
    kraus_ptm = channels._kraus_ptm

    def shifted(kraus):
        ptm = kraus_ptm(kraus)
        ptm[..., 1, 0] += 1e-6
        return ptm
    monkeypatch.setattr(channels, "_kraus_ptm", shifted)


def _low_f_opt(monkeypatch):
    """f at p_opt 1e-3 lower than computed, so p_opt is no local maximum."""
    verdict = enhancement._verdict

    def low(*args):
        crit, idx, f_opt = verdict(*args)
        return crit, idx, f_opt - 1e-3
    monkeypatch.setattr(enhancement, "_verdict", low)


@pytest.mark.parametrize("argv, force, message", [
    (["measure", "--state", "bell:0.5,0,-0.5"], _low_dg(1e-6), "ordering violated"),
    # a gap under 1e-9 but over ORDER_TOL fails the one ordering check
    (["measure", "--state", "bell:0.5,0,-0.5"], _low_dg(5e-10), "ordering violated"),
    (["apply", "--state", "bell:0.5,0,-0.5", "--channel-a", "amplitude_damping:0.3"],
     _low_dg(1e-6), "ordering violated"),
    (["decompose", "--channel", "discord_raising"], _shifted_round_trip,
     "factorization round-trip error"),
    (["verify", "--suite", "monotonicity", "--trials", "3"], _nonunital_sample,
     "sampled channel failed unitality"),
    (["verify", "--suite", "witness"], _low_f_opt, "p_opt is not a local maximum"),
], ids=["measure", "measure-5e-10", "apply", "decompose-channel", "verify", "verify-witness"])
def test_internal_check_failure_exits_1(capsys, monkeypatch, argv, force, message):
    # a failed internal check leaves no result: one error line, nothing on
    # stdout, exit 1, whichever command it stops
    force(monkeypatch)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_verify_seeding_guard_exits_1():
    # a seeding constant that no longer matches numpy's stops the suite:
    # one error line, no report and no traceback
    script = ("import sys; from rsplab import cli, seeding; seeding._MULT_A ^= 2; "
              "sys.exit(cli.main(sys.argv[1:]))")
    proc = _run_python("-c", script, "verify", "--suite", "monotonicity", "--trials", "3")
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == ("error: seeding differs from default_rng([seed, 0]) "
                                    f"of numpy {np.__version__}\n")
