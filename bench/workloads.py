"""The closed-loop workloads: seeded inputs, operations and checks.

Inputs come from ``random.Random(seed)`` and the plain-Python helpers in
``reference``; the program only ever sees the generated arguments,
files and arrays.  Every operation is checked against an independent
reference.  A check raises ``Mismatch``; any exception raised by an
operation or its check counts as a failed operation.

"""

import contextlib
import io
import json
import math
import os

import reference as ref

# Ginibre states written as JSON files at set-up (cli_small).
STATE_FILES = 8
# Trials per monotonicity-suite invocation (unital_suite).  Few enough that
# one invocation (about 25 ms) fits in the quiet spells of a shared host,
# which is what lets the best time of a slot stay steady.
UNITAL_TRIALS = 20
# Resolution of the scan that traced runs make as a probe: the default.
PROBE_SCAN_RESOLUTION = 81
EVOLVE_GAMMA_T_MAX = 3.0
TOL = 1e-9


class Mismatch(Exception):
    """An output disagreed with its reference."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


class Op:
    """One operation: ``run(lab)`` calls the program, ``check(result)``
    compares its output with the reference computed when the op was made."""

    __slots__ = ("kind", "slot", "items", "run", "check")

    def __init__(self, kind, slot, items, run, check):
        self.kind = kind
        self.slot = slot
        self.items = items
        self.run = run
        self.check = check


class CliResult:
    __slots__ = ("rc", "out", "err", "out_path")

    def __init__(self, rc, out, err, out_path=None):
        self.rc = rc
        self.out = out
        self.err = err
        self.out_path = out_path

    @property
    def out_bytes(self):
        n = len(self.out.encode())
        if self.out_path and os.path.exists(self.out_path):
            n += os.path.getsize(self.out_path)
        return n


def run_cli(cli, argv, out_path=None):
    """One in-process invocation with stdout and stderr kept in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc, out.getvalue(), err.getvalue(), out_path)


def cli_op(kind, slot, argv, check, items=1, out_path=None):
    return Op(kind, slot, items, lambda lab: run_cli(lab.cli, argv, out_path), check)


def _payload(res):
    expect(res.rc == 0, f"exit code {res.rc}: {res.err.strip()[:200]}")
    return json.loads(res.out)


def _triple(c):
    return ",".join(repr(float(x)) for x in c)


# ---------------------------------------------------------------------------
# Checks of single CLI outputs

def check_measure(cmat):
    f_ref, d_ref = ref.measures(cmat)

    def check(res):
        out = _payload(res)
        expect(ref.close(out["f_rsp"], f_ref), f"f_rsp {out['f_rsp']} != {f_ref}")
        expect(ref.close(out["d_g"], d_ref), f"d_g {out['d_g']} != {d_ref}")
    return check


def check_measure_bell(c):
    expected = ref.bell_measure(c)

    def check(res):
        out = _payload(res)
        for key in ("f_rsp", "d_g"):
            expect(ref.close(out[key], expected), f"{key} {out[key]} != {expected}")
    return check


def check_decompose(cmat):
    a, b, e = ref.split(cmat)

    def check(res):
        out = _payload(res)
        expect(ref.all_close(out["a"], a), "Bloch vector a differs")
        expect(ref.all_close(out["b"], b), "Bloch vector b differs")
        expect(ref.all_close(out["e"], e), "correlation matrix differs")
    return check


def check_factorize(name, p):
    t, tmat = ref.channel_affine(name, p)

    def check(res):
        out = _payload(res)
        scaled = [[out["sign"] * out["diag"][j] if i == j else 0.0
                   for j in range(3)] for i in range(3)]
        rebuilt = ref.matmul(ref.matmul(out["r1"], scaled), ref.transpose(out["r2"]))
        shift = [row[0] for row in ref.matmul(out["r1"], [[x] for x in out["d"]])]
        expect(ref.all_close(rebuilt, tmat), "factorization does not rebuild T")
        expect(ref.all_close(shift, t), "factorization does not rebuild t")
        expect(all(x >= -TOL for x in out["diag"]), "negative singular value")
    return check


def check_apply(cmat, affine_a, affine_b):
    after = ref.apply_product(cmat, affine_a, affine_b)
    f_ref, d_ref = ref.measures(after)
    rho = ref.density_matrix(after)

    def check(res):
        out = _payload(res)
        expect(ref.all_close(out["state"]["re"], [[x.real for x in r] for r in rho]),
               "output state (real part) differs")
        expect(ref.all_close(out["state"]["im"], [[x.imag for x in r] for r in rho]),
               "output state (imaginary part) differs")
        expect(ref.close(out["measures"]["f_rsp"], f_ref), "f_rsp after channels differs")
        expect(ref.close(out["measures"]["d_g"], d_ref), "d_g after channels differs")
    return check


def check_enhance(c):
    f0 = ref.bell_measure(c)
    best_grid = f0 + ref.damping_gain(c)

    def check(res):
        out = _payload(res)
        expect(ref.close(out["f_before"], f0), "f_before differs")
        if out["q1"] is not None:
            expect(ref.close(out["p_opt"], 1.0 - out["q1"]), "p_opt != 1 - q1")
        if out["enhancible"]:
            expect(out["f_after"] > f0, "enhancible without a gain")
            expect(ref.close(out["f_after"], ref.f_damped(c, out["p_opt"])),
                   "f_after differs from the damped closed form")
            expect(best_grid <= out["f_after"] + TOL, "grid beats the optimum")
            sweep = out["sweep"]
            expect(-1e-3 <= sweep["f_gap"] <= TOL, f"sweep f_gap {sweep['f_gap']}")
        else:
            expect(ref.close(out["f_after"], f0), "f_after changed without enhancement")
            expect(best_grid <= f0 + TOL, "damping raises f of a non-enhancible state")
    return check


def check_evolve(c, steps=2001, probes=(0, 1, 500, 1000, 1500, 2000)):
    def check(res):
        expect(res.rc == 0, f"exit code {res.rc}")
        lines = res.out.splitlines()
        expect(lines[0] == "gamma_t,p,f_rsp,d_g", "bad trace header")
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        expect(len(rows) == steps, f"{len(rows)} trace rows, expected {steps}")
        for k in probes:
            gt, p, f, dg = (float(x) for x in rows[k].split(","))
            expect(ref.close(gt, EVOLVE_GAMMA_T_MAX * k / (steps - 1)), "gamma_t grid differs")
            p_ref = 1.0 - math.exp(-gt)
            expect(ref.close(p, p_ref), "p differs")
            expect(ref.close(f, ref.f_damped(c, p_ref)), f"f_rsp differs at row {k}")
            expect(ref.close(dg, ref.dg_damped(c, p_ref)), f"d_g differs at row {k}")
    return check


def check_profile(points=201):
    def check(res):
        expect(res.rc == 0, f"exit code {res.rc}")
        lines = res.out.splitlines()
        expect(lines[0] == "c1,f_before,f_after", "bad profile header")
        expect(len(lines) == points + 1, "profile row count differs")
        for k, ln in enumerate(lines[1:]):
            c1, fb, fa = (float(x) for x in ln.split(","))
            expect(ref.close(c1, -1.0 + 2.0 * k / (points - 1)), "profile grid differs")
            # (c1, -1, c1): sum c^2 - max c^2 = 2 c1^2 + 1 - 1
            expect(ref.close(fb, c1 * c1), f"f_before differs at c1={c1}")
            expect(fa >= fb - TOL, "f_after below f_before")
    return check


def check_witness(res):
    out = _payload(res)
    expect(out["witness"]["abs_err"] <= TOL, "witness misses its reference")
    expect(ref.close(out["discord_raising"]["estimate"], 0.25), "discord_raising != 0.25")


def check_unital(trials):
    def check(res):
        out = _payload(res)["monotonicity"]
        expect(out["trials"] == trials, f"{out['trials']} trials, expected {trials}")
        expect(out["estimate"] <= TOL, f"f_rsp rose by {out['estimate']}")
    return check


_member_counts = {}


def scan_members(resolution):
    if resolution not in _member_counts:
        _member_counts[resolution] = ref.scan_member_count(resolution)
    return _member_counts[resolution]


def check_scan(resolution, path):
    members = scan_members(resolution)

    def check(res):
        expect(res.rc == 0, f"exit code {res.rc}")
        with open(path) as fh:
            text = fh.read()
        expect(text.startswith("c1,c2,c3,enhancible\n"), "bad scan header")
        rows = text.count("\n") - text.count("#")
        expect(rows - 1 == members, f"{rows - 1} scan rows, expected {members}")
        for source in (text, res.out):
            verdicts = dict(_symmetry_verdict(ln) for ln in source.splitlines()
                            if "symmetry map=" in ln)
            expect(verdicts == SYMMETRY_HOLDS, f"symmetry audit {verdicts}")
    return check


# Amplitude damping commutes with a pi rotation about z, which flips
# (c1, c2) but not c3; flips of c3 change the damped state, so the audit
# must report them as broken.
SYMMETRY_HOLDS = {"neg_c1": True, "neg_c2": True, "neg_c1_c2": True,
                  "neg_c1_c3": False, "neg_c2_c3": False}


def _symmetry_verdict(line):
    fields = dict(kv.split("=", 1) for kv in line.lstrip("# ").split()[1:])
    return fields["map"], fields["holds"] == "true"


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """A round of ``slots`` op templates, repeated with fresh inputs.

    Each repetition draws new inputs for every slot and runs the slots in
    a new seeded order, so no two executions share their inputs.  The
    benchmark times every execution and keeps each slot's best time over
    its first ``rounds`` executions.
    """

    name = ""
    slots = 1
    rounds = 1

    def prepare(self, rng, tmpdir):
        """Set-up inputs (stdlib only; excluded from setup_s)."""
        return {"tmpdir": tmpdir}

    def make_op(self, ctx, rng, slot):
        raise NotImplementedError

    def warmup(self, ctx, rng):
        return self.make_op(ctx, rng, 0)

    def ops(self, ctx, rng):
        order = list(range(self.slots))
        while True:
            rng.shuffle(order)
            for slot in order:
                yield self.make_op(ctx, rng, slot)


def _bell_arg(c):
    return "bell:" + _triple(c)


def _enhance_point(rng, enhancible):
    """A uniform tetrahedron point whose best damping gain is (or is not)
    positive, away from the borderline."""
    while True:
        c = ref.tetra_point(rng)
        gain = ref.damping_gain(c)
        if (gain > 1e-6) == enhancible and abs(gain) > 1e-9:
            return c


def _measure_bell(ctx, rng, block):
    c = ref.tetra_point(rng)
    return "measure", ["measure", "--state", _bell_arg(c)], check_measure_bell(c)


def _measure_file(ctx, rng, block):
    path, cmat = rng.choice(ctx["files"])
    return "measure", ["measure", "--state", path], check_measure(cmat)


def _decompose_bell(ctx, rng, block):
    c = ref.tetra_point(rng)
    return ("decompose", ["decompose", "--state", _bell_arg(c)],
            check_decompose(ref.bell_correlation(c)))


def _decompose_file(ctx, rng, block):
    path, cmat = rng.choice(ctx["files"])
    return "decompose", ["decompose", "--state", path], check_decompose(cmat)


def _decompose_channel(ctx, rng, block):
    name = rng.choice(("amplitude_damping", "depolarizing"))
    p = rng.uniform(0.0, 1.0)
    return ("decompose_channel", ["decompose", "--channel", f"{name}:{p!r}"],
            check_factorize(name, p))


def _apply_damping(ctx, rng, block):
    c, p = ref.tetra_point(rng), rng.uniform(0.0, 1.0)
    ad = ref.channel_affine("amplitude_damping", p)
    return ("apply", ["apply", "--state", _bell_arg(c),
                      "--channel-a", f"amplitude_damping:{p!r}",
                      "--channel-b", f"amplitude_damping:{p!r}"],
            check_apply(ref.bell_correlation(c), ad, ad))


def _apply_depolarizing(ctx, rng, block):
    path, cmat = rng.choice(ctx["files"])
    p = rng.uniform(0.0, 1.0)
    return ("apply", ["apply", "--state", path, "--channel-a", f"depolarizing:{p!r}"],
            check_apply(cmat, ref.channel_affine("depolarizing", p),
                        ref.channel_affine("identity")))


def _apply_discord_raising(ctx, rng, block):
    c = ref.tetra_point(rng)
    return ("apply", ["apply", "--state", _bell_arg(c), "--channel-a", "discord_raising"],
            check_apply(ref.bell_correlation(c), ref.channel_affine("discord_raising"),
                        ref.channel_affine("identity")))


def _enhance(ctx, rng, block):
    c = _enhance_point(rng, block < ENHANCIBLE_BLOCKS)
    return "enhance", ["enhance", "--c=" + _triple(c)], check_enhance(c)


def _evolve(ctx, rng, block):
    c = ref.tetra_point(rng)
    return ("evolve", ["evolve", "--c=" + _triple(c),
                       "--gamma-t-max", repr(EVOLVE_GAMMA_T_MAX)], check_evolve(c))


def _profile(ctx, rng, block):
    return "profile", ["profile"], check_profile()


def _witness(ctx, rng, block):
    return "verify", ["verify", "--suite", "witness"], check_witness


# One block of the cli_small mix: one slot per command of the workload's
# definition, each with equal weight.
CLI_BLOCK = (_measure_bell, _measure_file, _decompose_bell, _decompose_file,
             _decompose_channel, _apply_damping, _apply_depolarizing,
             _apply_discord_raising, _enhance, _evolve, _profile, _witness)
# Nine blocks give 108 slots, enough for a p90 tail with ten beyond it.
CLI_BLOCKS = 9
# Share of uniform tetrahedron points that damping enhances: 0.2227 of
# 20000 seeded draws (selfcheck.py re-estimates it).  Only enhancible
# points run the sweep, and a slot keeps its best time, so each enhance
# slot keeps one verdict and the slots split in this share.
ENHANCIBLE_SHARE = 0.2227
ENHANCIBLE_BLOCKS = round(CLI_BLOCKS * ENHANCIBLE_SHARE)


class CliSmall(Workload):
    name = "cli_small"
    slots = CLI_BLOCKS * len(CLI_BLOCK)
    rounds = 80

    def prepare(self, rng, tmpdir):
        files = []
        for k in range(STATE_FILES):
            rho = ref.ginibre(rng)
            path = os.path.join(tmpdir, f"state{k}.json")
            with open(path, "w") as fh:
                json.dump(ref.state_json(rho), fh)
            files.append((path, ref.correlation_matrix(rho)))
        return {"tmpdir": tmpdir, "files": files}

    def make_op(self, ctx, rng, slot):
        block, k = divmod(slot, len(CLI_BLOCK))
        kind, argv, check = CLI_BLOCK[k](ctx, rng, block)
        return cli_op(kind, slot, argv, check)


class UnitalSuite(Workload):
    name = "unital_suite"
    slots = 20
    rounds = 70

    def make_op(self, ctx, rng, slot):
        argv = ["verify", "--suite", "monotonicity", "--trials", str(UNITAL_TRIALS),
                "--seed", str(rng.randrange(2 ** 31))]
        return cli_op("verify", slot, argv, check_unital(UNITAL_TRIALS), items=UNITAL_TRIALS)


def oracle_op(rng):
    """The protocol oracle on a bounded-purity Ginibre state and the gmqd
    oracle on a Bell-diagonal state, at the default OracleConfig."""
    rho = ref.bounded_purity_ginibre(rng)
    f_ref = ref.measures(ref.correlation_matrix(rho))[0]
    c = ref.tetra_point(rng)
    d_ref = ref.bell_measure(c)

    def run(lab):
        oracles, states = lab.oracles, lab.states
        rep_f = oracles.protocol_fidelity_oracle(states.TwoQubitState(rho))
        rep_d = oracles.gmqd_search_oracle(states.bell_diagonal(c))
        return rep_f, rep_d

    def check(result):
        rep_f, rep_d = result
        err_f = rep_f.estimate - f_ref
        err_d = rep_d.estimate - d_ref
        expect(abs(err_f) <= 5e-3, f"protocol oracle error {err_f:.3e}")
        expect(-1e-9 <= err_d <= 1e-3, f"gmqd oracle error {err_d:.3e}")
    return Op("oracles", -1, 2, run, check)


WORKLOADS = {w.name: w for w in (CliSmall(), UnitalSuite())}


# Calls that, with one op of each workload, reach every traced function.
# Block 0 makes the enhance probe an enhancible point, which runs the sweep.
PROBE_TEMPLATES = (_measure_bell, _decompose_channel, _apply_damping, _enhance, _evolve,
                   _profile)


def probe_ops(ctx, rng):
    """One checked call into every traced layer, on inputs drawn from ``rng``.

    A traced run takes a per-layer metric from these calls only when the
    workload's own operations never reached that layer.  The scan runs at
    the default resolution; no workload scans or runs the search oracles.
    """
    ops = [cli_op(kind, -1, argv, check)
           for kind, argv, check in (make(ctx, rng, 0) for make in PROBE_TEMPLATES)]
    path = os.path.join(ctx["tmpdir"], "probe_scan.csv")
    ops.append(cli_op("scan", -1,
                      ["scan", "--resolution", str(PROBE_SCAN_RESOLUTION), "--out", path],
                      check_scan(PROBE_SCAN_RESOLUTION, path), out_path=path))
    ops += [WORKLOADS["unital_suite"].make_op(ctx, rng, -1), oracle_op(rng)]
    return ops
