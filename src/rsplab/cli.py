"""Command-line front end.

Subcommands: measure, decompose, apply, evolve, enhance, scan, profile,
verify.  States are given inline as bell:c1,c2,c3 or as JSON files;
channels as builtin names (amplitude_damping:0.3, depolarizing:0.5,
discord_raising, identity) or JSON files.  Triples with a leading minus
need the equals form, e.g. --c=-1,0,0.  Numbers print with 12
significant digits so identical invocations give byte-identical output.

Exit codes: 0 success, 1 verification failure or a verification that
could not be completed, 2 input error.
"""

import argparse
import contextlib
import dataclasses
import json
import sys

import numpy as np

from . import channels, enhancement, measures, oracles, states


def _round12(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.12g}")
    if isinstance(x, np.ndarray):
        return _round12(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    return x


def _print_json(payload) -> None:
    print(json.dumps(_round12(payload), indent=2))


def _parse_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected c1,c2,c3 but got {text!r}")
    return tuple(float(p) for p in parts)


def _load_state(arg: str) -> states.TwoQubitState:
    if arg.startswith("bell:"):
        return states.bell_diagonal(_parse_triple(arg[len("bell:"):]))
    with open(arg) as fh:
        return states.state_from_json(json.load(fh))


def _load_channel(arg: str) -> channels.QubitChannel:
    name, _, prob = arg.partition(":")
    if name in ("identity", "discord_raising"):
        if prob:
            raise ValueError(f"{name} takes no parameter")
        return channels.identity_channel() if name == "identity" else channels.discord_raising()
    if name in channels._FACTORIES:
        if not prob:
            raise ValueError(f"channel {name} needs a parameter, e.g. {name}:0.3")
        return channels._FACTORIES[name](float(prob))
    with open(arg) as fh:
        return channels.channel_from_json(json.load(fh))


@contextlib.contextmanager
def _output(path):
    """The file at ``path``, opened for writing and closed after, or stdout."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_measure(args) -> int:
    s = _load_state(args.state)
    _print_json(dataclasses.asdict(measures.measure_pair(s)))
    return 0


def _cmd_decompose(args) -> int:
    if args.state:
        s = _load_state(args.state)
        _print_json({"a": s.a, "b": s.b, "e": s.e})
    else:
        fac = channels.factorize(_load_channel(args.channel))
        _print_json({"r1": fac.r1, "r2": fac.r2, "diag": fac.diag,
                     "sign": fac.sign, "d": fac.d})
    return 0


def _cmd_apply(args) -> int:
    s = _load_state(args.state)
    ch_a = _load_channel(args.channel_a)
    if not args.channel_b:
        ch_b = channels.identity_channel()
    elif args.channel_b == args.channel_a:  # e.g. symmetric AD(p) x AD(p)
        ch_b = ch_a
    else:
        ch_b = _load_channel(args.channel_b)
    out = channels.apply_local(ch_a, ch_b, s)
    _print_json({"state": states.state_to_json(out),
                 "measures": dataclasses.asdict(measures.measure_pair(out))})
    return 0


def _cmd_evolve(args) -> int:
    c = _parse_triple(args.c)
    trace = enhancement.trace_evolution(c, args.gamma_t_max, steps=args.steps)
    with _output(args.out) as fh:
        enhancement.write_trace_csv(trace, fh)
    return 0


def _cmd_enhance(args) -> int:
    c = _parse_triple(args.c)
    rep = enhancement.enhance_report(c)
    payload = dataclasses.asdict(rep)
    if rep.enhancible:
        p_best, f_best = enhancement.sweep_best_p(c)
        payload["sweep"] = {"p_best": p_best, "f_best": f_best,
                            "p_gap": abs(p_best - rep.p_opt),
                            "f_gap": f_best - rep.f_after}
    _print_json(payload)
    return 0


def _cmd_scan(args) -> int:
    result = enhancement.scan_tetrahedron(resolution=args.resolution)
    with _output(args.out) as fh:
        enhancement.write_scan_csv(result, fh)
    if args.out:
        for line in enhancement.scan_summary_lines(result):
            print(line)
    return 0


def _cmd_profile(args) -> int:
    rows = enhancement.profile_line(args.points)
    with _output(args.out) as fh:
        enhancement.write_profile_csv(rows, fh)
    return 0


def _verify_reports(suite: str, seed: int, trials):
    if trials is not None and trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")

    def n(default):
        return default if trials is None else trials

    reports = []
    if suite in ("protocol", "all"):
        reports.append(("protocol", oracles.protocol_suite(n(50), seed=seed)))
    if suite in ("gmqd", "all"):
        reports.append(("gmqd", oracles.gmqd_suite(n(20), seed=seed)))
    if suite in ("monotonicity", "all"):
        reports.append(("monotonicity",
                        oracles.unital_monotonicity_suite(n(10000), seed=seed)))
    if suite in ("witness", "all"):
        reports.append(("witness", oracles.nonunital_increase_witness()))
        reports.append(("discord_raising", oracles.discord_raising_check()))
    return reports


def _cmd_verify(args) -> int:
    try:
        reports = _verify_reports(args.suite, args.seed, args.trials)
    except RuntimeError as exc:
        # an internal check failed, so no verdict exists; the input was valid
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_json({label: rep.as_dict() for label, rep in reports})
    failed = [(label, rep) for label, rep in reports if not rep.passed]
    for label, rep in failed:
        print(f"verification failed: {label}: {rep.worst_case}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsplab",
        description="Remote-state-preparation fidelity and geometric "
                    "discord toolkit for two-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="f_rsp and d_g of a state")
    p.add_argument("--state", required=True,
                   help="bell:c1,c2,c3 or a state JSON file")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("decompose",
                       help="Pauli decomposition of a state, or rotation-"
                            "diagonal factorization of a channel")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--state", help="bell:c1,c2,c3 or a state JSON file")
    g.add_argument("--channel", help="builtin name or channel JSON file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("apply", help="apply local channels to a state")
    p.add_argument("--state", required=True)
    p.add_argument("--channel-a", required=True,
                   help="channel on the first qubit")
    p.add_argument("--channel-b", default=None,
                   help="channel on the second qubit (default identity)")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("evolve",
                       help="CSV trace of both measures under symmetric "
                            "amplitude damping")
    p.add_argument("--c", required=True, help="c1,c2,c3")
    p.add_argument("--gamma-t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=2001)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("enhance", help="enhancibility report for a "
                                       "Bell-diagonal state")
    p.add_argument("--c", required=True, help="c1,c2,c3")
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("scan", help="enhancibility scan of the Bell "
                                    "tetrahedron")
    p.add_argument("--resolution", type=int, default=81)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("profile", help="f before/after optimal damping "
                                       "along the (c1,-1,c1) edge")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("verify", help="run oracle suites")
    p.add_argument("--suite", required=True,
                   choices=["protocol", "gmqd", "monotonicity", "witness",
                            "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


_PARSER = None  # built by the first main call; parse_args leaves it unchanged


def main(argv=None) -> int:
    """Run one command; the parser is built once per process and reused."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
