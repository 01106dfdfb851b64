"""Command-line front end.

Subcommands: measure, decompose, apply, evolve, enhance, scan, profile,
verify.  States are given inline as bell:c1,c2,c3 or as JSON files;
channels as builtin names (amplitude_damping:0.3, depolarizing:0.5,
discord_raising, identity) or JSON files.  Triples with a leading minus
need the equals form, e.g. --c=-1,0,0.  Numbers print with 12
significant digits so identical invocations give byte-identical output.

Exit codes: 0 success, 1 verification failure or a failed internal
check (no result exists), 2 input error.
"""

import argparse
import contextlib
import json
import sys

from . import channels, enhancement, measures, oracles, states
from .text import _fields, _write_json

# Longest input file read: 1 MiB of ASCII JSON, room for a Kraus channel of
# thousands of operators; a dense state takes under 1 KiB.
MAX_INPUT_CHARS = 2**20


def _parse_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected c1,c2,c3 but got {text!r}")
    return tuple(float(p) for p in parts)


def _read_json(path: str):
    """The JSON document in the file at ``path``; one longer than
    ``MAX_INPUT_CHARS`` (read no further), nested deeper than the parser's
    recursion limit, or with an integer literal longer than Python
    converts, is an input error that names the file."""
    with open(path) as fh:
        text = fh.read(MAX_INPUT_CHARS + 1)
    if len(text) > MAX_INPUT_CHARS:
        raise ValueError(f"{path}: input file longer than {MAX_INPUT_CHARS} characters")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        # int() of a literal past sys.get_int_max_str_digits(), inside the parser
        if "integer string conversion" not in str(exc):
            raise
        raise ValueError(f"{path}: JSON integer literal too long (more than "
                         f"{sys.get_int_max_str_digits()} digits)") from None


def _load_state(arg: str) -> states.TwoQubitState:
    if arg.startswith("bell:"):
        return states.bell_diagonal(_parse_triple(arg[len("bell:"):]))
    return states.state_from_json(_read_json(arg))


def _load_channel(arg: str) -> channels.QubitChannel:
    name, _, prob = arg.partition(":")
    factory, takes_p = channels.builtin_factory(name)
    if takes_p:
        if not prob:
            raise ValueError(f"channel {name} needs a parameter, e.g. {name}:0.3")
        return factory(float(prob))
    if factory:
        if prob:
            raise ValueError(f"{name} takes no parameter")
        return factory()
    return channels.channel_from_json(_read_json(arg))


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
    _write_json(measures.measure_pair(s))
    return 0


def _cmd_decompose(args) -> int:
    if args.state:
        s = _load_state(args.state)
        _write_json({"a": s.a, "b": s.b, "e": s.e})
    else:
        fac = channels.factorize(_load_channel(args.channel))
        _write_json({"r1": fac.r1, "r2": fac.r2, "diag": fac.diag,
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
    _write_json({"state": states.state_to_json(out),
                 "measures": measures.measure_pair(out)})
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
    payload = rep
    if rep.enhancible:
        p_best, f_best = enhancement.sweep_best_p(c)
        payload = {**_fields(rep),
                   "sweep": {"p_best": p_best, "f_best": f_best,
                             "p_gap": abs(p_best - rep.p_opt),
                             "f_gap": f_best - rep.f_after}}
    _write_json(payload)
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


def _cmd_verify(args) -> int:
    suite, seed, trials = args.suite, args.seed, args.trials
    if trials is not None and trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    # each suite's own default trial count, unless --trials is given
    kw = {"seed": seed} if trials is None else {"seed": seed, "n_trials": trials}
    reports = []
    if suite in ("protocol", "all"):
        reports.append(("protocol", oracles.protocol_suite(**kw)))
    if suite in ("gmqd", "all"):
        reports.append(("gmqd", oracles.gmqd_suite(**kw)))
    if suite in ("monotonicity", "all"):
        reports.append(("monotonicity", oracles.unital_monotonicity_suite(**kw)))
    if suite in ("witness", "all"):
        reports.append(("witness", oracles.nonunital_increase_witness()))
        reports.append(("discord_raising", oracles.discord_raising_check()))
    _write_json({label: rep.as_dict() for label, rep in reports})
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


_PARSER = None  # built by the first main call; parsing leaves it unchanged
_SUBPARSERS = {}  # the parser of each subcommand within _PARSER, by name


def _parse(argv):
    """The namespace of argv.  The top-level parser only hands an argv
    that names a subcommand first to that subcommand's parser, so such an
    argv goes there directly, unless it holds "--" or leaves arguments
    over; any other argv goes through the top-level parser.  Usage, help
    and error text are the same on both routes."""
    sub = _SUBPARSERS.get(argv[0]) if argv and "--" not in argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    """Run one command; the parser is built once per process and reused."""
    global _PARSER, _SUBPARSERS
    if _PARSER is None:
        _PARSER = build_parser()
        # argparse has no public accessor for the subcommand parsers
        _SUBPARSERS = next(action.choices for action in _PARSER._actions
                           if isinstance(action, argparse._SubParsersAction))
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an internal check failed, so no result exists; the input was
        # valid.  Every handler computes before it writes, so stdout is empty
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
