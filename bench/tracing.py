"""Spans around the calls into each rsplab layer, and per-layer metrics.

Tracing wraps public functions of the loaded rsplab modules from the
outside; nothing in the package changes.  A wrapped function is
replaced in every rsplab module that holds it, so calls made through
``from .linalg import sym3_eigs`` are seen as well.  Spans are kept in
memory as ``[name, start, end, parent, op, phase]`` and written out when
the run ends.  The layer of a span is its name up to the first dot.
"""

import json
import time

# (span name, module, attribute) of every traced function.
TRACED_FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("measures.rsp_fidelity", "measures", "rsp_fidelity"),
    ("measures.gmqd", "measures", "gmqd"),
    ("measures.measure_pair", "measures", "measure_pair"),
    ("channels.sample_unital_local", "channels", "sample_unital_local"),
    ("channels.apply_local", "channels", "apply_local"),
    ("channels.factorize", "channels", "factorize"),
    ("linalg.psd_check", "linalg", "psd_check"),
    ("linalg.sym3_eigs", "linalg", "sym3_eigs"),
    ("enhancement.enhance_report", "enhancement", "enhance_report"),
    ("enhancement.sweep_best_p", "enhancement", "sweep_best_p"),
    ("enhancement.trace_evolution", "enhancement", "trace_evolution"),
    ("enhancement.write_trace_csv", "enhancement", "write_trace_csv"),
    ("enhancement.profile_line", "enhancement", "profile_line"),
    ("enhancement.scan_tetrahedron", "enhancement", "scan_tetrahedron"),
    ("enhancement.write_scan_csv", "enhancement", "write_scan_csv"),
    ("oracles.protocol_fidelity_oracle", "oracles", "protocol_fidelity_oracle"),
    ("oracles.gmqd_search_oracle", "oracles", "gmqd_search_oracle"),
    ("oracles.unital_monotonicity_suite", "oracles", "unital_monotonicity_suite"),
    ("oracles.ginibre_state", "oracles", "ginibre_state"),
    ("oracles.nonunital_increase_witness", "oracles", "nonunital_increase_witness"),
    ("oracles.discord_raising_check", "oracles", "discord_raising_check"),
)
MODULES = ("cli", "states", "measures", "channels", "linalg", "enhancement", "oracles")

FIELDS = ("name", "start", "end", "parent", "op", "phase")
NAME, START, END, PARENT, OP, PHASE = range(6)


def _scan_extra(result):
    n = result.resolution
    return (len(result.points), n * n * n)


def _trials_extra(result):
    return result.trials


# Values kept with the span, from the traced call's result.
EXTRAS = {
    "enhancement.scan_tetrahedron": _scan_extra,
    "oracles.unital_monotonicity_suite": _trials_extra,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.extras = {}       # span index -> value from EXTRAS
        self.op_kinds = {}     # op id -> kind
        self.op_latency = {}   # op id -> seconds, as the worker timed it
        self.out_bytes = {}    # op id -> bytes a CLI op wrote
        self.op = -1           # replayed ops count up from 0, probe ops down from -1
        self._stack = []
        self.missing = []

    def begin_op(self, op_id, kind):
        self.op = op_id
        self.op_kinds[op_id] = kind

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   "probe" if self.op < 0 else "replay"]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if extra is not None:
                self.extras[idx] = extra(result)
            if after is not None:
                after(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, lab):
        """Wrap the traced functions wherever the rsplab modules hold them."""
        modules = [getattr(lab, m) for m in MODULES]
        for name, mod_name, attr in TRACED_FUNCTIONS:
            fn = getattr(getattr(lab, mod_name), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapped)
        # Argument parsing: the parser cli.main builds, and its parse_args.
        build = lab.cli.build_parser

        def wrap_parse(parser):
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
        lab.cli.build_parser = self.wrap("cli.build_parser", build, after=wrap_parse)
        # Construction of states and channels, by every route.
        cls = lab.states.TwoQubitState
        cls.__init__ = self.wrap("states.TwoQubitState", cls.__init__)
        chan = lab.channels.QubitChannel
        chan.from_kraus = classmethod(self.wrap("channels.from_kraus",
                                                chan.from_kraus.__func__))


class SpanView:
    """Spans of one phase with their durations and self times."""

    def __init__(self, tracer, phase):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self.ops = [op for op in tracer.op_kinds if (op < 0) == (phase == "probe")]
        self.by_name = {}
        for idx, rec in enumerate(spans):
            if rec[PHASE] != phase:
                continue
            dur = rec[END] - rec[START]
            self.by_name.setdefault(rec[NAME], []).append(
                (idx, rec[OP], dur, dur - child[idx]))
        self.extras = tracer.extras
        ops = set(self.ops)
        self.out_bytes = {op: n for op, n in tracer.out_bytes.items() if op in ops}

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def total(self, name, field=2):
        return sum(s[field] for s in self.by_name.get(name, ()))

    def mean(self, name, scale):
        n = self.calls(name)
        return self.total(name) / n * scale if n else None

    def layer_self_per_op(self, layer, scale):
        ops, total = set(), 0.0
        for name, items in self.by_name.items():
            if name.split(".", 1)[0] == layer:
                for _, op, _, self_time in items:
                    ops.add(op)
                    total += self_time
        return total / len(ops) * scale if ops else None


def _parse_us(v):
    n = v.calls("cli.main")
    if not n:
        return None
    return (v.total("cli.build_parser") + v.total("cli.parse_args")) / n * 1e6


def _cli_self_us(v):
    n = v.calls("cli.main")
    return v.total("cli.main", field=3) / n * 1e6 if n else None


def _out_bytes(v):
    n = v.calls("cli.main")
    return sum(v.out_bytes.values()) / n if n else None


def _states_calls(v):
    return v.calls("states.TwoQubitState") / len(v.ops) if v.ops else None


def _member_ratio(v):
    pairs = [v.extras[idx] for idx, *_ in v.by_name.get("enhancement.scan_tetrahedron", ())]
    lattice = sum(p[1] for p in pairs)
    return sum(p[0] for p in pairs) / lattice if lattice else None


def _unital_trial_us(v):
    items = v.by_name.get("oracles.unital_monotonicity_suite", ())
    trials = sum(v.extras[idx] for idx, *_ in items)
    return v.total("oracles.unital_monotonicity_suite") / trials * 1e6 if trials else None


def _mean(name, scale):
    return lambda v: v.mean(name, scale)


US, MS = 1e6, 1e3

# name -> (unit, function of a SpanView returning the value or None).
PER_LAYER = {
    "cli.parse_us": ("us", _parse_us),
    "cli.self_us": ("us", _cli_self_us),
    "cli.out_bytes": ("bytes", _out_bytes),
    "states.construct_us": ("us", _mean("states.TwoQubitState", US)),
    "states.calls": ("count", _states_calls),
    "measures.rsp_fidelity_us": ("us", _mean("measures.rsp_fidelity", US)),
    "measures.gmqd_us": ("us", _mean("measures.gmqd", US)),
    "measures.measure_pair_us": ("us", _mean("measures.measure_pair", US)),
    "channels.construct_us": ("us", _mean("channels.from_kraus", US)),
    "channels.sample_unital_local_us": ("us", _mean("channels.sample_unital_local", US)),
    "channels.apply_local_us": ("us", _mean("channels.apply_local", US)),
    "channels.factorize_us": ("us", _mean("channels.factorize", US)),
    "linalg.psd_check_us": ("us", _mean("linalg.psd_check", US)),
    "linalg.sym3_eigs_us": ("us", _mean("linalg.sym3_eigs", US)),
    "enhancement.enhance_report_us": ("us", _mean("enhancement.enhance_report", US)),
    "enhancement.sweep_best_p_us": ("us", _mean("enhancement.sweep_best_p", US)),
    "enhancement.trace_evolution_ms": ("ms", _mean("enhancement.trace_evolution", MS)),
    "enhancement.write_trace_csv_ms": ("ms", _mean("enhancement.write_trace_csv", MS)),
    "enhancement.profile_line_ms": ("ms", _mean("enhancement.profile_line", MS)),
    "enhancement.scan_tetrahedron_ms": ("ms", _mean("enhancement.scan_tetrahedron", MS)),
    "enhancement.write_scan_csv_ms": ("ms", _mean("enhancement.write_scan_csv", MS)),
    "enhancement.scan_member_ratio": ("ratio", _member_ratio),
    "oracles.protocol_fidelity_oracle_ms": ("ms", _mean("oracles.protocol_fidelity_oracle", MS)),
    "oracles.gmqd_search_oracle_ms": ("ms", _mean("oracles.gmqd_search_oracle", MS)),
    "oracles.unital_trial_us": ("us", _unital_trial_us),
    "oracles.self_us": ("us", lambda v: v.layer_self_per_op("oracles", US)),
    "oracles.ginibre_state_us": ("us", _mean("oracles.ginibre_state", US)),
}


def per_layer_metrics(tracer):
    """Each metric from the replayed ops, else from the probe calls.

    Returns (metrics, names taken from the probe, names with no data).
    """
    replay, probe = SpanView(tracer, "replay"), SpanView(tracer, "probe")
    metrics, from_probe, empty = {}, [], []
    for name, (unit, fn) in PER_LAYER.items():
        value = fn(replay)
        if value is None:
            value = fn(probe)
            from_probe.append(name)
        if value is None:
            value = 0.0
            empty.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, from_probe, empty


def breakdown(tracer, top=4):
    """Per op kind of the replay: op count, mean latency, and the largest
    shares of op time by span (inclusive) and by layer (self time)."""
    view = SpanView(tracer, "replay")
    kinds = {}
    for op in view.ops:
        kinds.setdefault(tracer.op_kinds[op], []).append(op)
    rows = {}
    for kind, ops in sorted(kinds.items()):
        members = set(ops)
        op_time = sum(tracer.op_latency.get(op, 0.0) for op in ops)
        if op_time <= 0.0:
            continue
        inclusive, layers = {}, {}
        for name, items in view.by_name.items():
            spans = [s for s in items if s[1] in members]
            if not spans:
                continue
            inclusive[name] = sum(s[2] for s in spans) / op_time
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + sum(s[3] for s in spans) / op_time
        if "cli.build_parser" in inclusive:
            inclusive["cli.parse (build_parser+parse_args)"] = (
                inclusive.pop("cli.build_parser") + inclusive.pop("cli.parse_args", 0.0))
        layers["outside spans"] = 1.0 - sum(layers.values())
        rows[kind] = {
            "ops": len(ops),
            "mean_ms": op_time / len(ops) * 1e3,
            "inclusive": dict(sorted(inclusive.items(), key=lambda kv: -kv[1])[:top]),
            "layer_self": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        }
    return rows


def dump(tracer, fh):
    """Write the spans as JSON, times in seconds from the first span."""
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    fh.write('{"fields": %s, "op_kinds": %s, "spans": [\n' % (
        json.dumps(FIELDS), json.dumps({str(k): v for k, v in tracer.op_kinds.items()})))
    last = len(tracer.spans) - 1
    for i, rec in enumerate(tracer.spans):
        out = [rec[NAME], round(rec[START] - t0, 9), round(rec[END] - t0, 9),
               rec[PARENT], rec[OP], rec[PHASE]]
        fh.write(json.dumps(out) + (",\n" if i < last else "\n"))
    fh.write("]}\n")
