"""The text of printed numbers: the JSON emitter, the '%.12g' CSV row
writer, and its digit table, which only the CSV writers build."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rsplab
from rsplab import text
from rsplab.enhancement import ScanResult, write_scan_csv
from rsplab.states import bell_diagonal
from rsplab.text import _write_rows


# --- the JSON emitter ----------------------------------------------------------

def _round12(x):
    """The payload that json.dumps printed before the CLI had its own
    emitter: floats rounded to 12 significant digits, containers and numpy
    values made plain, dataclasses converted by dataclasses.asdict."""
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
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _round12(dataclasses.asdict(x))
    return x


@dataclasses.dataclass(frozen=True)
class _Report:
    first: object
    second: object


# values at the switches of %.12g (1e12) and of repr (1e16 and 1e-5), and
# where the 12-digit rounding carries into a new decade
_EDGE_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.999999999995e-6,
                9.9999999999949e-6, 1e12, 999999999999.5, 999999999999.4,
                1e16, 9999999999999998.0, 9.9999999999995e15, 1.7976931348623157e308,
                0.1, 0.125, 1.0, 123456789012345.0, 0.30000000000000004]

_floats = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(9e15, 1.1e16), st.floats(9e-6, 1.1e-5), st.floats(9e11, 1.1e12))
_leaves = st.one_of(
    _floats, st.integers(), st.booleans(), st.none(), st.text(),
    st.sampled_from(['"', "\\", "\u00e9\u4e2d", "\n\t\x00", "\ud83d\ude00"]),
    _floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)))
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4),
                            st.builds(_Report, inner, inner)),
    max_leaves=24)


@settings(max_examples=200)
@given(_payloads)
def test_emitter_matches_json_dumps_of_rounded_payload(payload):
    assert text._json_text(payload, "\n") == json.dumps(_round12(payload), indent=2)


def test_emitter_writes_payload_and_newline_at_once(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": writes.append})())
    report = rsplab.measure_pair(bell_diagonal(0.5, 0.0, -0.5))
    text._write_json({"measures": report, "e": np.eye(2), "ok": True})
    assert writes == [json.dumps(_round12({"measures": report, "e": np.eye(2), "ok": True}),
                                 indent=2) + "\n"]


@pytest.mark.parametrize("payload", [1j, np.bool_(True), {1, 2}, object(), np.complex128(1.0),
                                     [0.5, {"x": b"bytes"}], np.array([1j]), {(1, 2): 0.5}])
def test_emitter_rejects_what_json_rejects(payload):
    with pytest.raises(TypeError):
        json.dumps(_round12(payload), indent=2)
    with pytest.raises(TypeError):
        text._json_text(payload, "\n")


# --- the CSV row writer ------------------------------------------------------

def _ulps(x, k):
    """x moved k ulps up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# Floats that '%.12g' prints in every form: signed zeros, subnormals,
# infinities, nan, and magnitudes from 1e-300 to 1e300.  Then the inputs
# that are hard for the writer's scaled rounding: dyadic values n / 2^k
# below 10^(13 - k) (with 13 significant digits and n odd, such a value
# ends in 5: an exact tie at 12 digits), neighbours of 12-digit decimals
# and of the midpoints between them, powers of ten and their neighbours,
# where the exponent estimate can be one off, and integers.
_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, math.inf,
                     -math.inf, math.nan, 1e-300, -1e300, 0.1, 1.0 / 3.0]),
    st.floats(min_value=1e-300, max_value=1e300).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda u, k: u // 5**k / 2.0**k, st.integers(-10**13, 10**13), st.integers(1, 16)),
    st.builds(lambda d, e, mid, k: _ulps(float(f"{d}{'5' if mid else ''}e{e - mid}"), k),
              st.integers(10**11, 10**12 - 1), st.integers(-17, 2), st.booleans(),
              st.integers(-3, 3)),
    st.builds(lambda e, k, sign: sign * _ulps(float(f"1e{e}"), k),
              st.integers(-6, 14), st.integers(-2, 2), st.sampled_from([1.0, -1.0])),
    st.integers(-10**14, 10**14).map(float),
)


@settings(max_examples=150)
@given(n_rows=st.integers(0, 13), width=st.integers(1, 4), chunk=st.integers(1, 5),
       flag_column=st.booleans(), data=st.data())
def test_write_rows_matches_per_row_format(n_rows, width, chunk, flag_column, data):
    rows = st.lists(_CSV_FLOATS, min_size=n_rows, max_size=n_rows)
    columns = [np.array(data.draw(rows), dtype=float) for _ in range(width)]
    row_format = ",".join(["%.12g"] * width)
    flags = None
    reference = columns
    if flag_column:  # the scan's true/false column
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)),
                         dtype=bool)
        reference = columns + [np.where(flags, "true", "false")]
        row_format += ",%s"
    row_format += "\n"
    expected = "h\n" + "".join(row_format % row
                               for row in zip(*(col.tolist() for col in reference)))
    buf = io.StringIO()
    with mock.patch.object(text, "_CSV_CHUNK", chunk):  # rows span chunks
        _write_rows(buf, "h", columns, flags)
    assert buf.getvalue() == expected


def test_write_rows_memory_is_bounded_by_a_chunk():
    # the writer's peak is one chunk's transient arrays, whatever the row
    # count: at about 240 B a number, whole columns at once would take about
    # 2 GiB for a resolution-201 scan
    rng = np.random.default_rng(5)

    class Sink:  # keeps no text, so only the writer's own arrays count
        chars = 0

        def write(self, text):
            self.chars += len(text)

    def peak(n):
        result = ScanResult(resolution=2, points=rng.uniform(-1.0, 1.0, (n, 3)),
                            enhancible=rng.random(n) < 0.25, fraction=0.25, symmetry={})
        sink = Sink()
        tracemalloc.start()
        try:
            write_scan_csv(result, sink)
            return tracemalloc.get_traced_memory()[1], sink.chars
        finally:
            tracemalloc.stop()

    text._digit_words()  # built once per process, before the first reading
    one, _ = peak(text._CSV_CHUNK)
    four, chars = peak(4 * text._CSV_CHUNK)
    assert chars > 4 * text._CSV_CHUNK * 20
    assert four < 1.5 * one
    assert one < 2 * 2**20


# --- the digit table --------------------------------------------------------

_TABLE_SIZES = """
import contextlib, io, sys
from rsplab import cli, text
sizes = []
for argv in (["measure", "--state", "bell:0.5,0,-0.5"],
             ["verify", "--suite", "monotonicity", "--trials", "3"],
             ["evolve", "--c=0.5,0,-0.5", "--gamma-t-max", "1", "--steps", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    sizes.append(text._digit_words.cache_info().currsize)
print(sizes)
"""


def test_digit_table_is_built_by_the_csv_writers_only():
    # a fresh process: measure and verify write JSON only, evolve writes CSV
    src = os.path.dirname(os.path.dirname(rsplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TABLE_SIZES], capture_output=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[0, 0, 1]\n"
