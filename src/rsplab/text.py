"""Every number the CLI prints, as text.

JSON output rounds each float to 12 significant digits and writes what
``json.dumps(indent=2)`` writes for the rounded payload.  CSV output
prints each number exactly as ``'%.12g' % x``, a chunk of rows at a time;
its digit table is built on the first CSV write.  A leaf module: it
imports nothing from the package.
"""

import dataclasses
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Rows per chunk of the CSV writer.  A chunk's transient arrays take about
# 240 B a number, under 0.5 MiB for 2^9 rows of 4; chunks of 2^11 rows and
# more were no faster, and each evolve write then paged in fresh heap.
_CSV_CHUNK = 2**9


def _fields(obj) -> dict:
    """The fields of a dataclass instance by name, in order, as they are."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _json_text(x, nl: str) -> str:
    """JSON text of ``x`` with every float rounded to 12 significant digits,
    as ``json.dumps`` writes it with an indent of two spaces; ``nl`` is the
    newline and indent of x's line.

    Takes dicts with string keys, lists, tuples, numpy arrays and scalars,
    dataclass instances (read field by field), strings, bools, ints, floats
    and None.

    Raises:
        TypeError: for any other type, as ``json.dumps`` does.
    """
    if isinstance(x, (float, np.floating)):
        s = f"{float(x):.12g}"
        return _NONFINITE.get(s) or repr(float(s))
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        # a key that is not a string fails in encode_basestring_ascii
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return int.__repr__(int(x))
    if x is None:
        return "null"
    if isinstance(x, np.ndarray):
        return _json_text(x.tolist(), nl)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _json_text(_fields(x), nl)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write_json(payload) -> None:
    """Write payload to stdout as indented JSON, in one write."""
    sys.stdout.write(_json_text(payload, "\n") + "\n")


# ---------------------------------------------------------------------------
# CSV output: every number exactly as '%.12g' % x, a chunk of rows at a time.
#
# A number whose 12-digit rounding has exponent X in [-4, 11] prints in
# fixed notation.  Scaled by the exact power 10^P, P = 11 - X, it rounds to
# a 12-digit integer r, and its text is r // 10^P, then a point and the P
# digits of r % 10^P, with leading and trailing zeros dropped.  The integer
# part is split into up to three 4-digit groups, the fraction into a 3-digit
# group after the point and three 4-digit groups.  Each group is read from a
# table of uint32 words of four ASCII bytes in which the zeros to drop are
# NUL.  A number's words (sign, integer groups, fraction groups, separator)
# make a fixed-width record, and dropping every NUL byte of a chunk's
# records leaves its CSV text.  A chunk's records leave out the sign word
# when no number is negative, and the integer groups no number needs.  The
# rest (NaN, +-inf, exponents outside [-4, 11], and scaled values too near a
# tie to round in floats) print through '%.12g' % x, in place of a marker.

_FULL, _LEAD, _LEAD1, _TRAIL = 0, 10**4, 2 * 10**4, 3 * 10**4  # table offsets
_POINT_FULL, _POINT_TRAIL = 4 * 10**4, 4 * 10**4 + 10**3
(_MINUS, _MARK, _COMMA, _NEWLINE, _TRUE, _FALS, _NEWLINE_AFTER,
 _E_NEWLINE) = range(42000, 42008)
_NUL = _LEAD  # entry 0 of LEAD: four NULs


@functools.cache
def _digit_words() -> np.ndarray:
    """The digit tables, then the sign, marker, separator and flag words.

    Entry g of the four digit tables holds the ASCII digits of g, 0 <= g <
    10^4: all four (FULL), without leading zeros (LEAD, so 0 is all NUL),
    without leading zeros but the last (LEAD1, so 0 reads '0'), and without
    trailing zeros (TRAIL, so 0 is all NUL).  The two point tables hold a
    point and the three digits of g < 1000, all of them or without trailing
    zeros (then 0 is all NUL, point included).  Each word is four bytes
    viewed as a native-order uint32, so its bytes come back in order on any
    machine.
    """
    chars = np.empty((10,) * 4 + (4,), np.uint8)
    for place in range(4):
        chars[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    full = chars.view(np.uint32).ravel()
    point = chars[0].reshape(1000, 4).copy()
    point[:, 0] = ord(".")
    point = point.view(np.uint32).ravel()
    g = np.arange(10**4, dtype=np.int16)
    lead = (g < 1000).view(np.int8) + (g < 100) + (g < 10) + (g == 0)
    trail = (g % 10 == 0).view(np.int8) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    # keep_lead[k] blanks the first k bytes of a word, keep_trail[k] the last k
    keep_lead = np.frombuffer(b"\xff\xff\xff\xff\0\xff\xff\xff\0\0\xff\xff\0\0\0\xff\0\0\0\0",
                              np.uint32)
    keep_trail = np.frombuffer(b"\xff\xff\xff\xff\xff\xff\xff\0\xff\xff\0\0\xff\0\0\0\0\0\0\0",
                               np.uint32)
    words = np.frombuffer(b"-\0\0\0\x01\0\0\0\0\0\0,\0\0\0\ntruefals\n\0\0\0e\n\0\0",
                          np.uint32)
    return np.concatenate([full, full & keep_lead[lead], full & keep_lead[lead - (g == 0)],
                           full & keep_trail[trail], point, point & keep_trail[trail[:1000]],
                           words])


# j = 12 - X', clipped to [0, 17], by e + 1074 for np.frexp's binary exponent
# e: X' = floor((e - 1) log10 2) + 1 is X or X + 1 for every float in
# [2^(e-1), 2^e), since that range spans less than a decade
_SCALE_INDEX = np.clip(11 - np.floor((np.arange(-1074, 1026) - 1) * math.log10(2.0)),
                       0, 17).astype(np.intp)
# By j = P + 1: 10^P, and 10^(15 - P), which scales a P-digit fraction to
# 15 digits; both exact where P is in [0, 15]
_POW10 = 10.0 ** np.arange(-1, 18)
_POW10_FRACTION = 10.0 ** (16 - np.arange(19))
# Whether the printed exponent is in [-4, 11], by j - (r == 1e12), which is
# P + 1 for the printed P (index -1 reads the last entry, False)
_FIXED = (np.arange(19) >= 1) & (np.arange(19) <= 16)
_INT_DIV = np.array([[1e8], [1e4], [1.0]])
_INT_LEAD = np.array([[_LEAD], [_LEAD], [_LEAD1]])
_FRAC_DIV = np.array([[1e12], [1e8], [1e4], [1.0]])
_FRAC_FULL = np.array([[_POINT_FULL], [_FULL], [_FULL], [_FULL]])
_FRAC_TRAIL = np.array([[_POINT_TRAIL], [_TRAIL], [_TRAIL], [_TRAIL]])
# m = a * 10^P is within half an ulp, at most 2^-14 below 2^40, of the
# exact product, so rint(m) is the correctly rounded integer whenever m is
# more than 2^-14 from a tie; twice that margin is kept.
_NEAR_TIE = 0.5 - 2.0**-13


def _fixed_point(x: np.ndarray):
    """``(fast, integer part, fraction)`` of |x| rounded to 12 significant
    digits, the fraction scaled to an integer below 10^15.  Where ``fast``
    is False (|x| is not printed in fixed notation, or its rounding is too
    near a tie), both parts are 0."""
    a = np.fmin(np.abs(x), 1e300)  # NaN and inf read as 1e300: not fixed
    j = _SCALE_INDEX.take(np.frexp(a)[1] + 1074)
    j += a * _POW10.take(j) < 1e11  # X' was X + 1
    scale = _POW10.take(j)
    m = a * scale
    r = np.rint(m)
    # r = 1e12 has the digits of 10^(X + 1), one place fewer
    fast = (np.abs(m - r) < _NEAR_TIE) & _FIXED.take(j - (r == 1e12))
    r = np.where(fast, r, 0.0)
    # r < 2^53, so the floors are exact, and so is the scaled fraction
    # (where P = 16 only r = 1e12 gets here, and 1e12 times the double
    # nearest 0.1 rounds to 1e11)
    ip = np.floor(r / scale)
    return fast, ip, (r - ip * scale) * _POW10_FRACTION.take(j)


def _records(x: np.ndarray, separators: np.ndarray, flags):
    """The records of the n rows of ``x`` (W, n) as a (words, n) uint32
    array, whose transpose reads row by row: each column's record words,
    then the two flag words.  Also the mask of the numbers left to
    '%.12g', whose records hold a marker (None if there are none)."""
    width, n = x.shape
    fast, ip, fp = _fixed_point(x)
    top = ip.max(initial=0.0)
    groups = 1 + (top >= 1e4) + (top >= 1e8)
    qi = np.floor(ip[:, None] / _INT_DIV[3 - groups:])  # (W, groups, n)
    fp = fp[:, None]
    qf = np.floor(fp / _FRAC_DIV)  # (W, 4, n)
    # integer groups under the leading one keep all digits, and so do the
    # fraction groups before the last nonzero one
    kind_i = (qi < 1e4) * _INT_LEAD[3 - groups:]
    kind_f = np.where(qf * _FRAC_DIV == fp, _FRAC_TRAIL, _FRAC_FULL)
    qi[:, 1:] -= 1e4 * qi[:, :-1]
    qf[:, 1:] -= 1e4 * qf[:, :-1]
    neg = np.signbit(x)
    neg &= fast
    sign = int(neg.any())
    record = sign + groups + 5
    index = np.empty((width * record + (0 if flags is None else 2), n), np.intp)
    words = index[:width * record].reshape(width, record, n)
    if sign:
        words[:, 0] = np.where(neg, _MINUS, _NUL)
    np.add(qi, kind_i, out=words[:, sign:sign + groups], casting="unsafe")
    np.add(qf, kind_f, out=words[:, sign + groups:-1], casting="unsafe")
    words[:, -1] = separators
    slow = None if fast.all() else ~fast
    if slow is not None:
        np.copyto(words[:, sign + groups - 1], _MARK, where=slow)
    if flags is not None:
        index[-2:] = np.where(flags, [[_TRUE], [_NEWLINE_AFTER]], [[_FALS], [_E_NEWLINE]])
    return _digit_words().take(index), slow


def _chunk_text(x: np.ndarray, separators: np.ndarray, flags) -> str:
    """CSV lines of the rows of ``x`` (W, n); a function of its own so that
    a chunk's arrays are freed before the next chunk is formatted."""
    words, slow = _records(x, separators, flags)
    text = np.ascontiguousarray(words.T).view(np.uint8).ravel()
    text = text[text != 0].tobytes().decode()
    if slow is None:
        return text
    parts = [None] * (2 * np.count_nonzero(slow) + 1)
    parts[::2] = text.split("\x01")
    parts[1::2] = ["%.12g" % v for v in x.T[slow.T].tolist()]
    return "".join(parts)


def _write_rows(fh, header: str, columns, flags=None) -> None:
    """Write a CSV header line, then one line per row of the float
    ``columns``, each number as '%.12g' % x, with ``true``/``false`` from
    the bool array ``flags`` as a last field when given."""
    fh.write(header + "\n")
    separators = np.full((len(columns), 1), _COMMA)
    if flags is None:
        separators[-1] = _NEWLINE
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        stop = start + _CSV_CHUNK
        fh.write(_chunk_text(np.stack([col[start:stop] for col in columns]), separators,
                             None if flags is None else flags[start:stop]))
