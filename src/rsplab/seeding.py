"""Every suite's per-trial generators: the states of
``default_rng([seed, i])`` for a range of trials i, a chunk at a time.

Seeding ``default_rng([seed, i])`` afresh costs about 20 us a trial, most
of it in numpy's SeedSequence hashing and PCG64 set-up, one trial at a
time.  ``trial_rngs`` computes the same PCG64 states in one vectorized
uint32 pass of that hashing per chunk of trials, then the 128-bit seeding
step in Python ints, and sets them in turn on one generator.  It checks
the first state of each range against numpy's own ``default_rng``, so a
change of numpy's algorithm raises instead of changing a stream.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy's SeedSequence hash constants and pool size, and the 128-bit LCG
# multiplier of PCG64 (numpy/random/bit_generator.pyx and pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
# Trials whose seed words ``trial_rngs`` computes in one pass.
_CHUNK = 1024


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 hash constants init * mult^j mod 2^32 that n hashmix
    calls step through, as a read-only uint32 column (n + 1, 1)."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.setflags(write=False)
    return consts


_SHIFT = np.uint32(16)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 rows (m, n), or of one row (n,)
    m times, as m calls in turn that step through consts (m + 1, 1)."""
    out = words ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _SHIFT
    return out


def seed_words(seed: int, start: int, stop: int) -> list:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` as lists of
    four ints, for each trial i in [start, stop), in one vectorized uint32
    pass over the trials (numpy's algorithm, checked on numpy 2.4.6).

    The entropy is [seed, i] as little-endian uint32 words, i one word.
    Its first four words, zeros past its end, are hashed into a pool of
    four words; every pool word is then mixed into every other, and each
    further entropy word into every pool word; the pool, cycled twice, is
    hashed into the eight output words.

    Raises:
        ValueError: if ``seed`` is negative or [start, stop) is not a
            range of indices below 2^32.
    """
    if seed < 0 or not 0 <= start <= stop <= 2**32:
        raise ValueError(f"need seed >= 0 and 0 <= start <= stop <= 2^32, "
                         f"got {seed}, [{start}, {stop})")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    n_words = len(words) + 1
    entropy = np.zeros((max(n_words, _POOL), stop - start), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, stop)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(n_words - _POOL, 0))
    mult_l, mult_r = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)
    pool = _hashmix(entropy[:_POOL], consts[:_POOL + 1])
    k = _POOL
    # mix(x, y) = (L x - R y) ^ >> 16 of pool word x and hashed word y: first
    # each pool word into each other in turn (pool[src] is a view, so it is
    # read as mixed so far, and it does not change while it is mixed in),
    # then each further entropy word into every pool word
    steps = [(slice(1, None), pool[0]), ([0, 2, 3], pool[1]), ([0, 1, 3], pool[2]),
             (slice(None, 3), pool[3])]
    steps += [(slice(None), entropy[src]) for src in range(_POOL, n_words)]
    for dst, src_words in steps:
        x = pool[dst]
        h = _hashmix(src_words, consts[k:k + len(x) + 1])
        k += len(x)
        x *= mult_l
        h *= mult_r
        x -= h
        x ^= x >> _SHIFT
        pool[dst] = x
    out = _hashmix(np.concatenate([pool, pool]), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))
    return out.T.astype("<u4", order="C").view("<u8").tolist()


def trial_rngs(seed, start: int, stop: int):
    """Yield one generator once for each trial i in [start, stop), in the
    state of ``default_rng([seed, i])`` each time.

    The generator is ``default_rng([seed, start])`` itself: numpy's
    seeding of it validates ``seed``, and its fresh state checks the
    computed state of trial ``start``.  ``seed_words`` gives each trial's
    (state, increment) seed as PCG64 takes it, ``_CHUNK`` trials at a
    time, and the 128-bit LCG seeding step runs in Python ints.

    Raises:
        ValueError, TypeError: as numpy raises them for a bad seed.
        RuntimeError: if the first state differs from numpy's.
    """
    rng = np.random.default_rng([seed, start])
    bitgen = rng.bit_generator
    state = bitgen.state
    words = (w for lo in range(start, stop, _CHUNK)
             for w in seed_words(int(seed), lo, min(lo + _CHUNK, stop)))
    for j, (s_hi, s_lo, i_hi, i_lo) in enumerate(words):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        pcg = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, "inc": inc}
        if j:
            state["state"] = pcg
            bitgen.state = state
        elif pcg != state["state"]:
            raise RuntimeError(f"seeding differs from default_rng([seed, {start}]) "
                               f"of numpy {np.__version__}")
        yield rng
