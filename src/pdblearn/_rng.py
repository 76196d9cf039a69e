"""numpy's seeding and the three PCG64 draws this package makes, in plain Python.

``SeedSequence`` follows ``numpy.random.SeedSequence`` (O'Neill's seed_seq
hash over a pool of four 32-bit words, with spawn keys), and ``Generator``
follows ``numpy.random.default_rng`` over it: ``PCG64``, a 128-bit LCG with
the XSL-RR output.  One method, ``Generator._next64``, steps the state and
returns that 64-bit output; the 32-bit draws take the two halves of one
output, low half first.  ``random`` is ``Generator.random``, the top 53 bits
of a 64-bit draw, and ``permutation`` is ``Generator.permutation`` of an int:
a Fisher-Yates shuffle from the last index down, each swap partner drawn by
masked rejection from 32-bit draws.  ``choice`` is ``Generator.choice`` of an
int without replacement: Floyd's algorithm, then a shuffle of the picks, each
draw bounded by Lemire's multiply-and-reject over the same 32-bit draws.  All
three return exactly what numpy returns for the same seed, as
``tests/test_rng.py`` checks; they were checked against numpy 2.4.6.  The
learner draws its seeds and tuple orders here and the generators their
instances, so the package runs without numpy.
"""

from __future__ import annotations

import operator

__all__ = ["SeedSequence", "Generator"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# PCG64's output (XSL-RR) xors the state's two 64-bit halves and rotates that
# right by the state's top six bits.  x * _TWICE is x twice side by side, so
# shifting it right by r leaves x rotated by r in the low 64 bits.
_TWICE = (1 << 64) | 1


def _words(n: int) -> list:
    """A non-negative int as 32-bit words, least significant first."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _mix(x: int, y: int) -> int:
    out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return out ^ (out >> 16)


class SeedSequence:
    """``numpy.random.SeedSequence`` for one int of entropy.

    The pool is hashed when ``generate_state`` needs it, so a sequence that
    only spawns hashes nothing.
    """

    def __init__(self, entropy: int, spawn_key: tuple = ()):
        self.entropy = operator.index(entropy)
        if self.entropy < 0:
            raise ValueError(f"seed must be non-negative, got {entropy}")
        self.spawn_key = spawn_key

    def spawn(self, n_children: int) -> list:
        """Children numbered 0 to n_children - 1, as numpy's first ``spawn`` call."""
        return [
            SeedSequence(self.entropy, self.spawn_key + (i,)) for i in range(n_children)
        ]

    def _pool(self) -> list:
        """The entropy and the spawn key hashed into four words, as numpy does."""
        run = _words(self.entropy)
        spawned = [w for k in self.spawn_key for w in _words(k)]
        if spawned:  # numpy pads the entropy to the pool before a spawn key
            run += [0] * (_POOL_SIZE - len(run))
        entropy_words = run + spawned

        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            return value ^ (value >> 16)

        pool = [hashmix(w) for w in (entropy_words + [0] * _POOL_SIZE)[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy_words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        return pool

    def generate_state(self, n_words: int) -> list:
        """``n_words`` 32-bit words, as numpy's ``generate_state`` with uint32."""
        pool = self._pool()
        out = []
        hash_const = _INIT_B
        for i in range(n_words):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            out.append(value ^ (value >> 16))
        return out


class Generator:
    """``numpy.random.default_rng(seed_seq)``, for ``random``, ``permutation`` and ``choice``."""

    def __init__(self, seed_seq: SeedSequence):
        w = seed_seq.generate_state(8)
        # four little-endian 64-bit words: state high, state low, stream high,
        # stream low; then PCG's seeding, which steps once before and after
        # adding the seed
        seed = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        stream = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (stream << 1 | 1) & _MASK128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _MASK128
        # the unread upper half of the last 64-bit draw taken for 32 bits, if any
        self._high32 = None
        # the last permutation's size and its indices from the top down, each
        # with its mask: the learner asks each generator for one size only
        self._spans = (0, ())

    def _next64(self) -> int:
        """Step the state once and return its 64-bit XSL-RR output; every draw does."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        return ((state >> 64 ^ state) & _MASK64) * _TWICE >> (state >> 122) & _MASK64

    def random(self) -> float:
        """A uniform double in [0, 1) from the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def permutation(self, n: int) -> list:
        """``range(n)`` shuffled as numpy's ``permutation(n)``, as a list.

        numpy draws 32 bits per index up to n = 2**32, far beyond any list
        this holds, and 64 bits above that; only the first case is copied.
        """
        out = list(range(n))
        if self._spans[0] != n:
            masks = [(i, (1 << i.bit_length()) - 1) for i in range(n - 1, 0, -1)]
            self._spans = (n, masks)
        high = self._high32
        for i, mask in self._spans[1]:
            while True:  # draw 32 bits, keep those under the mask, until <= i
                if high is None:
                    word = self._next64()
                    high = word >> 32
                    j = word & mask
                else:
                    j = high & mask
                    high = None
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self._high32 = high
        return out

    def choice(self, n: int, k: int) -> list:
        """``k`` distinct ints from ``range(n)`` as numpy's ``choice(n, k, replace=False)``.

        numpy switches to a partial shuffle of ``range(n)`` when n > 10000
        and k > n // 50, and to 64-bit draws when n > 2**32; neither case is
        copied, so both raise ``ValueError``, as does a k outside [0, n].
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} of {n} without replacement")
        if n > 10000 and k > n // 50 or n > 1 << 32:
            raise ValueError(f"choosing {k} of {n} takes a draw this copy lacks")
        # Floyd: draw in [0, j] for the last k values of j (numpy draws
        # nothing for [0, 0]), and take j itself when the draw was taken before
        picks, taken = [], set()
        for j in range(n - k, n):
            v = self._bounded(j) if j else 0
            if v in taken:
                v = j
            taken.add(v)
            picks.append(v)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def _bounded(self, top: int) -> int:
        """An int uniform in [0, top], by Lemire's rejection, as numpy's 32-bit draw."""
        span = top + 1
        threshold = (1 << 32) % span
        m = self._next32() * span
        while m & _MASK32 < threshold:
            m = self._next32() * span
        return m >> 32

    def _next32(self) -> int:
        """The buffered high half of the last 64-bit draw, or the low half of a new one."""
        high = self._high32
        if high is not None:
            self._high32 = None
            return high
        word = self._next64()
        self._high32 = word >> 32
        return word & _MASK32
