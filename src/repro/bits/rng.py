"""Deterministic, spawnable random-number streams.

Every stochastic component of the simulator (each tag, each reader, each
Monte-Carlo round) draws from its own independent substream derived from a
single experiment seed via :class:`numpy.random.SeedSequence` spawning.
This gives two properties the experiment harness relies on:

* **Reproducibility** -- a run is a pure function of its seed;
* **Insensitivity to ordering** -- adding a component (e.g. one more tag)
  does not perturb the draws of unrelated components.

Draw contract: an :class:`RngStream` on ``seed_seq`` draws exactly what
``Generator(PCG64(seed_seq))`` draws, but it keeps the PCG64 state itself,
as Python ints (the 128-bit state and increment, and the
``has_uint32``/``uinteger`` half-word buffer), and serves two draws
natively, by numpy's own algorithms:

* scalar ``integers(low, high=None, endpoint=False)`` over the int64
  range: buffered 32-bit Lemire rejection below 2^32, 64-bit Lemire
  above, and numpy's own ``ValueError`` on invalid bounds;
* scalar ``random()``, ``(next64 >> 11) * 2**-53``.

Native draws return a Python ``int`` or ``float`` (numpy's scalar
``integers`` returns ``np.int64``).  Any other use hands the stream off
to numpy: a sized draw, another dtype, non-integer bounds, ``choice``,
``shuffle``, ``exponential``, ``binomial``, ``uniform`` or reading
``generator``.  The hand-off builds ``Generator(PCG64(seed_seq))`` and
loads the live state into it.  It is one-way: from then on every draw,
native ones included, goes through that generator, so there is only ever
one state.  Unlike numpy's ``Generator``, which locks around each draw,
a stream must not be drawn from on two threads at once (the gateway
gives each inventory its own population).

Bulk seeding contract: spawn through :class:`RngStream`; its counter is the
source of truth.  ``RngStream.spawn(n)`` returns streams bit-identical to
``Generator(PCG64(c))`` for ``c`` in ``SeedSequence.spawn(n)``, but it
computes every child's PCG64 seed words in one vectorized pass of numpy's
``SeedSequence`` mixing (O'Neill's ``seed_seq``) instead of building ``n``
``SeedSequence`` objects; a child builds its own ``SeedSequence`` only
when it spawns or hands off.  The stream counts its own children,
starting at the wrapped sequence's ``n_children_spawned``; the wrapped
sequence's counter does not advance (numpy makes it read-only), so
spawning from ``generator.bit_generator.seed_seq`` directly is not
coordinated with ``RngStream.spawn``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream", "make_rng"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """One ``hashmix`` step; returns the hashed value and the next constant."""
    value ^= const
    const = const * _MULT_A & _MASK
    value = value * const & _MASK
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
    return r ^ r >> 16


def _hash_constants(init: int, mult: int, n: int) -> tuple[list[int], list[int]]:
    """The (xor, multiply) constant pairs of ``n`` successive hash steps."""
    xor, mul = [], []
    for _ in range(n):
        xor.append(init)
        init = init * mult & _MASK
        mul.append(init)
    return xor, mul


# generate_state(4, uint64) reads 8 uint32 words, each hashed with its own
# (xor, multiply) pair from the INIT_B/MULT_B sequence.
_STATE_XOR, _STATE_MUL = (
    np.array(c, dtype=np.uint32) for c in _hash_constants(_INIT_B, _MULT_B, 8)
)

# Below this many children, one numpy ``SeedSequence`` per child is cheaper.
# The bulk pass pays a fixed cost per call (mixing the shared prefix, array
# set-up); on a fresh parent it breaks even with numpy at 4 children and
# takes 1.5x as long at 2 (paired timings, numpy 2.4, x86-64).
_BULK_MIN = 4


def _spawn_base(seq) -> tuple[list[int], list[int], list[int]]:
    """The part of ``seq``'s children's pool mixing that they all share.

    A child's assembled entropy is the parent's entropy (zero-padded to the
    pool size), the parent's spawn key, then the child's spawn index.  Only
    that last word differs between children, and it is mixed last, so the
    pool state and hash constant before it are computed once per parent.
    Returns ``MIX_MULT_L * pool`` and the per-pool-word (xor, multiply)
    constants of the index word's hash.
    """
    # numpy imports numpy.random on first use; reaching for it here, not at
    # module import, keeps that cost off start-up.
    coerce = np.random.bit_generator._coerce_to_uint32_array
    size = seq.pool_size
    run = coerce(seq.entropy).tolist()
    key = coerce(seq.spawn_key).tolist()
    words = run + [0] * (size - len(run)) + key
    const = _INIT_A
    pool = []
    for word in words[:size]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[size:]:
        for dst in range(size):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    mixed = [_MIX_MULT_L * p & _MASK for p in pool]
    return (mixed, *_hash_constants(const, _MULT_A, size))


def _child_words(base, start: int, n: int) -> np.ndarray:
    """``generate_state(4, uint64)`` of children ``start .. start+n-1``, as rows."""
    mixed, xor, mul = (np.array(v, dtype=np.uint32) for v in base)
    index = np.arange(start, start + n, dtype=np.uint32)[:, None]
    hashed = (index ^ xor) * mul
    hashed ^= hashed >> 16
    pool = mixed - np.uint32(_MIX_MULT_R) * hashed
    pool ^= pool >> 16
    state = (pool[:, np.arange(8) % len(mixed)] ^ _STATE_XOR) * _STATE_MUL
    state ^= state >> 16
    # Pair the words little-endian, as SeedSequence.generate_state does.
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


# PCG64 (numpy/random/src/pcg64): a 128-bit LCG with XSL-RR output.
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
#: ``w * _ROT`` is ``w`` twice over, so shifting it right rotates ``w``.
_ROT = 1 << 64 | 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_DOUBLE_UNIT = 1.0 / (1 << 53)
_INTEGRAL = (int, np.integer)


def _handoff(name: str):
    """A draw that ``RngStream`` serves by handing off to its generator."""

    def draw(self, *args, **kwargs):
        return getattr(self.generator, name)(*args, **kwargs)

    draw.__name__ = draw.__qualname__ = name
    draw.__doc__ = f"``Generator.{name}``; hands the stream off to numpy."
    return draw


class RngStream:
    """A seeded random stream that can spawn independent children.

    Draws what ``Generator(PCG64(seed_seq))`` draws; scalar ``integers``
    and ``random`` run natively on Python ints, everything else hands the
    stream off to that generator (see the module docstring).  Keeps the
    seed sequence around so substreams can be derived hierarchically and
    deterministically.
    """

    # A bulk child keeps its parent's sequence in ``_seed`` and its spawn
    # index in ``_index`` until it needs its own sequence.  ``_state`` and
    # ``_inc`` are PCG64's, ``_has32``/``_u32`` its half-word buffer;
    # ``_gen`` is the generator after the hand-off.
    __slots__ = (
        "_seed", "_index", "_spawned", "_base",
        "_state", "_inc", "_has32", "_u32", "_gen",
    )

    def __init__(self, seed_seq: np.random.SeedSequence) -> None:
        self._load(seed_seq, None, seed_seq.generate_state(4, np.uint64).tolist())

    def _load(self, seed, index: int | None, words: list[int]) -> None:
        """Seed from ``generate_state(4, uint64)`` as ``pcg64_set_seed`` does."""
        self._seed = seed
        self._index = index
        self._spawned = seed.n_children_spawned if index is None else 0
        self._base = self._gen = None
        s0, s1, i0, i1 = words
        inc = (i0 << 64 | i1) << 1 & _M128 | 1
        self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
        self._inc = inc
        self._has32 = False
        self._u32 = 0

    @classmethod
    def from_seed(cls, seed: int | None) -> "RngStream":
        return cls(np.random.SeedSequence(seed))

    def _seq(self) -> np.random.SeedSequence:
        """This stream's own ``SeedSequence``, built on first need."""
        seed = self._seed
        if self._index is not None:
            seed = self._seed = np.random.SeedSequence(
                seed.entropy, spawn_key=seed.spawn_key + (self._index,),
                pool_size=seed.pool_size,
            )
            self._index = None
        return seed

    # -- native draws --------------------------------------------------

    def _next64(self) -> int:
        """PCG64's next word: advance the LCG, then XSL-RR output."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        # Rotate (hi ^ lo) right by the top 6 state bits.
        return ((state >> 64 ^ state) & _M64) * _ROT >> (state >> 122) & _M64

    def _next32(self) -> int:
        """``pcg64_next32``: the low half of a fresh word, then its high half."""
        if self._has32:
            self._has32 = False
            return self._u32
        word = self._next64()
        self._has32 = True
        self._u32 = word >> 32
        return word & _MASK

    def integers(self, low, high=None, size=None, dtype=None, endpoint=False):
        """``Generator.integers``; a scalar int64 draw runs natively."""
        if high is None:
            low, high = 0, low
        if size is not None or dtype is not None or self._gen is not None:
            return self._integers(low, high, size, dtype, endpoint)
        if type(low) is not int or type(high) is not int:
            if not (isinstance(low, _INTEGRAL) and isinstance(high, _INTEGRAL)):
                return self._integers(low, high, size, dtype, endpoint)
            low, high = int(low), int(high)
        if not endpoint:
            high -= 1
        if low < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if high > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if low > high:
            # numpy's format_bounds_error, which names low == 0 specially.
            if endpoint:
                raise ValueError("high < 0" if low == 0 else "low > high")
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        span = high - low
        if span < _MASK:
            if not span:
                return low
            # Lemire's rejection on 32-bit words (buffered_bounded_lemire_uint32).
            excl = span + 1
            # self._next32() * excl, inlined: this is the per-tag draw.
            if self._has32:
                self._has32 = False
                m = self._u32 * excl
            else:
                state = (self._state * _PCG_MULT + self._inc) & _M128
                self._state = state
                word = ((state >> 64 ^ state) & _M64) * _ROT >> (state >> 122) & _M64
                self._has32 = True
                self._u32 = word >> 32
                m = (word & _MASK) * excl
            if (m & _MASK) < excl:
                threshold = (_MASK - span) % excl
                while (m & _MASK) < threshold:
                    m = self._next32() * excl
            return low + (m >> 32)
        if span == _MASK:
            return low + self._next32()
        if span == _M64:
            return low + self._next64()
        # bounded_lemire_uint64.
        excl = span + 1
        m = self._next64() * excl
        if (m & _M64) < excl:
            threshold = (_M64 - span) % excl
            while (m & _M64) < threshold:
                m = self._next64() * excl
        return low + (m >> 64)

    def _integers(self, low, high, size, dtype, endpoint):
        return self.generator.integers(
            low, high, size, np.int64 if dtype is None else dtype, endpoint
        )

    def random(self, size=None, dtype=None, out=None):
        """``Generator.random``; a scalar draw runs natively."""
        if size is None and dtype is None and out is None and self._gen is None:
            return (self._next64() >> 11) * _DOUBLE_UNIT
        dtype = np.float64 if dtype is None else dtype
        return self.generator.random(size, dtype, out)

    # -- the hand-off --------------------------------------------------

    @property
    def generator(self) -> np.random.Generator:
        """The stream as a numpy ``Generator``; reading it hands off for good."""
        gen = self._gen
        if gen is None:
            bit_generator = np.random.PCG64(self._seq())
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": int(self._has32),
                "uinteger": self._u32,
            }
            gen = self._gen = np.random.Generator(bit_generator)
            self._state = self._inc = self._u32 = None
        return gen

    choice = _handoff("choice")
    shuffle = _handoff("shuffle")
    exponential = _handoff("exponential")
    binomial = _handoff("binomial")
    uniform = _handoff("uniform")

    # -- spawning ------------------------------------------------------

    def spawn(self, n: int) -> list["RngStream"]:
        """Derive ``n`` independent child streams."""
        start = self._spawned
        self._spawned = start + n
        seed = self._seq()
        if n < _BULK_MIN or start + n > 1 << 32:
            # A few children, or spawn indices wider than one word: let
            # numpy build each child's SeedSequence.
            return [
                RngStream(np.random.SeedSequence(
                    seed.entropy, spawn_key=seed.spawn_key + (i,),
                    pool_size=seed.pool_size,
                ))
                for i in range(start, start + n)
            ]
        if self._base is None:
            self._base = _spawn_base(seed)
        new = RngStream.__new__
        kids = []
        rows = _child_words(self._base, start, n).tolist()
        for index, words in enumerate(rows, start):
            kid = new(RngStream)
            kid._load(seed, index, words)
            kids.append(kid)
        return kids

    def child(self) -> "RngStream":
        """Derive a single independent child stream."""
        return self.spawn(1)[0]

    def __repr__(self) -> str:
        seed, index = self._seed, self._index
        key = seed.spawn_key if index is None else seed.spawn_key + (index,)
        return f"RngStream(entropy={seed.entropy!r}, key={key!r})"


def make_rng(seed: int | None = None) -> RngStream:
    """Create a root :class:`RngStream` from an integer seed (or entropy)."""
    return RngStream.from_seed(seed)
