"""Deterministic, spawnable random-number streams.

Every stochastic component of the simulator (each tag, each reader, each
Monte-Carlo round) draws from its own independent substream derived from a
single experiment seed via :class:`numpy.random.SeedSequence` spawning.
This gives two properties the experiment harness relies on:

* **Reproducibility** -- a run is a pure function of its seed;
* **Insensitivity to ordering** -- adding a component (e.g. one more tag)
  does not perturb the draws of unrelated components.

Bulk seeding contract: spawn through :class:`RngStream`; its counter is the
source of truth.  ``RngStream.spawn(n)`` returns streams bit-identical to
``Generator(PCG64(c))`` for ``c`` in ``SeedSequence.spawn(n)``, but it
computes every child's PCG64 seed words in one vectorized pass of numpy's
``SeedSequence`` mixing (O'Neill's ``seed_seq``) instead of building ``n``
``SeedSequence`` objects.  The stream counts its own children, starting at
the wrapped sequence's ``n_children_spawned``; the wrapped sequence's
counter does not advance (numpy makes it read-only), so spawning from
``generator.bit_generator.seed_seq`` directly is not coordinated with
``RngStream.spawn``.
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
    bit_generator = np.random.bit_generator
    bit_generator.ISpawnableSeedSequence.register(_BulkSeed)
    coerce = bit_generator._coerce_to_uint32_array
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


class _BulkSeed:
    """``SeedSequence(entropy, spawn_key=key, pool_size=...)`` with its PCG64
    words precomputed; an ``ISpawnableSeedSequence`` (registered by
    :func:`_spawn_base`).

    The words are handed out once, to the ``PCG64`` that seeds from this
    object; every other use goes to the real ``SeedSequence``, which is
    built on first need (``spawn``, other ``generate_state`` shapes,
    pickling -- which therefore round-trips to a plain ``SeedSequence``).
    """

    __slots__ = ("entropy", "spawn_key", "pool_size", "_words", "_seq")

    def __init__(self, entropy, spawn_key: tuple, pool_size: int, words) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.pool_size = pool_size
        self._words = words
        self._seq: np.random.SeedSequence | None = None

    @property
    def seq(self) -> np.random.SeedSequence:
        if self._seq is None:
            self._seq = np.random.SeedSequence(
                self.entropy, spawn_key=self.spawn_key, pool_size=self.pool_size
            )
        return self._seq

    @property
    def n_children_spawned(self) -> int:
        return 0 if self._seq is None else self._seq.n_children_spawned

    def generate_state(self, n_words, dtype=np.uint32):
        words, self._words = self._words, None
        if words is not None and n_words == 4 and np.dtype(dtype) == np.uint64:
            return words
        return self.seq.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.seq.spawn(n_children)

    def __reduce__(self):
        return self.seq.__reduce__()


#: The draws an :class:`RngStream` passes through to its generator.
_DRAWS = (
    "integers", "random", "choice", "shuffle", "exponential", "binomial", "uniform",
)


class RngStream:
    """A seeded random stream that can spawn independent children.

    Wraps a ``numpy.random.Generator`` on ``PCG64`` and keeps the seed
    sequence around so substreams can be derived hierarchically and
    deterministically.  ``integers``, ``random``, ``choice``, ``shuffle``,
    ``exponential``, ``binomial`` and ``uniform`` are the generator's own
    bound methods, bound on first use.
    """

    __slots__ = ("_seed", "_spawned", "_base", "generator", *_DRAWS)

    def __init__(self, seed_seq: np.random.SeedSequence) -> None:
        self._seed = seed_seq
        self._spawned = seed_seq.n_children_spawned
        self._base = None
        self.generator = np.random.Generator(np.random.PCG64(seed_seq))

    def __getattr__(self, name: str):
        # Reached only while a draw's slot is empty: bind the generator's
        # method into it on first use.  Draws then skip a wrapper frame,
        # and a tag holds only the methods it draws with (binding all
        # seven up front cost ~290 B per tag).
        if name not in _DRAWS:
            raise AttributeError(name)
        method = getattr(self.generator, name)
        setattr(self, name, method)
        return method

    @classmethod
    def from_seed(cls, seed: int | None) -> "RngStream":
        return cls(np.random.SeedSequence(seed))

    def spawn(self, n: int) -> list["RngStream"]:
        """Derive ``n`` independent child streams."""
        seed, start = self._seed, self._spawned
        self._spawned = start + n
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
        words = _child_words(self._base, start, n)
        key = seed.spawn_key
        return [
            RngStream(_BulkSeed(seed.entropy, key + (start + j,), seed.pool_size, w))
            for j, w in enumerate(words)
        ]

    def child(self) -> "RngStream":
        """Derive a single independent child stream."""
        return self.spawn(1)[0]

    def __repr__(self) -> str:
        seed = self._seed
        return f"RngStream(entropy={seed.entropy!r}, key={seed.spawn_key!r})"


def make_rng(seed: int | None = None) -> RngStream:
    """Create a root :class:`RngStream` from an integer seed (or entropy)."""
    return RngStream.from_seed(seed)
