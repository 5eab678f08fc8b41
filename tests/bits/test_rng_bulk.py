"""Bulk child seeding is bit-identical to numpy's ``SeedSequence.spawn``.

``RngStream.spawn`` computes its children's PCG64 seed words in one
vectorized pass instead of building a ``SeedSequence`` per child.  These
tests hold that pass (and every stream built on it) to numpy's own
``SeedSequence(...).spawn(n)[i].generate_state(4, np.uint64)`` across
entropies, key depths, pool sizes, batch sizes and start offsets.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bits.rng import _BULK_MIN, RngStream, _child_words, _spawn_base

entropies = st.one_of(
    st.just(0),
    st.integers(1, 1000),
    st.integers(1 << 32, 1 << 64),
    st.integers(1 << 128, 1 << 160),
    st.lists(st.integers(0, 1 << 70), max_size=6),
    st.none(),
)
keys = st.lists(st.integers(0, 1 << 40), max_size=3).map(tuple)
pool_sizes = st.sampled_from([4, 8])
batch_sizes = st.one_of(st.sampled_from([0, 1]), st.integers(2, 40), st.just(300))


def _numpy_seq(stream_seq: np.random.SeedSequence, spawned: int = 0):
    """An independent numpy copy of ``stream_seq`` (same realised entropy)."""
    return np.random.SeedSequence(
        stream_seq.entropy,
        spawn_key=stream_seq.spawn_key,
        pool_size=stream_seq.pool_size,
        n_children_spawned=spawned,
    )


def _words(seqs) -> np.ndarray:
    return np.array([s.generate_state(4, np.uint64) for s in seqs]).reshape(-1, 4)


def _gen(seq) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seq))


def _assert_same_stream(stream: RngStream, ref: np.random.SeedSequence) -> None:
    assert repr(stream) == (
        f"RngStream(entropy={ref.entropy!r}, key={ref.spawn_key!r})"
    )
    assert np.array_equal(
        stream.integers(0, 1 << 62, size=4), _gen(ref).integers(0, 1 << 62, size=4)
    )


class TestBulkWords:
    @settings(max_examples=150, deadline=None)
    @given(entropies, keys, pool_sizes, batch_sizes, st.integers(0, 1000))
    def test_words_match_numpy_spawn(self, entropy, key, pool_size, n, start):
        parent = np.random.SeedSequence(entropy, spawn_key=key, pool_size=pool_size)
        got = _child_words(_spawn_base(parent), start, n)
        want = _words(_numpy_seq(parent, start).spawn(n))
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        entropies, keys, pool_sizes, st.integers(0, 20),
        st.lists(st.integers(0, 12), max_size=4), batch_sizes,
    )
    def test_streams_match_numpy_spawn(
        self, entropy, key, pool_size, pre, earlier, n
    ):
        """Spawned streams follow numpy's keys across earlier child()/spawn()
        calls and a wrapped sequence that had already spawned ``pre``."""
        seq = np.random.SeedSequence(
            entropy, spawn_key=key, pool_size=pool_size, n_children_spawned=pre
        )
        stream = RngStream(seq)
        ref = _numpy_seq(seq, pre)
        for k in [*earlier, n]:
            kids = [stream.child()] if k == 1 else stream.spawn(k)
            ref_kids = ref.spawn(k)
            assert len(kids) == k
            for kid, ref_kid in zip(kids, ref_kids):
                _assert_same_stream(kid, ref_kid)

    def test_both_sides_of_the_bulk_threshold(self):
        for n in (_BULK_MIN - 1, _BULK_MIN, 3 * _BULK_MIN):
            ref = np.random.SeedSequence(7).spawn(n)
            for kid, ref_kid in zip(RngStream.from_seed(7).spawn(n), ref):
                assert kid.generator.bit_generator.state == (
                    np.random.PCG64(ref_kid).state
                )

    def test_wrapped_sequence_that_already_spawned(self):
        seq = np.random.SeedSequence(2010, spawn_key=(4,))
        seq.spawn(3)
        kids = RngStream(seq).spawn(50)
        ref = np.random.SeedSequence(2010, spawn_key=(4,)).spawn(53)[3:]
        for kid, ref_kid in zip(kids, ref):
            _assert_same_stream(kid, ref_kid)


class TestBulkChild:
    """A bulk-seeded child behaves like a numpy-seeded one everywhere."""

    @pytest.fixture
    def pair(self):
        kids = RngStream.from_seed(99).spawn(3 * _BULK_MIN)
        return kids[-1], np.random.SeedSequence(99).spawn(3 * _BULK_MIN)[-1]

    def test_first_draws_and_repr(self, pair):
        kid, ref = pair
        assert repr(kid) == f"RngStream(entropy=99, key={ref.spawn_key!r})"
        gen = _gen(ref)
        for _ in range(8):
            assert kid.integers(0, 300) == gen.integers(0, 300)
        assert kid.random() == gen.random()
        assert np.array_equal(kid.choice(10, size=3), gen.choice(10, size=3))

    @pytest.mark.parametrize("n", [1, 2 * _BULK_MIN])
    def test_nested_spawn(self, pair, n):
        kid, ref = pair
        grandkids, ref_grandkids = kid.spawn(n), ref.spawn(n)
        for grandkid, ref_kid in zip(grandkids, ref_grandkids):
            _assert_same_stream(grandkid, ref_kid)
        for great, ref_great in zip(
            grandkids[-1].spawn(n), ref_grandkids[-1].spawn(n)
        ):
            _assert_same_stream(great, ref_great)

    def test_pickle_round_trip(self, pair):
        kid, ref = pair
        kid.integers(0, 10, size=3)
        clone = pickle.loads(pickle.dumps(kid.generator))
        assert np.array_equal(
            clone.integers(0, 1 << 62, size=5), kid.integers(0, 1 << 62, size=5)
        )
        seq = clone.bit_generator.seed_seq
        assert (seq.entropy, seq.spawn_key) == (ref.entropy, ref.spawn_key)
        assert np.array_equal(
            seq.generate_state(4, np.uint64), ref.generate_state(4, np.uint64)
        )

    def test_bit_generator_seed_seq(self, pair):
        kid, ref = pair
        seq = kid.generator.bit_generator.seed_seq
        assert np.array_equal(
            seq.generate_state(4, np.uint64), ref.generate_state(4, np.uint64)
        )
        assert np.array_equal(seq.generate_state(3), ref.generate_state(3))
        assert np.array_equal(_words(seq.spawn(2)), _words(ref.spawn(2)))
        assert seq.n_children_spawned == 2
        assert np.array_equal(
            np.random.Generator(kid.generator.bit_generator.spawn(1)[0]).random(3),
            _gen(ref.spawn(1)[0]).random(3),
        )
