"""``RngStream``'s native PCG64 draws against numpy's own ``Generator``.

A stream serves scalar ``integers`` and ``random`` from PCG64 state it
keeps as Python ints, and hands off to ``Generator(PCG64(seed_seq))`` for
everything else.  Hypothesis interleaves native draws over every range
class numpy's ``integers`` treats differently (empty, 32-bit Lemire with
its half-word buffer, exactly 32 bits, 64-bit Lemire, the full int64
span), invalid bounds, copies and pickles of the stream, then a hand-off,
and holds every value, every error and the final state to numpy's.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bits.rng import RngStream

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: How many values a draw can take: every branch of numpy's bounded
#: integers, either side of 2^32 and the full int64 span.
SPANS = [
    1, 2, 300, 1 << 16, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
    1 << 62, (1 << 64) - 1, 1 << 64,
]


@st.composite
def bounds(draw):
    """A valid scalar ``integers`` call as ``(low, high, endpoint)``."""
    span = draw(st.sampled_from(SPANS))
    endpoint = draw(st.booleans())
    top = INT64_MAX + 1 - span  # the largest low that keeps high in range
    low = draw(st.one_of(
        st.just(0), st.integers(-1000, 1000), st.just(INT64_MIN),
        st.integers(INT64_MIN, top),
    ).filter(lambda v: INT64_MIN <= v <= top))
    return low, low + span - endpoint, endpoint


invalid_bounds = st.one_of(
    st.tuples(st.just(0), st.integers(-5, 0), st.just(False)),
    st.tuples(st.integers(-5, 5), st.integers(-10, 5), st.booleans()).filter(
        lambda b: b[0] > b[1] - (not b[2])
    ),
    st.tuples(st.integers(INT64_MIN - 10, INT64_MIN - 1), st.just(0), st.booleans()),
    st.tuples(st.just(0), st.integers(INT64_MAX + 2, INT64_MAX + 10), st.booleans()),
    st.tuples(st.just(0), st.just(INT64_MAX + 1), st.just(True)),
)

native_ops = st.one_of(
    st.tuples(st.just("integers"), bounds()),
    st.tuples(st.just("numpy-int"), bounds()),
    st.tuples(st.just("one-arg"), st.sampled_from([1, 2, 300, 1 << 40])),
    st.just(("random",)),
    st.tuples(st.just("invalid"), invalid_bounds),
    st.sampled_from([("pickle",), ("deepcopy",)]),
)

#: Each hands the stream off to numpy; the draw that follows is compared.
HANDOFFS = {
    "sized": lambda g: g.integers(0, 300, size=5),
    "sized-random": lambda g: g.random(3),
    "dtype": lambda g: g.integers(0, 200, dtype=np.uint8),
    "float-bounds": lambda g: g.integers(0.0, 300.0),
    "choice": lambda g: g.choice(10, size=2),
    "uniform": lambda g: g.uniform(0.0, 5.0),
    "generator": None,
}


def _numpy(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seq))


def _pair(entropy, key, child=None):
    """A stream and numpy's generator on the same seed; with ``child``,
    that child of a spawn (bulk-seeded from 4 children on)."""
    seq = np.random.SeedSequence(entropy, spawn_key=key)
    twin = np.random.SeedSequence(entropy, spawn_key=key)
    if child is None:
        return RngStream(seq), _numpy(twin)
    return RngStream(seq).spawn(child + 1)[child], _numpy(twin.spawn(child + 1)[child])


def _np_int(value: int) -> np.integer:
    return np.int64(value) if value <= INT64_MAX else np.uint64(value)


def _same_draw(ours, theirs) -> None:
    assert ours == theirs


def _apply(op, stream: RngStream, ref: np.random.Generator):
    """Run ``op`` on both sides; returns the (possibly replaced) pair."""
    kind = op[0]
    if kind == "integers":
        low, high, endpoint = op[1]
        _same_draw(
            stream.integers(low, high, endpoint=endpoint),
            int(ref.integers(low, high, endpoint=endpoint)),
        )
    elif kind == "numpy-int":
        low, high, endpoint = op[1]
        _same_draw(
            stream.integers(_np_int(low), _np_int(high), endpoint=endpoint),
            int(ref.integers(low, high, endpoint=endpoint)),
        )
    elif kind == "one-arg":
        _same_draw(stream.integers(op[1]), int(ref.integers(op[1])))
    elif kind == "random":
        _same_draw(stream.random(), ref.random())
    elif kind == "invalid":
        low, high, endpoint = op[1]
        with pytest.raises(ValueError) as theirs:
            ref.integers(low, high, endpoint=endpoint)
        with pytest.raises(ValueError) as ours:
            stream.integers(low, high, endpoint=endpoint)
        assert str(ours.value) == str(theirs.value)
    elif kind == "pickle":
        return pickle.loads(pickle.dumps(stream)), pickle.loads(pickle.dumps(ref))
    elif kind == "deepcopy":
        clone, ref_clone = copy.deepcopy(stream), copy.deepcopy(ref)
        # The copies are independent: the originals must not move.
        _same_draw(clone.integers(0, 300), int(ref_clone.integers(0, 300)))
        _same_draw(stream.integers(0, 300), int(ref.integers(0, 300)))
        return clone, ref_clone
    return stream, ref


class TestNativeDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 1 << 128), st.lists(st.integers(0, 1 << 32), max_size=2),
        st.one_of(st.none(), st.integers(0, 9)),
        st.lists(native_ops, max_size=40), st.sampled_from(sorted(HANDOFFS)),
        st.lists(native_ops, max_size=8),
    )
    def test_matches_numpy_through_the_handoff(
        self, entropy, key, child, before, handoff, after
    ):
        stream, ref = _pair(entropy, tuple(key), child)
        for op in before:
            stream, ref = _apply(op, stream, ref)
        draw = HANDOFFS[handoff]
        if draw is not None:
            assert np.array_equal(draw(stream), draw(ref))
        gen = stream.generator
        assert gen.bit_generator.state == ref.bit_generator.state
        for op in after:
            stream, ref = _apply(op, stream, ref)
        assert stream.generator.bit_generator.state == ref.bit_generator.state

    def test_every_range_class_over_many_draws(self):
        """Long runs per span hit the rejection loops and both buffer halves."""
        for span in SPANS:
            for endpoint in (False, True):
                stream, ref = _pair(span, (int(endpoint),))
                low = -7 if span <= 1 << 62 else INT64_MIN
                high = low + span - endpoint
                got = [stream.integers(low, high, endpoint=endpoint)
                       for _ in range(500)]
                want = ref.integers(low, high, size=500, endpoint=endpoint)
                assert got == want.tolist()
                assert stream.generator.bit_generator.state == (
                    ref.bit_generator.state
                )

    def test_rejection_is_exercised(self):
        """A span just above 2^31 rejects ~half its first draws."""
        stream, ref = _pair(3, ())
        span = (1 << 31) + 1
        got = [stream.integers(0, span) for _ in range(200)]
        assert got == ref.integers(0, span, size=200).tolist()

    def test_native_draws_are_python_scalars(self):
        stream = RngStream(np.random.SeedSequence(5))
        assert type(stream.integers(0, 10)) is int
        assert type(stream.random()) is float
        assert type(stream.integers(np.int32(3), np.uint64(1 << 40))) is int


class TestHandoff:
    def test_handoff_keeps_the_seed_sequence(self):
        kid = RngStream.from_seed(8).spawn(10)[6]
        kid.integers(0, 300)
        seq = kid.generator.bit_generator.seed_seq
        ref = np.random.SeedSequence(8).spawn(10)[6]
        assert (seq.entropy, seq.spawn_key) == (ref.entropy, ref.spawn_key)

    def test_handoff_is_one_way(self):
        stream, ref = _pair(11, (2,))
        stream.integers(0, 300)
        ref.integers(0, 300)
        gen = stream.generator
        # Native-looking draws now go through the generator.
        assert stream.integers(0, 300) == ref.integers(0, 300)
        assert stream.random() == ref.random()
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_pickled_after_handoff(self):
        stream, ref = _pair(12, ())
        stream.random(2)
        ref.random(2)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.integers(0, 1 << 40) == ref.integers(0, 1 << 40)
