"""Query-tree prefix lookup: the sorted-ID index against the tag scan.

``AntiCollisionProtocol.prefix_responders`` answers a probe by bisecting
the sorted tag IDs.  Its contract is to return exactly what asking every
active tag would, element for element and in the same order, so the
differential tests below compare the two over random populations
(duplicate IDs, partly identified) and prefixes of every length from 0 to
``l_id + 1``, with tags admitted, withdrawn and identified between probes.
The counting tests then check that a plain QT/AQS inventory no longer asks
any tag, while populations with jamming tags still do.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits.bitvec import BitVector
from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.protocols.aqs import AdaptiveQuerySplitting
from repro.protocols.qt import QueryTree
from repro.security.blocker import BlockerTag, MaliciousTag
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.tags.tag import Tag
from repro.verify.strategies import seeds, sized_bitvectors, tag_ids

#: Short IDs make duplicates and deep shared prefixes common; 64 is the
#: paper's l_id.
ID_BITS = (1, 3, 8, 64)
PROTOCOLS = (QueryTree, AdaptiveQuerySplitting)


def scan(proto, prefix: BitVector) -> list[Tag]:
    return [t for t in proto.active_tags() if t.responds_to_prefix(prefix)]


def assert_matches_scan(proto, prefix: BitVector) -> None:
    got = proto.prefix_responders(prefix)
    assert [id(t) for t in got] == [id(t) for t in scan(proto, prefix)]


def draw_prefix(data, proto, id_bits: int) -> BitVector:
    """A probe of length 0..l_id+1; half the time one lying above a
    present ID, so that most probes match something."""
    length = data.draw(st.integers(0, id_bits + 1), label="length")
    ids = [t.tag_id for t in proto.tags]
    if ids and length <= id_bits and data.draw(st.booleans()):
        tag_id = data.draw(st.sampled_from(ids), label="under")
        return BitVector(tag_id >> (id_bits - length), length)
    return data.draw(sized_bitvectors(length), label="prefix")


def make_tags(ids: list[int], id_bits: int) -> list[Tag]:
    return [Tag(i, id_bits, make_rng(k)) for k, i in enumerate(ids)]


@st.composite
def id_populations(draw):
    """``(id_bits, tags)``: IDs may repeat and some tags are identified."""
    id_bits = draw(st.sampled_from(ID_BITS))
    ids = draw(st.lists(tag_ids(id_bits), max_size=24))
    tags = make_tags(ids, id_bits)
    for tag in tags:
        tag.identified = draw(st.booleans())
    return id_bits, tags


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        population=id_populations(),
        data=st.data(),
    )
    def test_static_population(self, protocol, population, data):
        id_bits, tags = population
        proto = protocol()
        proto.start(tags)
        for _ in range(data.draw(st.integers(1, 12), label="probes")):
            assert_matches_scan(proto, draw_prefix(data, proto, id_bits))

    @settings(max_examples=80, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        population=id_populations(),
        data=st.data(),
    )
    def test_admit_withdraw_identify_mid_round(self, protocol, population, data):
        id_bits, tags = population
        proto = protocol()
        proto.start(tags)
        ops = data.draw(
            st.lists(
                st.sampled_from(("probe", "admit", "withdraw", "identify")),
                max_size=20,
            ),
            label="ops",
        )
        for op in ops:
            if op == "admit":
                tag_id = data.draw(tag_ids(id_bits), label="arrival")
                proto.admit(Tag(tag_id, id_bits, make_rng(tag_id)))
            elif op in ("withdraw", "identify") and proto.tags:
                tag = data.draw(st.sampled_from(proto.tags), label=op)
                if op == "withdraw":
                    proto.withdraw(tag)
                else:
                    tag.identified = True
            assert_matches_scan(proto, draw_prefix(data, proto, id_bits))

    @settings(max_examples=40, deadline=None)
    @given(population=id_populations(), seed=seeds(), data=st.data())
    def test_jammers_and_mixed_lengths_fall_back(self, population, seed, data):
        """Populations the ID range cannot describe are scanned."""
        id_bits, tags = population
        proto = QueryTree()
        proto.start(tags)
        proto.admit(
            data.draw(
                st.sampled_from((
                    BlockerTag(0, id_bits, make_rng(seed)),
                    MaliciousTag(0, id_bits, make_rng(seed)),
                    Tag(0, id_bits + 1, make_rng(seed)),
                )),
                label="odd one out",
            )
        )
        for _ in range(data.draw(st.integers(1, 8), label="probes")):
            assert_matches_scan(proto, draw_prefix(data, proto, id_bits))


class TestEdges:
    def test_prefix_longer_than_id_matches_nothing(self):
        proto = QueryTree()
        proto.start(make_tags([0b101, 0b101, 0b000], 3))
        assert proto.prefix_responders(BitVector(0b1010, 4)) == []

    def test_full_length_prefix_finds_duplicates_in_order(self):
        tags = make_tags([0b101, 0b011, 0b101, 0b100], 3)
        proto = QueryTree()
        proto.start(tags)
        got = proto.prefix_responders(BitVector(0b101, 3))
        assert [id(t) for t in got] == [id(tags[0]), id(tags[2])]

    def test_empty_prefix_returns_active_tags_in_order(self):
        tags = make_tags([7, 1, 4, 1], 3)
        tags[2].identified = True
        proto = QueryTree()
        proto.start(tags)
        got = proto.prefix_responders(BitVector(0, 0))
        assert [id(t) for t in got] == [id(t) for t in proto.active_tags()]

    def test_empty_population(self):
        proto = QueryTree()
        proto.start([])
        assert proto.prefix_responders(BitVector(0, 0)) == []


def count_calls(monkeypatch, cls) -> list[Tag]:
    """Record the tag behind every ``cls.responds_to_prefix`` call."""
    asked: list[Tag] = []
    original = cls.responds_to_prefix

    def counting(self, prefix):
        asked.append(self)
        return original(self, prefix)

    monkeypatch.setattr(cls, "responds_to_prefix", counting)
    return asked


class TestScanGone:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_plain_inventory_asks_no_tag(self, monkeypatch, protocol):
        asked = count_calls(monkeypatch, Tag)
        pop = TagPopulation(300, id_bits=64, rng=make_rng(16))
        result = Reader(QCDDetector(8)).run_inventory(pop.tags, protocol())
        assert sorted(result.identified_ids) == sorted(pop.ids)
        assert len(asked) == 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_blocker_override_still_called(self, monkeypatch, protocol):
        asked = count_calls(monkeypatch, BlockerTag)
        pop = TagPopulation(30, id_bits=16, rng=make_rng(16))
        blocker = BlockerTag(0, 16, make_rng(1), privacy_prefix=BitVector(1, 1))
        Reader(QCDDetector(8)).run_inventory(
            [*pop.tags, blocker], protocol(max_slots=200)
        )
        assert asked and all(t is blocker for t in asked)
