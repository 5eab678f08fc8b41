"""Binary-tree protocol tests: counter automaton invariants and Lemma 2."""

from __future__ import annotations

import statistics

import pytest

from repro.bits.bitvec import BitVector
from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.bt import BinaryTree
from repro.security.blocker import BlockerTag, MaliciousTag
from repro.sim.reader import Reader
from repro.sim.trace import SlotTrace
from repro.tags.population import TagPopulation


def run_bt(pop, detector=None):
    return Reader(detector or QCDDetector(8)).run_inventory(pop.tags, BinaryTree())


class TestInvariants:
    def test_all_identified_exactly_once(self, make_population):
        pop = make_population(64)
        result = run_bt(pop)
        assert sorted(result.identified_ids) == sorted(pop.ids)

    def test_first_slot_all_respond(self, make_population):
        pop = make_population(10)
        proto = BinaryTree()
        proto.start(pop.tags)
        assert len(proto.responders()) == 10

    def test_counters_never_negative(self, make_population):
        pop = make_population(30)
        proto = BinaryTree()
        reader = Reader(QCDDetector(8))
        proto.start(pop.tags)
        while not proto.finished:
            responders = proto.responders()
            trace = SlotTrace()
            reader._run_slot(0, 0.0, proto, responders, [], [], trace)
            proto.feedback(trace[-1].true_type, responders)
            assert all(t.counter >= 0 for t in proto.active_tags())

    def test_single_tag_one_slot(self, make_population):
        pop = make_population(1)
        result = run_bt(pop)
        assert len(result.trace) == 1
        assert result.trace[0].true_type is SlotType.SINGLE

    def test_empty_population(self):
        proto = BinaryTree()
        proto.start([])
        assert proto.finished

    def test_two_tags_split_until_resolved(self, make_population):
        pop = make_population(2)
        result = run_bt(pop)
        assert result.stats.true_counts.single == 2
        assert result.trace[0].true_type is SlotType.COLLIDED


class TestLemma2Shape:
    def test_slot_count_near_2885n(self, make_population):
        """Lemma 2: E[slots] = 2.885n; 20 runs of n=50 should average close."""
        totals = []
        for _ in range(20):
            pop = make_population(50)
            totals.append(run_bt(pop).stats.true_counts.total)
        avg = statistics.mean(totals)
        assert 2.885 * 50 * 0.85 < avg < 2.885 * 50 * 1.15

    def test_throughput_near_035(self, make_population):
        thr = []
        for _ in range(20):
            pop = make_population(50)
            thr.append(run_bt(pop).stats.throughput)
        assert 0.30 < statistics.mean(thr) < 0.40

    def test_collided_exceed_idle(self, make_population):
        """Lemma 2: 1.443n collided vs 0.442n idle."""
        pop = make_population(200)
        counts = run_bt(pop).stats.true_counts
        assert counts.collided > counts.idle


class TestProgress:
    def test_slot_count_bounded(self, make_population):
        """BT resolves n tags in O(n) expected slots; even unlucky runs
        stay well under 10n."""
        pop = make_population(40)
        result = run_bt(pop)
        assert len(result.trace) < 400

    def test_frames_reported_as_one(self, make_population):
        pop = make_population(10)
        assert run_bt(pop).stats.frames == 1


class TestStrandedResponders:
    """A responder that a SINGLE verdict leaves unidentified drops below
    counter 0 and returns only on a collision.  Once no group at counter
    >= 0 is left, nothing can collide, so BT ends instead of idling until
    the Reader's ``max_slots``."""

    @pytest.mark.parametrize("seed", [2, 3, 5, 6, 8, 10, 11])
    def test_singles_read_as_idle(self, seed):
        """QCD-1 under BER 0.15 reads true singles as idle; these seeds
        used to run into the 3 000-slot bound."""
        tags = TagPopulation(30, id_bits=64, rng=make_rng(seed)).tags
        reader = Reader(
            QCDDetector(1),
            channel=Channel(bit_error_rate=0.15, rng=make_rng(seed)),
            max_slots=3000,
        )
        protocol = BinaryTree()
        result = reader.run_inventory(tags, protocol)
        assert len(result.trace) < 300
        assert protocol.finished
        stranded = [t for t in tags if not t.identified]
        assert stranded
        assert all(t.counter < 0 for t in stranded)
        assert len(result.identified_ids) + len(stranded) == 30

    @pytest.mark.parametrize("jammer", ["malicious", "blocker"])
    def test_jammer_population(self, jammer):
        """A jammer's phantom single never retires it."""
        tags = TagPopulation(20, id_bits=8, rng=make_rng(9)).tags
        if jammer == "malicious":
            extra = MaliciousTag(tag_id=0, id_bits=8, rng=make_rng(66))
        else:
            extra = BlockerTag(tag_id=1, id_bits=8, rng=make_rng(67),
                               privacy_prefix=BitVector(1, 1))
        reader = Reader(
            QCDDetector(8),
            TimingModel(id_bits=8),
            channel=Channel(bit_error_rate=1e-3, rng=make_rng(77)),
            max_slots=3000,
        )
        result = reader.run_inventory([*tags[:10], extra, *tags[10:]],
                                      BinaryTree())
        assert len(result.trace) < 300
        assert not extra.identified and extra.counter < 0
