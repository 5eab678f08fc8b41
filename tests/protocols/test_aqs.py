"""Adaptive Query Splitting tests: warm-start rounds."""

from __future__ import annotations

from repro.bits.bitvec import BitVector
from repro.core.qcd import QCDDetector
from repro.protocols.aqs import AdaptiveQuerySplitting
from repro.sim.reader import Reader


class TestFirstRound:
    def test_all_identified(self, make_population):
        pop = make_population(40, id_bits=16)
        proto = AdaptiveQuerySplitting()
        result = Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert sorted(result.identified_ids) == sorted(pop.ids)

    def test_candidates_collected(self, make_population):
        pop = make_population(20, id_bits=16)
        proto = AdaptiveQuerySplitting()
        Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert len(proto.candidate_queue) >= 20  # >= one single per tag


class TestWarmStart:
    def test_second_round_collision_free(self, make_population):
        pop = make_population(30, id_bits=16)
        proto = AdaptiveQuerySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        for tag in pop:
            tag.identified = False
            tag.identified_at = None
        result2 = reader.run_inventory_continue(pop.tags, proto)
        assert result2.stats.true_counts.collided == 0
        assert result2.stats.true_counts.single == 30

    def test_warm_start_covers_new_arrival(self, make_population):
        """A tag arriving between rounds must still be identified: the idle
        candidate prefixes keep the whole ID space covered."""
        pop = make_population(12, id_bits=10)
        proto = AdaptiveQuerySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        for tag in pop:
            tag.identified = False
            tag.identified_at = None
        newcomer_pop = make_population(1, id_bits=10)
        newcomer = newcomer_pop[0]
        while newcomer.tag_id in set(pop.ids):  # pragma: no cover - unlikely
            newcomer_pop = make_population(1, id_bits=10)
            newcomer = newcomer_pop[0]
        result2 = reader.run_inventory_continue(
            list(pop.tags) + [newcomer], proto
        )
        assert newcomer.tag_id in result2.identified_ids
        assert len(result2.identified_ids) == 13

    def test_fresh_round_resets(self, make_population):
        pop = make_population(10, id_bits=12)
        proto = AdaptiveQuerySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        pop.reset()
        result = reader.run_inventory(pop.tags, proto)  # fresh=True
        assert result.stats.true_counts.single == 10


class TestCompaction:
    @staticmethod
    def compact(*pairs):
        cands = [(BitVector.from_bitstring(s), idle) for s, idle in pairs]
        return {
            p.to_bitstring()
            for p in AdaptiveQuerySplitting._compact(cands)
        }

    def test_idle_sibling_pairs_merge_recursively(self):
        # idle 000 + idle 001 -> idle 00; idle 00 + idle 01 -> idle 0.
        out = self.compact(("000", True), ("001", True), ("01", True), ("10", False))
        assert out == {"0", "10"}

    def test_single_prefixes_never_merge(self):
        """Merging a single with its sibling would re-create a collision."""
        out = self.compact(("00", False), ("01", False))
        assert out == {"00", "01"}

    def test_mixed_pair_kept_apart(self):
        out = self.compact(("00", True), ("01", False))
        assert out == {"00", "01"}

    def test_never_merges_to_empty_prefix(self):
        out = self.compact(("0", True), ("1", True))
        assert out == {"0", "1"}

    def test_lone_idle_kept(self):
        out = self.compact(("00", True), ("10", False))
        assert out == {"00", "10"}


class TestBounds:
    def test_max_slots(self, make_population):
        pop = make_population(30, id_bits=16)
        proto = AdaptiveQuerySplitting(max_slots=5)
        Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert proto.aborted


class TestValidation:
    def test_mixed_id_lengths_rejected(self):
        """A 4-bit ID bounded the split depth, so the two 8-bit tags under
        it were never split apart and no tag was identified, silently."""
        import pytest

        from repro.bits.rng import make_rng
        from repro.tags.tag import Tag

        tags = [
            Tag(tag_id=0b1010, id_bits=4, rng=make_rng(0)),
            Tag(tag_id=0b10100000, id_bits=8, rng=make_rng(1)),
            Tag(tag_id=0b10100001, id_bits=8, rng=make_rng(2)),
        ]
        with pytest.raises(ValueError, match="uniform ID length"):
            Reader(QCDDetector(8)).run_inventory(tags, AdaptiveQuerySplitting())
        with pytest.raises(ValueError, match="uniform ID length"):
            AdaptiveQuerySplitting().start(tags, fresh=False)
