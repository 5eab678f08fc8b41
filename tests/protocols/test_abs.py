"""Adaptive Binary Splitting tests: round memory and collision-free replay."""

from __future__ import annotations

from repro.core.qcd import QCDDetector
from repro.protocols.abs_protocol import AdaptiveBinarySplitting
from repro.sim.reader import Reader


class TestFirstRound:
    def test_all_identified(self, make_population):
        pop = make_population(50)
        proto = AdaptiveBinarySplitting()
        result = Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert sorted(result.identified_ids) == sorted(pop.ids)

    def test_single_tag(self, make_population):
        pop = make_population(1)
        proto = AdaptiveBinarySplitting()
        result = Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
        assert len(result.trace) == 1

    def test_empty(self):
        proto = AdaptiveBinarySplitting()
        proto.start([])
        assert proto.finished


class TestReadableRound:
    """ABS's defining feature: a second round over the same tags replays
    the learned schedule collision-free, one slot per tag."""

    def test_second_round_collision_free(self, make_population):
        pop = make_population(40)
        proto = AdaptiveBinarySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        # Tags retain their ASCs; reset identification only.
        for tag in pop:
            tag.identified = False
            tag.identified_at = None
        result2 = reader.run_inventory_continue(pop.tags, proto)
        counts = result2.stats.true_counts
        assert counts.collided == 0
        assert counts.single == 40

    def test_second_round_slot_count_equals_n(self, make_population):
        pop = make_population(25)
        proto = AdaptiveBinarySplitting()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        for tag in pop:
            tag.identified = False
            tag.identified_at = None
        result2 = reader.run_inventory_continue(pop.tags, proto)
        assert len(result2.trace) == 25


class TestArrivals:
    def test_admitted_tag_identified(self, make_population):
        pop = make_population(10)
        proto = AdaptiveBinarySplitting()
        reader = Reader(QCDDetector(8))
        proto.start(pop.tags)
        extra_pop = make_population(1)
        extra = extra_pop[0]
        # Run a few slots, then admit a newcomer.
        identified, lost = [], []
        index, time = 0, 0.0
        from repro.sim.reader import record_effective

        while not proto.finished:
            if index == 3:
                proto.admit(extra)
            responders = proto.responders()
            time, record = reader._run_slot(
                index, time, proto, responders, identified, lost
            )
            proto.feedback(record_effective(record, "paper"), responders)
            index += 1
        assert extra.tag_id in identified
        assert len(identified) == 11


def rescanned_finished(proto) -> bool:
    """``finished`` as a full rescan of the active tags' ASCs."""
    active = proto.active_tags()
    return not active or proto._psc > max(t.counter for t in active)


class RescanChecked(AdaptiveBinarySplitting):
    """ABS that checks its kept maximum ASC against a rescan after every
    call that can move it."""

    checks = 0

    def check(self) -> None:
        active = self.active_tags()
        if active:
            assert self._max_asc == max(t.counter for t in active)
        assert self.finished == rescanned_finished(self)
        self.checks += 1

    def start(self, tags, fresh=True):
        super().start(tags, fresh)
        self.check()

    def admit(self, tag):
        super().admit(tag)
        self.check()

    def withdraw(self, tag):
        super().withdraw(tag)
        self.check()

    def feedback(self, effective, responders):
        super().feedback(effective, responders)
        self.check()


class TestFinishedWithoutRescan:
    """``finished`` reads the maximum ASC kept by every call instead of
    rescanning the population each slot; it must agree with the rescan."""

    def test_fresh_and_readable_rounds(self, make_population):
        pop = make_population(60)
        proto = RescanChecked()
        reader = Reader(QCDDetector(8))
        reader.run_inventory(pop.tags, proto)
        for tag in pop.tags[::3]:
            tag.identified = False
            tag.identified_at = None
        reader.run_inventory_continue(pop.tags, proto)
        assert proto.checks > 60

    def test_empty_population(self):
        proto = RescanChecked()
        proto.start([])
        proto.start([], fresh=False)
        assert proto.finished

    def test_withdrawing_the_highest_asc(self, make_population):
        """A stale maximum would widen the ASC range newcomers draw from."""
        pop = make_population(3)
        for tag, asc in zip(pop.tags, (0, 1, 5)):
            tag.counter = asc
        proto = RescanChecked()
        proto.start(pop.tags, fresh=False)
        proto.withdraw(pop.tags[2])
        assert proto._max_asc == 1

    def test_mobility(self):
        from repro.bits.rng import make_rng
        from repro.sim.engine import MobileInventoryEngine
        from repro.tags.mobility import poisson_arrivals
        from repro.tags.population import TagPopulation

        pop = TagPopulation(80, id_bits=16, rng=make_rng(5))
        schedule = poisson_arrivals(
            pop.tags[20:], rate=0.05, dwell_mean=200.0, rng=make_rng(6)
        )
        proto = RescanChecked()
        result = MobileInventoryEngine(Reader(QCDDetector(8))).run(
            proto, schedule, initial_tags=pop.tags[:20]
        )
        # Departures of unidentified tags exercise withdraw's recompute.
        assert result.escaped_ids
        assert len(result.identified_ids) + len(result.escaped_ids) == 80
