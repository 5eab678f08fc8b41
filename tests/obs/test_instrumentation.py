"""Integration: the instrumented simulation stack vs trace ground truth.

The contract under test (see ``docs/OBSERVABILITY.md``): for any seeded
run, the registry's ``repro_slots_total`` grouped by either label equals
:func:`repro.sim.metrics.slot_counts` over the same run's trace -- for
the exact reader, the mobile engine, and the vectorized kernels alike --
and disabled mode touches the registry not at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.obs import instruments as inst
from repro.protocols.bt import BinaryTree
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import bt_fast_batch, dfsa_fast_batch, fsa_fast_batch
from repro.sim.metrics import slot_counts
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation


def counts_as_dict(counts):
    return {
        "IDLE": counts.idle,
        "SINGLE": counts.single,
        "COLLIDED": counts.collided,
    }


def observed(by):
    return {
        k: int(v) for k, v in obs.slot_totals(by=by).items() if v
    }


def drop_zeros(d):
    return {k: v for k, v in d.items() if v}


class TestExactReader:
    def run_small(self, seed=7, policy="paper", detector=None):
        pop = TagPopulation(60, id_bits=64, rng=make_rng(seed))
        reader = Reader(detector or QCDDetector(8), policy=policy)
        return reader.run_inventory(pop.tags, FramedSlottedAloha(32))

    def test_slot_counters_match_trace(self):
        sink = obs.RingBufferSink()
        obs.enable(sink=sink)
        result = self.run_small()
        obs.disable()
        assert observed("true_type") == drop_zeros(
            counts_as_dict(slot_counts(result.trace))
        )
        assert observed("detected_type") == drop_zeros(
            counts_as_dict(slot_counts(result.trace, detected=True))
        )

    def test_identified_and_inventory_counters(self):
        obs.enable()
        result = self.run_small()
        obs.disable()
        reg = obs.STATE.registry
        assert reg.get(inst.IDENTIFIED).value == len(result.identified_ids)
        assert reg.get(inst.INVENTORIES).labels(engine="reader").value == 1
        assert (
            reg.get(inst.FRAMES).labels(engine="reader").value
            == result.stats.frames
        )

    def test_lost_policy_counters(self):
        obs.enable()
        result = self.run_small(policy="lost", detector=QCDDetector(2))
        obs.disable()
        reg = obs.STATE.registry
        assert result.stats.lost_tags > 0  # seed chosen to lose tags
        assert reg.get(inst.LOST).value == result.stats.lost_tags
        missed = reg.get(inst.MISDETECTIONS).labels(kind="missed_collision")
        assert missed.value == result.stats.missed_collisions

    def test_span_tree_inventory_frame_slot(self):
        sink = obs.RingBufferSink(capacity=100_000)
        obs.enable(sink=sink)
        result = self.run_small()
        obs.disable()
        (inventory,) = sink.spans("inventory")
        frames = sink.spans("frame")
        slots = sink.events("slot")
        assert len(frames) == result.stats.frames
        assert all(f["parent_id"] == inventory["span_id"] for f in frames)
        frame_ids = {f["span_id"] for f in frames}
        assert len(slots) == len(result.trace)
        assert all(e["span_id"] in frame_ids for e in slots)
        assert inventory["attrs"]["slots"] == len(result.trace)

    def test_profile_histogram_recorded(self):
        obs.enable()
        self.run_small()
        obs.disable()
        fam = obs.STATE.registry.get(obs.PROFILE_METRIC)
        assert fam.labels(section="reader.run_inventory").count == 1

    def test_disabled_mode_leaves_registry_empty(self):
        self.run_small()
        assert obs.STATE.registry.to_dict() == {}


class TestKernels:
    @pytest.mark.parametrize("scheme", ["fsa", "bt", "dfsa"])
    def test_kernel_counters_match_stats(self, scheme):
        rngs = [np.random.default_rng(11)]
        timing = TimingModel()
        obs.enable()
        if scheme == "fsa":
            result = fsa_fast_batch(500, 300, QCDDetector(4), timing, rngs)
            engine = "fast_fsa"
        elif scheme == "bt":
            result = bt_fast_batch(500, QCDDetector(4), timing, rngs)
            engine = "fast_bt"
        else:
            from repro.protocols.estimators import LowerBoundEstimator

            result = dfsa_fast_batch(
                500, 64, LowerBoundEstimator(), QCDDetector(4), timing, rngs
            )
            engine = "fast_dfsa"
        (stats,) = result.runs
        obs.disable()
        assert observed("true_type") == drop_zeros(
            counts_as_dict(stats.true_counts)
        )
        assert observed("detected_type") == drop_zeros(
            counts_as_dict(stats.detected_counts)
        )
        reg = obs.STATE.registry
        assert reg.get(inst.IDENTIFIED).value == stats.true_counts.single
        assert reg.get(inst.INVENTORIES).labels(engine=engine).value == 1
        fam = reg.get(obs.PROFILE_METRIC)
        assert fam.labels(section=f"batch.{scheme}_fast_batch").count == 1


class TestDrivers:
    def test_monitoring_counters(self):
        from repro.sim.monitoring import ContinuousMonitor

        pop = TagPopulation(30, id_bits=32, rng=make_rng(4))
        monitor = ContinuousMonitor(
            Reader(QCDDetector(8)),
            FramedSlottedAloha(16),
            rng=make_rng(3),
            id_bits=32,
        )
        obs.enable()
        monitor.run(pop.tags, rounds=3, churn=2)
        obs.disable()
        reg = obs.STATE.registry
        assert reg.get(inst.MONITOR_ROUNDS).value == 3
        churn = reg.get(inst.MONITOR_CHURN)
        assert churn.labels(kind="arrival").value == 4
        assert churn.labels(kind="departure").value == 4
        assert reg.get(inst.MONITOR_PRESENT).value == 30

    def test_mobile_engine_counters(self):
        from repro.sim.engine import MobileInventoryEngine
        from repro.tags.mobility import MobilitySchedule
        from repro.tags.tag import Tag

        from repro.tags.mobility import MobilityEvent

        stream = make_rng(9)
        tags = [
            Tag(tag_id=i, id_bits=32, rng=stream.child()) for i in range(12)
        ]
        schedule = MobilitySchedule(
            MobilityEvent(time=float(i), seq=i, kind="arrive", tag=t)
            for i, t in enumerate(tags)
        )
        engine = MobileInventoryEngine(Reader(QCDDetector(8)))
        obs.enable()
        result = engine.run(FramedSlottedAloha(8), schedule)
        obs.disable()
        reg = obs.STATE.registry
        arrive = reg.get(inst.MOBILITY_EVENTS).labels(kind="arrive")
        assert arrive.value == len(tags)
        assert observed("true_type") == drop_zeros(
            counts_as_dict(slot_counts(result.trace))
        )
        assert reg.get(inst.INVENTORIES).labels(engine="mobile").value == 1

    def test_multireader_counters(self):
        from repro.sim.deployment import Deployment
        from repro.sim.multireader import run_multireader_inventory

        deployment = Deployment.table5(
            100, make_rng(12), n_readers=9, reader_range=15.0
        )
        timing = TimingModel(id_bits=96)  # deployment tags carry EPCs
        obs.enable()
        run_multireader_inventory(
            deployment,
            lambda rid: Reader(QCDDetector(8), timing),
            lambda rid: FramedSlottedAloha(16),
        )
        obs.disable()
        reg = obs.STATE.registry
        assert reg.get(inst.SWEEPS).value == 1
        assert reg.get(inst.INVENTORIES).labels(engine="reader").value >= 1

    def test_runner_grid_counters(self):
        from repro.experiments.runner import ExperimentSuite

        suite = ExperimentSuite(rounds=2, seed=1)
        obs.enable()
        suite.run("I", "fsa", "qcd-8")
        suite.run("I", "bt", "crc")
        suite.run("I", "fsa", "qcd-8")  # cached: no second increment
        obs.disable()
        reg = obs.STATE.registry
        grid = reg.get(inst.GRID_POINTS)
        assert (
            grid.labels(case="I", protocol="fsa", scheme="qcd-8").value == 1
        )
        assert grid.labels(case="I", protocol="bt", scheme="crc").value == 1
        assert reg.get(inst.MC_ROUNDS).value == 4
