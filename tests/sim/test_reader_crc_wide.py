"""CRC-CD at the paper's layout on every Reader tier.

With 64-bit IDs and CRC-32 a tag's ``id ⊕ crc(id)`` is 96 bits, wider
than a machine word.  The packed tiers carry it as a Python int (the
frame-batched tier in an object arena), and they must stay
*observationally identical* to the frozen object Reader
(``benchmarks/_reference_reader.py``): the
same ``SlotRecord`` trace, identified and lost IDs, CRC counters
(``classify_calls``, ``crc_computations``, ``crc_ops_total``) and
``ChannelStats`` -- and, with :mod:`repro.obs` on, the same spans,
events and metrics registry.  The grid is 64- and 96-bit IDs with
CRC-32 × FSA/DFSA/BT/QT × the three misdetection policies, plus CRC-5
with 64-bit IDs, where a collision passes the check with probability
1/32 and the ``lost`` policy retires tags from an object arena.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.bits.crc import CRC5_EPC, CRC32_IEEE
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.timing import TimingModel
from repro.obs.tracing import RingBufferSink
from repro.protocols.bt import BinaryTree
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.fsa import FramedSlottedAloha
from repro.protocols.qt import QueryTree
from repro.sim.reader import POLICIES
from repro.tags.population import TagPopulation

#: Reader tiers (see ``tier_reader`` in tests/conftest.py): the object
#: Reader (the reference), the live per-slot loop, frame-batched.
TIERS = ("object", "packed", "batched")

#: (protocol factory, population size): FSA/DFSA frames and QT's prefix
#: queue batch, BT runs slot by slot.  BT's first slot holds all 40
#: tags, more than ``Channel.transmit_packed``'s small-slot int loop.
PROTOCOLS = {
    "fsa": (lambda: FramedSlottedAloha(32), 60),
    "dfsa": (lambda: DynamicFSA(initial_frame_size=16), 60),
    "bt": (BinaryTree, 40),
    "qt": (QueryTree, 40),
}

#: Wall-clock fields: differ run to run by construction.
_CLOCK_FIELDS = ("start", "end", "duration", "time")


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _normalise(records):
    """Drop timestamps and relabel span ids by first appearance."""
    ids: dict[int, int] = {}
    out = []
    for record in records:
        rec = {k: v for k, v in record.items() if k not in _CLOCK_FIELDS}
        for field in ("span_id", "parent_id"):
            if rec.get(field) is not None:
                rec[field] = ids.setdefault(rec[field], len(ids))
        out.append(rec)
    return out


def _run_tier(
    make_reader, protocol, id_bits, crc_spec, policy, n, seed, tier, traced
):
    """One inventory on one tier; returns everything the tiers must share."""
    factory, _ = PROTOCOLS[protocol]
    detector = CRCCDDetector(id_bits=id_bits, crc_spec=crc_spec)
    reader = make_reader(
        tier,
        detector,
        TimingModel(id_bits=id_bits, guard_id_phase=policy == "crc_guard"),
        policy=policy,
    )
    pop = TagPopulation(n, id_bits=id_bits, rng=make_rng(seed))
    sink = RingBufferSink(capacity=1_000_000)
    if traced:
        obs.reset()
        obs.enable(sink=sink)
    try:
        result = reader.run_inventory(pop.tags, factory())
    finally:
        obs.disable()
    registry = obs.STATE.registry.to_dict()
    registry.pop("repro_profile_seconds", None)
    return {
        "trace": result.trace,
        "identified": result.identified_ids,
        "lost": result.lost_ids,
        "stats": result.stats,
        "crc": (
            detector.classify_calls,
            detector.crc_computations,
            detector.crc_ops_total,
        ),
        "channel": reader.channel.stats,
        "records": _normalise(sink.records),
        "registry": registry,
        "arena": getattr(reader, "_arena", None),
    }


def _assert_tiers_agree(
    make_reader, protocol, id_bits, crc_spec, policy, seed, traced
):
    n = PROTOCOLS[protocol][1]
    runs = [
        _run_tier(
            make_reader, protocol, id_bits, crc_spec, policy, n, seed, tier,
            traced,
        )
        for tier in TIERS
    ]
    ref = runs[0]
    assert len(set(ref["identified"]) | set(ref["lost"])) == n
    for run in runs[1:]:
        for key in (
            "trace", "identified", "lost", "stats", "crc", "channel",
            "records", "registry",
        ):
            assert run[key] == ref[key], key
        if traced:
            assert list(run["registry"]) == list(ref["registry"])
    if protocol in ("fsa", "dfsa"):
        # The frame-batched tier really batched, in an object arena.
        assert runs[2]["arena"] is not None
        assert runs[2]["arena"].dtype == object
    return ref


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("id_bits", [64, 96])
def test_crc32_tiers_identical(tier_reader, protocol, id_bits, policy):
    ref = _assert_tiers_agree(
        tier_reader, protocol, id_bits, CRC32_IEEE, policy, seed=id_bits,
        traced=False,
    )
    assert ref["crc"][1] > 0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("id_bits", [64, 96])
def test_crc32_tiers_identical_under_obs(
    tier_reader, protocol, id_bits, policy
):
    ref = _assert_tiers_agree(
        tier_reader, protocol, id_bits, CRC32_IEEE, policy,
        seed=id_bits + 1, traced=True,
    )
    assert ref["records"]
    assert ref["registry"]


@pytest.mark.parametrize("traced", [False, True])
def test_crc5_lost_tags_on_object_arena(tier_reader, traced):
    """CRC-5 over a 64-bit ID is 69 bits, so the frame-batched tier runs
    in an object arena, and 1/32 of collisions pass the check: the
    ``lost`` policy's branch of ``_run_frame`` must retire exactly the
    tags the object Reader retires."""
    ref = _assert_tiers_agree(
        tier_reader, "fsa", 64, CRC5_EPC, "lost", seed=3, traced=traced
    )
    assert ref["lost"]
