"""``SlotTrace`` against the ``list[SlotRecord]`` it stands in for.

A Hypothesis differential appends random per-frame and per-slot rows
(captured, lost, false-collision and missed-collision rows, tag IDs above
2^64) to a :class:`SlotTrace` and to a plain list of the records the
Reader used to build, then reads both back every way a consumer does:
indexing, slicing, iteration, ``len``, ``==``, ``pickle``, ``deepcopy``,
:meth:`InventoryStats.from_trace` (against the multi-pass record oracle
of ``test_metrics.py``) and the obs slot counters (against the frozen
per-slot recorder in ``benchmarks/_reference_reader.py``).
"""

from __future__ import annotations

import copy
import gc
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bits.rng import make_rng
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.obs import instruments as inst
from repro.obs.tracing import RingBufferSink
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import stats_equal
from repro.sim.metrics import InventoryStats
from repro.sim.reader import Reader
from repro.sim.trace import SlotRecord, SlotTrace
from repro.tags.population import TagPopulation
from test_metrics import _DURATIONS, oracle_stats

TYPES = st.sampled_from(list(SlotType))
TAG_IDS = st.one_of(
    st.none(), st.integers(0, 1 << 16), st.integers(1 << 64, 1 << 96)
)


@st.composite
def slot_rows(draw):
    """One per-slot row (any field combination the columns must hold)."""
    return dict(
        frame=draw(st.integers(1, 300)),
        n_responders=draw(st.integers(0, 6)),
        true_type=draw(TYPES),
        detected_type=draw(TYPES),
        duration=draw(_DURATIONS),
        end_time=draw(_DURATIONS),
        identified_tag=draw(TAG_IDS),
        lost_tags=draw(st.integers(0, 6)),
        captured=draw(st.booleans()),
    )


@st.composite
def frame_blocks(draw):
    """One batched frame's columns (never captured), as lists or arrays."""
    n = draw(st.integers(1, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    columns = {
        "n_responders": column(st.integers(0, 6)),
        "true_type": column(st.integers(0, 2)),
        "detected_type": column(st.integers(0, 2)),
        "duration": column(_DURATIONS),
        "end_time": column(_DURATIONS),
        "lost_tags": column(st.integers(0, 6)),
    }
    if draw(st.booleans()):
        columns = {
            name: np.asarray(
                values,
                np.float64 if name in ("duration", "end_time") else np.intp,
            )
            for name, values in columns.items()
        }
    columns["identified_tag"] = draw(
        st.lists(TAG_IDS, min_size=n, max_size=n)
    )
    columns["frame"] = draw(st.integers(1, 300))
    return columns


BLOCKS = st.lists(
    st.one_of(slot_rows().map(lambda r: ("slot", r)),
              frame_blocks().map(lambda b: ("frame", b))),
    max_size=12,
)


def build(blocks) -> tuple[SlotTrace, list[SlotRecord]]:
    trace, records = SlotTrace(), []
    for kind, block in blocks:
        index = len(records)
        if kind == "slot":
            trace.append(index=index, **block)
            records.append(SlotRecord(index=index, **block))
            continue
        block = dict(block)
        tags = block.pop("identified_tag")
        rows = [i for i, tag in enumerate(tags) if tag is not None]
        trace.append_frame(
            index, **block, identified_rows=rows,
            identified_tags=[tags[i] for i in rows],
        )
        for i, tag in enumerate(tags):
            records.append(
                SlotRecord(
                    index=index + i,
                    frame=block["frame"],
                    n_responders=int(block["n_responders"][i]),
                    true_type=SlotType(int(block["true_type"][i])),
                    detected_type=SlotType(int(block["detected_type"][i])),
                    duration=float(block["duration"][i]),
                    end_time=float(block["end_time"][i]),
                    identified_tag=tag,
                    lost_tags=int(block["lost_tags"][i]),
                )
            )
    return trace, records


@settings(max_examples=200, deadline=None)
@given(blocks=BLOCKS, data=st.data())
def test_slot_trace_equals_record_list(blocks, data):
    trace, records = build(blocks)
    n = len(records)
    assert len(trace) == n
    assert list(trace) == records
    assert trace == records and records == trace
    assert not (trace != records)
    for i in range(-n, n):
        assert trace[i] == records[i]
    with pytest.raises(IndexError):
        trace[n]
    with pytest.raises(IndexError):
        trace[-n - 1]
    window = data.draw(st.slices(n + 2))
    assert trace[window] == records[window]
    if records:
        changed = records[:-1] + [
            SlotRecord(**{**records[-1].__dict__, "lost_tags": 99})
        ]
        assert trace != changed and changed != trace
        assert trace != records[:-1]
    assert SlotTrace.from_records(records) == trace
    assert pickle.loads(pickle.dumps(trace)) == trace
    assert copy.deepcopy(trace) == records
    assert all(
        type(r.captured) is bool and type(r.duration) is float for r in trace
    )

    stats = InventoryStats.from_trace(
        trace, n_tags=n, frames=3, id_bits=64, tau=1.0
    )
    assert stats_equal(
        stats,
        InventoryStats.from_trace(
            list(trace), n_tags=n, frames=3, id_bits=64, tau=1.0
        ),
    )
    assert repr(stats) == repr(oracle_stats(records, n, 3, 64, 1.0))
    assert stats.total_time == sum(r.duration for r in records)


def _recorded(record_all):
    obs.reset()
    sink = RingBufferSink(capacity=100_000)
    obs.enable(sink=sink)
    try:
        record_all()
    finally:
        obs.disable()
    events = [
        (r["name"], r["attrs"]) for r in sink.records if r["type"] == "event"
    ]
    return events, obs.STATE.registry.to_prometheus()


@settings(max_examples=100, deadline=None)
@given(blocks=BLOCKS, start=st.integers(0, 20))
def test_record_slots_matches_per_record(reference_reader, blocks, start):
    """The bulk counters from the columns equal the frozen per-slot
    recorder over the same rows: families, children, values and order."""
    trace, records = build(blocks)
    bulk = _recorded(lambda: inst.record_slots(trace, start))
    single = _recorded(
        lambda: [reference_reader.record_slot(r) for r in records[start:]]
    )
    assert bulk == single
    obs.reset()


def test_memory_per_slot():
    """A 500-tag FSA QCD-8 result keeps its trace as columns: < 200 B a
    slot under ``tracemalloc`` (one ``SlotRecord`` per slot kept ~410 B)."""

    def run(seed):
        pop = TagPopulation(500, id_bits=64, rng=make_rng(seed))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = Reader(QCDDetector(8), TimingModel()).run_inventory(
                pop.tags, FramedSlottedAloha(300)
            )
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return result, kept / len(result.trace)

    run(1)  # fills the process-wide caches outside the measurement
    result, per_slot = run(2010)
    assert len(result.identified_ids) == 500
    assert len(result.trace) > 1000
    assert per_slot < 200, f"{per_slot:.0f} B per slot"
