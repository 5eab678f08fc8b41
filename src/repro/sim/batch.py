"""Monte-Carlo inventory kernels, all rounds of a grid point per call.

The exact object-level reader (:mod:`repro.sim.reader`) composes real bit
signals per slot -- ideal for correctness, too slow for the paper's case IV
(50 000 tags, ~250 000 slots, 100 Monte-Carlo rounds).  This module
re-implements the protocol × detector processes the evaluation sweeps as
numpy kernels.  One grid point is ``rounds`` independent inventories, each
drawing from its own ``SeedSequence`` child (or ready generator); a single
inventory is a batch of one stream, and because every round owns its
generator the per-round stats do not depend on how the streams are
grouped into calls:

* :func:`fsa_fast_batch` / :func:`dfsa_fast_batch` -- frame-synchronous
  frontier over the live rounds.  Each frame step draws every live round's
  slot choices, evaluates the detector's miss probabilities *once* for all
  collisions of the step, and advances each round with sparse per-frame
  expressions: only the occupied slots (at most ``min(backlog,
  frame_size)`` of them) are touched, and frame airtime comes from
  occupancy-class counts.  Identification delays are computed once per
  round, in one flat pass over its frames, from each single's slot index
  and the counts of occupied slots, singles and missed collisions before
  it.
* :func:`bt_fast_batch` -- binary-tree splitting as a *level-synchronous*
  frontier walk (:func:`_bt_walk`): every tree level draws one ``random``
  vector (misdetection uniforms) and one raw 64-bit block whose popcounts
  are the Binomial(m, 1/2) splits, for all collided groups of the level,
  and keeps the indices of its collided nodes; the depth-first slot order
  the exact reader executes is then reconstructed from subtree sizes
  (:func:`_bt_finalize`).  Rounds are walked one at a time to bound
  memory.

Miss probabilities of the closed-form detectors (QCD, CRC-CD, Ideal) are
gathered from small read-only tables memoized per detector parameters
(:func:`_miss_table`); other detector classes call ``miss_probability``.

The kernels simulate the *identical* stochastic process as the exact
reader (slot choices / split draws are the only randomness; detector
misses are drawn from their exact probabilities) and return the same
:class:`~repro.sim.metrics.InventoryStats`; ``tests/sim/test_fast.py`` and
the kernel-vs-reader verify oracles cross-validate them distributionally.
The FSA/DFSA kernels consume each stream exactly like the pre-batching
per-round kernels frozen in ``benchmarks/_reference_kernels.py``, and
``tests/sim/test_batch.py`` asserts field-by-field identity against them;
``tests/sim/test_batch_reference.py`` holds all three kernels, delay
statistics included, to an earlier copy of this module
(``benchmarks/_reference_batch.py``).  That identity holds whenever every
slot duration is an integer multiple of the float granule (the paper's
timing: ``tau = 1`` and integer bit counts), because then every partial
sum is exact in float64 whatever the order of summation; with exotic
non-integer timing the results agree to normal float rounding instead.

Kernels implement the ``"paper"`` misdetection policy only (misses are
counted and charged single-slot airtime; the process follows ground
truth).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import CollisionDetector, SlotType
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.obs.instruments import record_kernel_stats
from repro.obs.profiling import profiled
from repro.obs.state import STATE as _OBS
from repro.sim.metrics import DelayStats, InventoryStats, SlotCounts

__all__ = [
    "BatchResult",
    "fsa_fast_batch",
    "dfsa_fast_batch",
    "bt_fast_batch",
    "stats_equal",
]


def _duration_lut(
    detector: CollisionDetector, timing: TimingModel
) -> np.ndarray:
    """Slot durations indexed by outcome code.

    Codes 0/1/2 are the :class:`~repro.core.detector.SlotType` values
    (idle / single / collided); code 3 is a *missed* collision, which runs
    the ID phase and is charged single-slot airtime.
    """
    dur_idle, dur_single, dur_coll = (
        timing.slot_duration(detector, kind)
        for kind in (SlotType.IDLE, SlotType.SINGLE, SlotType.COLLIDED)
    )
    return np.array(
        [dur_idle, dur_single, dur_coll, dur_single], dtype=np.float64
    )


def _miss_key(detector: CollisionDetector) -> tuple | None:
    """What a closed-form detector's miss probabilities depend on, or None
    for a detector class without a closed form here."""
    if isinstance(detector, QCDDetector):
        return ("qcd", detector.strength)
    if isinstance(detector, CRCCDDetector):
        return ("crc", detector.crc_bits)
    if isinstance(detector, IdealDetector):
        return ("ideal",)
    return None


def _closed_form(key: tuple):
    """Vectorized miss probabilities of the detector :func:`_miss_key`
    described, as a closure over plain floats."""
    if key[0] == "qcd":
        base = float((1 << key[1]) - 1)
        return lambda m: base ** (-(m.astype(np.float64) - 1.0))
    if key[0] == "crc":
        const = 2.0 ** (-key[1])
        return lambda m: np.full(m.shape, const)
    return lambda m: np.zeros(m.shape)


def _miss_prob_fn(detector: CollisionDetector):
    """Vectorized P(collision of size m read as single), hoisted.

    Resolves the detector's type once per call and returns a closure, so
    the per-frame hot loop runs no ``isinstance`` chain and no attribute
    lookups.  Unknown detector classes call their ``miss_probability``
    once per collision.
    """
    key = _miss_key(detector)
    if key is None:
        return lambda m: np.array(
            [detector.miss_probability(int(x)) for x in m]
        )
    return _closed_form(key)


@functools.lru_cache(maxsize=64)
def _miss_table(key: tuple) -> np.ndarray:
    """Read-only miss probabilities by collision size, cut short.

    Built with the closure :func:`_miss_prob_fn` returns, so
    ``table[min(m, table.size - 1)] == miss_fn(m)`` bit for bit.  QCD's
    ``base ** -(m - 1)`` does not increase with m, so its table ends at
    the first exact 0.0 (681 entries at strength 2, 137 at strength 8)
    and every larger size reads that zero.  QCD-1 (``base == 1``),
    CRC-CD and Ideal are constant: a one-entry table.
    """
    fn = _closed_form(key)
    if key[0] == "qcd" and key[1] > 1:
        # base >= 3 and 3.0 ** -2047 underflows, so a zero lies below 2048.
        table = fn(np.arange(2048, dtype=np.int64))
        table = table[: np.flatnonzero(table == 0.0)[0] + 1].copy()
    else:
        table = fn(np.zeros(1, dtype=np.int64))
    table.flags.writeable = False
    return table


def _miss_eval(detector: CollisionDetector):
    """Miss-probability evaluator for collision sizes ``m >= 0``.

    A gather from the memoized :func:`_miss_table` when the detector has
    one, otherwise the vectorized closure -- bit-identical either way.
    """
    key = _miss_key(detector)
    if key is None:
        return _miss_prob_fn(detector)
    table = _miss_table(key)
    # ``clip`` reads every size past the table's end as its last entry.
    return lambda m: table.take(m, mode="clip")


@dataclass(frozen=True)
class BatchResult:
    """All rounds of one batched grid point, in round order."""

    runs: tuple[InventoryStats, ...]

    def aggregate(self):
        """Round-averaged stats (``AggregateStats.from_runs``)."""
        # Imported lazily: experiments.parallel imports this module.
        from repro.experiments.runner import AggregateStats

        return AggregateStats.from_runs(list(self.runs))


def _generators(streams: Sequence) -> list[np.random.Generator]:
    """One PCG64 generator per round, built from the spawned children
    (already-built generators pass through, so a caller holding one
    generator runs a single inventory as ``[rng]``)."""
    return [
        s
        if isinstance(s, np.random.Generator)
        else np.random.Generator(np.random.PCG64(s))
        for s in streams
    ]


def _tree_equal(x, y) -> bool:
    if isinstance(x, dict):
        return (
            isinstance(y, dict)
            and x.keys() == y.keys()
            and all(_tree_equal(x[k], y[k]) for k in x)
        )
    if isinstance(x, float) and isinstance(y, float):
        return x == y or (math.isnan(x) and math.isnan(y))
    return x == y


def stats_equal(a: InventoryStats, b: InventoryStats) -> bool:
    """Field-by-field equality, treating NaN == NaN (empty delay stats)."""
    return _tree_equal(asdict(a), asdict(b))


def _frame_occupancy(
    rng: np.random.Generator, backlog: int, frame_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Occupied slot indices and their multiplicities, in slot order.

    Consumes exactly one frame's slot choices
    (``rng.integers(0, frame_size, backlog)``).  Dense frames extract the
    occupancy from a bincount; sparse ones (backlog far below the frame
    size) sort the draws instead, avoiding the O(frame_size) scan.
    """
    draws = rng.integers(0, frame_size, backlog)
    if 2 * backlog >= frame_size:
        # Dense frame: bincount's O(frame_size) scan beats sorting
        # (measured crossover near backlog ~ frame_size / 2).
        occ = np.bincount(draws)
        slots = np.flatnonzero(occ)
        return slots, occ[slots]
    ds = np.sort(draws)
    first = np.empty(ds.size, dtype=bool)
    first[0] = True
    np.not_equal(ds[1:], ds[:-1], out=first[1:])
    slots = ds[first]
    starts = np.flatnonzero(first)
    counts = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = ds.size - starts[-1]
    return slots, counts


class _AlohaRound:
    """Mutable per-round accumulator of the frame-synchronous engine."""

    __slots__ = (
        "rng",
        "remaining",
        "frame_size",
        "frames",
        "t",
        "n0",
        "n1",
        "nc",
        "missed",
        "fdata",
    )

    def __init__(self, rng, n_tags: int, frame_size: int) -> None:
        self.rng = rng
        self.remaining = n_tags
        self.frame_size = frame_size
        self.frames = 0
        self.t = 0.0
        self.n0 = self.n1 = self.nc = 0
        self.missed = 0
        # Per frame with >= 1 single: (t_start, slots, coll, miss, f1); the
        # identification delays are reconstructed in one flat pass at
        # finalize time instead of per frame.
        self.fdata: list[tuple] = []


def _aloha_batch(
    n_tags: int,
    frame_size: int,
    detector: CollisionDetector,
    timing: TimingModel,
    rngs: list[np.random.Generator],
    collect_delays: bool,
    confirm_frame: bool,
    estimator=None,
    min_frame_size: int = 1,
    max_frame_size: int = 1 << 15,
    max_frames: int = 100_000,
) -> tuple[InventoryStats, ...]:
    """The shared FSA/DFSA frame-synchronous batch engine.

    ``estimator is None`` runs fixed-frame FSA (with the optional
    confirmation frame); otherwise each round resizes its next frame from
    its own observation, like :class:`~repro.protocols.dfsa.DynamicFSA`.
    A round still unfinished after ``max_frames`` frames raises
    ``RuntimeError`` (a one-slot FSA frame never resolves two tags).
    """
    if estimator is None:
        kernel, engine = "fsa_fast_batch", "fast_fsa"
    else:
        kernel, engine = "dfsa_fast_batch", "fast_dfsa"
    lut = _duration_lut(detector, timing)
    d0, d1, dc = float(lut[0]), float(lut[1]), float(lut[2])
    miss_fn = _miss_eval(detector)
    obs_on = _OBS.enabled
    if estimator is not None:
        from repro.protocols.estimators import FrameObservation
    rounds = [_AlohaRound(rng, n_tags, frame_size) for rng in rngs]
    runs: list[InventoryStats | None] = [None] * len(rounds)

    def finalize(idx: int, st: _AlohaRound) -> None:
        if confirm_frame:
            # The knowledge-free reader issues one final frame and reads
            # it all-idle before concluding the inventory is complete.
            st.frames += 1
            st.n0 += st.frame_size
            st.t += st.frame_size * d0
        if st.fdata:
            # One flat pass over every recorded frame.  A single at slot
            # index s of its frame, occupied index j, is the frame's k-th
            # single with M missed collisions before it, so it ends at
            #   t_start + s*d0 + j*(dc - d0) + (k + M)*(d1 - dc) + d1:
            # s - j idle slots, j - k - M collisions and k + M slots
            # charged single-slot airtime, then its own.  Over the
            # concatenated frames j and k + M are global counts less the
            # frame's start, folded into one offset per frame.  With
            # integer-valued durations every term is an exact float64
            # integer, so the sum is bit-identical in any order.
            fd = st.fdata
            coll_all = np.concatenate([f[2] for f in fd])
            g = np.flatnonzero(~coll_all)  # global j of every single
            sizes = np.array([f[1].size for f in fd], dtype=np.int64)
            f1s = np.array([f[4] for f in fd], dtype=np.int64)
            j0 = np.cumsum(sizes) - sizes
            km0 = np.cumsum(f1s) - f1s
            km = np.arange(g.size, dtype=np.int64)  # global k (+ M)
            if st.missed:
                missed_g = np.flatnonzero(coll_all)[
                    np.concatenate([f[3] for f in fd])
                ]
                km0 += np.searchsorted(missed_g, j0)
                # The global M steps up by one after each missed slot.
                cut = np.empty(missed_g.size + 2, dtype=np.int64)
                cut[0], cut[-1] = 0, g.size
                cut[1:-1] = np.searchsorted(g, missed_g)
                km += np.repeat(np.arange(cut.size - 1), np.diff(cut))
            t_starts = np.array([f[0] for f in fd], dtype=np.float64)
            off = t_starts + d1 - j0 * (dc - d0) - km0 * (d1 - dc)
            all_delays = np.repeat(off, f1s)
            all_delays += np.concatenate([f[1] for f in fd])[g] * d0
            all_delays += g * (dc - d0)
            all_delays += km * (d1 - dc)
            st.fdata = []
        else:
            all_delays = np.empty(0, dtype=np.float64)
        stats = InventoryStats(
            n_tags=n_tags,
            frames=st.frames,
            true_counts=SlotCounts(st.n0, st.n1, st.nc),
            detected_counts=SlotCounts(
                st.n0, st.n1 + st.missed, st.nc - st.missed
            ),
            total_time=st.t,
            accuracy=1.0 if st.nc == 0 else (st.nc - st.missed) / st.nc,
            # Frames are appended in time order and each frame's singles
            # are in slot order, so the concatenated delays are already
            # ascending.
            delay=DelayStats.from_array(all_delays, assume_sorted=True),
            utilization=(
                (st.n1 * timing.id_bits * timing.tau / st.t) if st.t else 0.0
            ),
            missed_collisions=st.missed,
            false_collisions=0,
            lost_tags=0,
        )
        if obs_on:
            record_kernel_stats(engine, stats)
        runs[idx] = stats

    live = []
    for idx, st in enumerate(rounds):
        if st.remaining > 0:
            live.append(idx)
        else:
            finalize(idx, st)
    while live:
        # Phase 1: every live round draws its frame and extracts the
        # occupied slots; misdetection uniforms are drawn per round (each
        # round's own draw order) but compared in one flat detector pass.
        step: list[tuple] = []
        m_parts: list[np.ndarray] = []
        u_parts: list[np.ndarray] = []
        for idx in live:
            st = rounds[idx]
            if st.frames >= max_frames:
                raise RuntimeError(
                    f"{kernel} exceeded max_frames={max_frames}"
                )
            st.frames += 1
            slots, counts = _frame_occupancy(
                st.rng, st.remaining, st.frame_size
            )
            coll = counts >= 2
            m = counts[coll]
            if m.size:
                m_parts.append(m)
                u_parts.append(st.rng.random(m.size))
            step.append((idx, slots, coll, m))
        # Phase 2: one miss-probability evaluation for the whole step.
        if m_parts:
            miss_all = np.concatenate(u_parts) < miss_fn(
                np.concatenate(m_parts)
            )
        else:
            miss_all = np.empty(0, dtype=bool)
        # Phase 3: sparse per-round accounting.
        offset = 0
        nxt: list[int] = []
        for idx, slots, coll, m in step:
            st = rounds[idx]
            fc = m.size
            miss = miss_all[offset : offset + fc]
            offset += fc
            n_occ = slots.size
            f1 = n_occ - fc
            f0 = st.frame_size - n_occ
            fm = int(miss.sum()) if fc else 0
            if collect_delays and f1 > 0:
                st.fdata.append((st.t, slots, coll, miss, f1))
            st.t += f0 * d0 + (f1 + fm) * d1 + (fc - fm) * dc
            st.n0 += f0
            st.n1 += f1
            st.nc += fc
            st.missed += fm
            st.remaining = int(m.sum())
            if st.remaining > 0:
                if estimator is not None:
                    backlog = estimator.backlog(
                        FrameObservation(
                            frame_size=st.frame_size,
                            idle=f0,
                            single=f1,
                            collided=fc,
                        )
                    )
                    st.frame_size = max(
                        min_frame_size, min(max_frame_size, max(1, backlog))
                    )
                nxt.append(idx)
            else:
                finalize(idx, st)
        live = nxt
    return tuple(runs)  # type: ignore[arg-type]


@profiled("batch.fsa_fast_batch")
def fsa_fast_batch(
    n_tags: int,
    frame_size: int,
    detector: CollisionDetector,
    timing: TimingModel,
    streams: Sequence,
    collect_delays: bool = True,
    confirm_frame: bool = True,
) -> BatchResult:
    """All rounds of a fixed-frame FSA grid point as one batched program.

    Matches :class:`repro.protocols.fsa.FramedSlottedAloha` under the exact
    reader with the default ``"confirm"`` termination: constant frame size,
    collided tags re-contend next frame, every frame runs to completion,
    and the inventory ends with one all-idle confirmation frame (the reader
    cannot observe an empty backlog -- the paper's Table VII accounting).
    Pass ``confirm_frame=False`` for the known-n ``"frame"`` termination.

    ``streams`` is the round-ordered sequence of ``SeedSequence`` children
    (or ready generators); ``runs[i]`` depends on ``streams[i]`` alone.
    """
    if n_tags < 0 or frame_size < 1:
        raise ValueError("need n_tags >= 0 and frame_size >= 1")
    return BatchResult(
        runs=_aloha_batch(
            n_tags,
            frame_size,
            detector,
            timing,
            _generators(streams),
            collect_delays,
            confirm_frame,
        )
    )


@profiled("batch.dfsa_fast_batch")
def dfsa_fast_batch(
    n_tags: int,
    initial_frame_size: int,
    estimator,
    detector: CollisionDetector,
    timing: TimingModel,
    streams: Sequence,
    min_frame_size: int = 1,
    max_frame_size: int = 1 << 15,
    collect_delays: bool = True,
    max_frames: int = 100_000,
) -> BatchResult:
    """All rounds of a dynamic-FSA grid point as one batched program.

    Matches :class:`repro.protocols.dfsa.DynamicFSA` under the exact
    reader: after each (complete) frame, the pluggable estimator sizes the
    next frame from the observed (N0, N1, Nc); the inventory ends with the
    frame in which the backlog empties.

    The estimator instance is shared across rounds, which is safe for the
    built-in estimators (pure functions of one ``FrameObservation``); a
    *stateful* estimator would leak state between interleaved rounds, so
    run it one stream per call.
    """
    if n_tags < 0 or initial_frame_size < 1:
        raise ValueError("need n_tags >= 0 and initial_frame_size >= 1")
    if not 1 <= min_frame_size <= max_frame_size:
        raise ValueError("need 1 <= min_frame_size <= max_frame_size")
    return BatchResult(
        runs=_aloha_batch(
            n_tags,
            initial_frame_size,
            detector,
            timing,
            _generators(streams),
            collect_delays,
            confirm_frame=False,
            estimator=estimator,
            min_frame_size=min_frame_size,
            max_frame_size=max_frame_size,
            max_frames=max_frames,
        )
    )


_U64_MAX = np.iinfo(np.uint64).max
_U64_ONES = ~np.uint64(0)


def _split_lefts(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binomial(m, 1/2) split sizes for one tree level, via popcount.

    Each tag flips a fair coin, so the left-subset size of a group of m
    tags is the popcount of m random bits.  Groups draw whole 64-bit words
    (``ceil(m/64)`` each, one ``integers`` call per level) and the unused
    high bits of each group's last word are masked off -- an order of
    magnitude cheaper than ``Generator.binomial``, whose per-element
    rejection loop dominated the walk at case-IV populations.
    """
    if np.max(m) <= 64:
        # Common case away from the root: one word per group.
        raw = rng.integers(0, _U64_MAX, m.size, dtype=np.uint64, endpoint=True)
        masks = _U64_ONES >> (64 - m).astype(np.uint64)
        return np.bitwise_count(raw & masks).astype(np.int64)
    words_per = (m + 63) >> 6
    ends = np.cumsum(words_per)
    raw = rng.integers(
        0, _U64_MAX, int(ends[-1]), dtype=np.uint64, endpoint=True
    )
    popc = np.bitwise_count(raw).astype(np.int64)
    # Mask the partial last word of every group before counting its bits.
    tail_bits = ((m - 1) & 63) + 1
    last = ends - 1
    tail = raw[last] & (_U64_ONES >> (64 - tail_bits).astype(np.uint64))
    popc[last] = np.bitwise_count(tail)
    starts = ends - words_per
    return np.add.reduceat(popc, starts)


def _bt_walk(n_tags: int, rng: np.random.Generator) -> list[tuple]:
    """Level-synchronous draws for one binary-tree inventory.

    Returns one ``(sizes, cidx, u, m)`` tuple per tree level, in level
    order; within a level nodes are ordered by their parents' order, left
    child first, ``cidx`` indexes the level's collided nodes and
    ``m = sizes[cidx]`` are their group sizes, whose children form the
    next level in pairs.  Each level makes exactly two RNG calls --
    ``random(k)`` (misdetection uniforms) then one raw 64-bit ``integers``
    block whose popcounts are the Binomial(m, 1/2) splits
    (:func:`_split_lefts`).
    """
    levels: list[tuple] = []
    frontier = (
        np.array([n_tags], dtype=np.int64)
        if n_tags
        else np.empty(0, dtype=np.int64)
    )
    while frontier.size:
        cidx = np.flatnonzero(frontier >= 2)
        m = frontier[cidx]
        if m.size == 0:
            levels.append((frontier, cidx, np.empty(0), m))
            break
        u = rng.random(m.size)
        lefts = _split_lefts(m, rng)
        levels.append((frontier, cidx, u, m))
        frontier = np.empty(2 * m.size, dtype=np.int64)
        frontier[0::2] = lefts
        np.subtract(m, lefts, out=frontier[1::2])
    return levels


def _bt_finalize(
    levels: list[tuple],
    miss_fn,
    lut: np.ndarray,
    collect_delays: bool,
) -> tuple[int, int, int, int, float, np.ndarray]:
    """Classify, time and order the slots of one level-synchronous walk.

    The exact reader visits the tree depth-first (drew-0 subset first);
    the walk produced nodes level by level.  Pre-order slot positions are
    reconstructed in two passes: subtree slot counts bottom-up, then each
    collided node at position p places its left child at p+1 and its right
    child at p+1+|left subtree|.  Slot codes scattered into that order and
    cumulative-summed as durations reproduce the reader's running clock
    bit for bit.

    Returns ``(n0, n1, nc, missed, total_time, delays)`` with ``delays``
    in slot order (ascending identification time).
    """
    if not levels:
        return 0, 0, 0, 0, 0.0, np.empty(0, dtype=np.float64)
    sizes_flat = np.concatenate([lv[0] for lv in levels])
    total = sizes_flat.size
    mvals = np.concatenate([lv[3] for lv in levels])
    miss = np.concatenate([lv[2] for lv in levels]) < miss_fn(mvals)
    nc = mvals.size
    n0 = total - int(np.count_nonzero(sizes_flat))
    n1 = total - n0 - nc
    n_miss = int(np.count_nonzero(miss))
    if not collect_delays:
        # Slot order affects neither the counts nor the (integer-valued)
        # total airtime, so skip the position reconstruction entirely.
        t = n0 * lut[0] + (n1 + n_miss) * lut[1] + (nc - n_miss) * lut[2]
        return n0, n1, nc, n_miss, float(t), np.empty(0, dtype=np.float64)
    # Subtree slot counts, bottom-up: leaves occupy one slot, a collided
    # node one plus its two children's (adjacent on the next level).
    n_levels = len(levels)
    subtree: list[np.ndarray] = [None] * n_levels  # type: ignore[list-item]
    subtree[-1] = np.ones(levels[-1][0].size, dtype=np.int64)
    for d in range(n_levels - 2, -1, -1):
        child = subtree[d + 1]
        pair = child[0::2] + child[1::2]
        pair += 1
        s = np.ones(levels[d][0].size, dtype=np.int64)
        s[levels[d][1]] = pair
        subtree[d] = s
    # Pre-order positions, top-down.
    pos = [np.zeros(1, dtype=np.int64)]
    coll_pos: list[np.ndarray] = []
    for d in range(n_levels - 1):
        cpos = pos[d][levels[d][1]]
        coll_pos.append(cpos)
        nxt = np.empty(2 * cpos.size, dtype=np.int64)
        left = nxt[0::2]
        np.add(cpos, 1, out=left)
        np.add(left, subtree[d + 1][0::2], out=nxt[1::2])
        pos.append(nxt)
    # Slot codes (0 idle, 1 single, 2 collided) scattered into slot order.
    code_seq = np.empty(total, dtype=np.uint8)
    code_seq[np.concatenate(pos)] = np.minimum(sizes_flat, 2)
    if n_miss:
        # 2 -> 3 marks a missed collision (single-slot airtime); the
        # collided positions are in ``mvals`` order, like ``miss``.
        code_seq[np.concatenate(coll_pos)[miss]] = 3
    # The single-slot positions come out pre-sorted via flatnonzero
    # instead of an O(n log n) sort.
    end = np.cumsum(lut[code_seq])
    delays = end[np.flatnonzero(code_seq == 1)]
    return n0, n1, nc, n_miss, float(end[-1]), delays


@profiled("batch.bt_fast_batch")
def bt_fast_batch(
    n_tags: int,
    detector: CollisionDetector,
    timing: TimingModel,
    streams: Sequence,
    collect_delays: bool = True,
) -> BatchResult:
    """All rounds of a binary-tree grid point, batched.

    Matches :class:`repro.protocols.bt.BinaryTree` under the exact reader:
    the counter automaton is exactly a depth-first traversal where each
    collided group of size m splits into (Binomial(m, 1/2), rest), the
    drew-0 subset going first.  Each round runs the level-synchronous
    walk (:func:`_bt_walk`, two vectorized RNG calls per tree level) and
    reconstructs the depth-first slot order afterwards
    (:func:`_bt_finalize`).  The detector dispatch and duration LUT are
    hoisted across the whole batch; rounds are walked one at a time to
    keep peak memory at one tree (~2.885·n slots) instead of R trees.
    """
    if n_tags < 0:
        raise ValueError("n_tags must be >= 0")
    lut = _duration_lut(detector, timing)
    miss_fn = _miss_eval(detector)
    obs_on = _OBS.enabled
    runs = []
    for rng in _generators(streams):
        levels = _bt_walk(n_tags, rng)
        n0, n1, nc, missed, t, delays = _bt_finalize(
            levels, miss_fn, lut, collect_delays
        )
        stats = InventoryStats(
            n_tags=n_tags,
            frames=1,  # tree protocols run one continuous logical frame
            true_counts=SlotCounts(n0, n1, nc),
            detected_counts=SlotCounts(n0, n1 + missed, nc - missed),
            total_time=t,
            accuracy=1.0 if nc == 0 else (nc - missed) / nc,
            utilization=(
                (n1 * timing.id_bits * timing.tau / t) if t else 0.0
            ),
            # ``_bt_finalize`` emits single slots in slot order, and slot
            # end times increase with position, so ``delays`` is ascending.
            delay=DelayStats.from_array(delays, assume_sorted=True),
            missed_collisions=missed,
            false_collisions=0,
            lost_tags=0,
        )
        if obs_on:
            record_kernel_stats("fast_bt", stats)
        runs.append(stats)
    return BatchResult(runs=tuple(runs))
