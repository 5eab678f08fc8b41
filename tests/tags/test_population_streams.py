"""Replay ``TagPopulation`` against a reference built only from numpy.

The reference spawns the root ``SeedSequence`` in the population's order
(ID stream, one stream per tag, then the position stream), draws the IDs
with the scalar rejection loop on a plain ``Generator``, and reads each
tag's first draws from ``Generator(PCG64(child))``.  The population must
match it in IDs, positions and every tag's stream, whichever way it seeds
its streams or vectorizes its ID draws.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.bits.rng import make_rng
from repro.tags.epc import Sgtin96
from repro.tags.population import TagPopulation

SEED = 2010
AREA = (100.0, 40.0)


def _gen(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seq))


def _reference_ids(gen: np.random.Generator, size, id_bits, layout):
    if layout == "sequential":
        return list(range(size))
    seen: set[int] = set()
    out: list[int] = []
    if layout == "sgtin":
        while len(out) < size:
            epc = Sgtin96.random(gen).encode().to_int()
            if epc not in seen:
                seen.add(epc)
                out.append(epc)
        return out
    if id_bits <= 62 and size > (1 << id_bits) // 2:
        return [int(v) for v in gen.permutation(1 << id_bits)[:size]]
    while len(out) < size:
        need = size - len(out)
        for d in gen.integers(0, 1 << min(id_bits, 63), size=need * 2):
            v = int(d)
            if id_bits > 63:
                v |= int(gen.integers(0, 1 << (id_bits - 63))) << 63
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == size:
                    break
    return out


def _reference(size, id_bits, layout, area):
    root = np.random.SeedSequence(SEED)
    ids = _reference_ids(_gen(root.spawn(1)[0]), size, id_bits, layout)
    tag_seqs = root.spawn(size)
    positions = [None] * size
    if area is not None:
        pos = _gen(root.spawn(1)[0])
        xs, ys = pos.uniform(0.0, area[0], size), pos.uniform(0.0, area[1], size)
        positions = [(float(x), float(y)) for x, y in zip(xs, ys)]
    return ids, positions, tag_seqs


CASES = [
    (layout, id_bits, size)
    for layout in ("uniform", "sequential")
    for id_bits in (10, 62, 63, 64, 96)
    for size in (0, 1, 2, 500)
] + [("sgtin", 96, size) for size in (0, 1, 2, 500)] + [
    ("uniform", 10, 300),  # duplicates: the scalar fallback loop runs
    ("uniform", 10, 600),  # dense: permute the whole space
]


@pytest.mark.parametrize("area", [None, AREA], ids=["no-area", "area"])
@pytest.mark.parametrize("layout,id_bits,size", CASES)
def test_population_replays_numpy_reference(layout, id_bits, size, area):
    pop = TagPopulation(
        size, id_bits=id_bits, rng=make_rng(SEED), layout=layout, area=area
    )
    ids, positions, tag_seqs = _reference(size, id_bits, layout, area)
    assert pop.ids == ids
    assert len(set(pop.ids)) == size
    assert [t.position for t in pop] == positions
    for tag, seq in zip(pop, tag_seqs):
        gen = _gen(seq)
        got = [int(tag.rng.integers(0, 1 << 16)) for _ in range(8)]
        assert got == [int(gen.integers(0, 1 << 16)) for _ in range(8)]
        assert repr(tag.rng) == f"RngStream(entropy={SEED}, key={seq.spawn_key!r})"


def test_duplicate_case_really_hits_duplicates():
    """The (10-bit, 300-tag) case must exercise the fallback loop."""
    draws = _gen(np.random.SeedSequence(SEED).spawn(1)[0]).integers(0, 1 << 10, 600)
    assert len(set(draws[:300].tolist())) < 300


def test_memory_per_tag():
    """A tag's stream is Python-int PCG64 state, not a numpy generator:
    a 5 000-tag population that has drawn once per tag keeps < 800 B a
    tag (a ``PCG64`` plus ``Generator`` per tag kept ~1 020 B)."""
    n = 5000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pop = TagPopulation(n, id_bits=64, rng=make_rng(SEED))
        for tag in pop:
            tag.rng.integers(0, 300)
        gc.collect()
        per_tag = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(pop) == n
    assert per_tag < 800
