"""Tag population generators.

The evaluation (Table V/VI) uses populations of 50 to 50 000 tags with
unique random IDs.  :class:`TagPopulation` produces such populations
reproducibly, with three ID layouts:

* ``"uniform"`` -- IDs drawn uniformly without replacement from the full
  ``l_id``-bit space (the paper's setting);
* ``"sgtin"``   -- structured SGTIN-96 EPCs (for QT/privacy scenarios);
* ``"sequential"`` -- worst-case clustered IDs (adversarial for QT, which
  walks shared prefixes).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.bits.rng import RngStream
from repro.tags.epc import Sgtin96
from repro.tags.tag import Tag

__all__ = ["TagPopulation"]


class TagPopulation:
    """A reproducible collection of tags with unique IDs.

    Parameters
    ----------
    size:
        Number of tags.
    id_bits:
        ID length; 64 matches the paper's analysis, 96 the deployment.
    rng:
        Root random stream; each tag receives its own child stream.
    layout:
        ``"uniform"``, ``"sgtin"`` (requires ``id_bits == 96``) or
        ``"sequential"``.
    area:
        Optional (width, height) in metres; when given, tags receive
        uniform random positions (Table V: 100 m x 100 m).
    """

    def __init__(
        self,
        size: int,
        id_bits: int = 64,
        rng: RngStream | None = None,
        layout: str = "uniform",
        area: tuple[float, float] | None = None,
    ) -> None:
        if size < 0:
            raise ValueError("size must be >= 0")
        if layout not in ("uniform", "sgtin", "sequential"):
            raise ValueError(f"unknown layout {layout!r}")
        if layout == "sgtin" and id_bits != 96:
            raise ValueError("sgtin layout requires id_bits=96")
        if layout == "uniform" and size > (1 << id_bits):
            raise ValueError("population larger than the ID space")
        self.size = size
        self.id_bits = id_bits
        self.layout = layout
        self.rng = rng if rng is not None else RngStream.from_seed(None)
        id_rng = self.rng.child()
        tag_streams = self.rng.spawn(size)
        ids = self._draw_ids(id_rng)
        positions: list[tuple[float, float] | None]
        if area is not None:
            pos_rng = self.rng.child()
            xs = pos_rng.uniform(0.0, area[0], size)
            ys = pos_rng.uniform(0.0, area[1], size)
            positions = [(float(x), float(y)) for x, y in zip(xs, ys)]
        else:
            positions = [None] * size
        self.tags: list[Tag] = [
            Tag(tag_id=i, id_bits=id_bits, rng=s, position=p)
            for i, s, p in zip(ids, tag_streams, positions)
        ]

    # ------------------------------------------------------------------

    def _draw_ids(self, rng: RngStream) -> list[int]:
        if self.layout == "sequential":
            return list(range(self.size))
        if self.layout == "sgtin":
            seen: set[int] = set()
            out: list[int] = []
            while len(out) < self.size:
                epc = Sgtin96.random(rng).encode().to_int()
                if epc not in seen:
                    seen.add(epc)
                    out.append(epc)
            return out
        # uniform without replacement; rejection sampling is fine because
        # the ID space (2^64) dwarfs any realistic population.
        if self.id_bits <= 62:
            space = 1 << self.id_bits
            if self.size > space // 2:
                # Dense case: permute the whole space.
                perm = rng.generator.permutation(space)[: self.size]
                return perm.tolist()
        seen = set()
        out = []
        while len(out) < self.size:
            need = self.size - len(out)
            draws = rng.integers(0, 1 << min(self.id_bits, 63), size=need * 2 or 1)
            ids = draws[:need].tolist()
            if not seen and len(set(ids)) == need:
                # No duplicate among the first ``need`` draws, so the loop
                # below would accept exactly those; PCG64 draws the same
                # high bits in one call as in ``need`` scalar calls.
                if self.id_bits > 63:
                    high = rng.integers(0, 1 << (self.id_bits - 63), size=need)
                    ids = [v | h << 63 for v, h in zip(ids, high.tolist())]
                return ids
            for v in draws.tolist():
                if self.id_bits > 63:
                    # extend with extra random high bits
                    v |= int(rng.integers(0, 1 << (self.id_bits - 63))) << 63
                if v not in seen:
                    seen.add(v)
                    out.append(v)
                    if len(out) == self.size:
                        break
        return out

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Reset every tag's protocol state (fresh identification round)."""
        for tag in self.tags:
            tag.reset_protocol_state()

    def unidentified(self) -> list[Tag]:
        return [t for t in self.tags if not t.identified]

    def all_identified(self) -> bool:
        return all(t.identified for t in self.tags)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Tag]:
        return iter(self.tags)

    def __getitem__(self, idx: int) -> Tag:
        return self.tags[idx]

    @property
    def ids(self) -> Sequence[int]:
        return [t.tag_id for t in self.tags]
