"""CRC values *and* shift-register op counts, pinned and cross-checked.

The paper's Table IV cost argument rests on ``CrcEngine.last_op_count``:
one shift and one compare per message bit plus one xor per feedback bit.
Two guards keep that count exact however the engine computes it:

* a golden file (``tests/data/golden_crc_ops.json``) pinning
  ``(crc, last_op_count)`` for every catalogue spec on fixed messages --
  including lengths that are not a multiple of 8 -- and the CRC-CD
  detector counters of fsa/dfsa/bt inventories on each Reader tier;
* a Hypothesis differential test against :func:`reference_crc`, the
  textbook one-bit-at-a-time shift register kept here as the oracle.

Regenerate the golden file after an *intentional* change with::

    PYTHONPATH=src python tests/bits/test_crc_ops.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bits.bitvec import BitVector
from repro.bits.crc import (
    CRC5_EPC,
    CRC16_BUYPASS,
    CRC16_CCITT_FALSE,
    CRC16_GEN2,
    CRC16_IBM,
    CRC32_IEEE,
    CrcEngine,
    CrcSpec,
    reflect,
)
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.timing import TimingModel
from repro.protocols.bt import BinaryTree
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.fsa import FramedSlottedAloha
from repro.tags.population import TagPopulation

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_crc_ops.json"
)

ALL_SPECS = [
    CRC5_EPC,
    CRC16_CCITT_FALSE,
    CRC16_GEN2,
    CRC16_BUYPASS,
    CRC16_IBM,
    CRC32_IEEE,
]

#: Message lengths for the pinned values: empty, sub-byte, byte-aligned,
#: ragged tails, and the paper's 64-bit ID and 96-bit EPC.
LENGTHS = (0, 1, 3, 5, 7, 8, 12, 16, 31, 32, 57, 64, 96, 139)
MESSAGE_SEED = 2010

#: 32-bit IDs with CRC-32 fill one 64-bit word, so all three Reader tiers
#: (the frozen object Reader, the live per-slot loop, frame-batched; see
#: ``tier_reader`` in tests/conftest.py) run on a uint64 arena.
N_TAGS = 40
ID_BITS = 32
POP_SEED = 1310
TIERS = ("object", "packed", "batched")
PROTOCOLS = {
    "fsa": lambda: FramedSlottedAloha(32),
    "dfsa": lambda: DynamicFSA(initial_frame_size=16),
    "bt": lambda: BinaryTree(),
}
COUNTERS = ("classify_calls", "crc_computations", "crc_ops_total")


def reference_crc(spec: CrcSpec, bits: BitVector) -> tuple[int, int]:
    """The textbook shift register, one message bit at a time.

    Returns ``(crc, ops)``: ops charges a shift and a compare per bit and
    one xor per feedback.  Under ``refin`` each whole byte -- and the
    trailing partial byte -- is fed LSB-first.
    """
    raw = bits.to_bits()
    if spec.refin:
        raw = [b for i in range(0, len(raw), 8) for b in reversed(raw[i : i + 8])]
    mask = (1 << spec.width) - 1
    reg = spec.init
    ops = 0
    for bit in raw:
        top = (reg >> (spec.width - 1)) & 1
        reg = (reg << 1) & mask
        if top ^ bit:
            reg ^= spec.poly
            ops += 1
        ops += 2
    if spec.refout:
        reg = reflect(reg, spec.width)
    return (reg ^ spec.xorout) & mask, ops


def _messages() -> list[BitVector]:
    gen = np.random.default_rng(MESSAGE_SEED)
    out = []
    for length in LENGTHS:
        out.append(BitVector.zeros(length))
        out.append(BitVector((1 << length) - 1, length))
        value = int.from_bytes(gen.bytes((length + 7) // 8), "big")
        out.append(BitVector(value >> (-length % 8), length))
    return out


def _engine_entries() -> dict:
    entries = {}
    for spec in ALL_SPECS:
        engine = CrcEngine(spec, "bitwise")
        rows = []
        for msg in _messages():
            crc = engine.compute_bits(msg).to_int()
            rows.append(
                f"{msg.length} {msg.to_int():#x} {crc:#x} {engine.last_op_count}"
            )
        entries[spec.name] = rows
    return entries


def _inventory_entries(make_reader) -> dict:
    entries = {}
    for proto_name, make_protocol in sorted(PROTOCOLS.items()):
        for tier in TIERS:
            detector = CRCCDDetector(id_bits=ID_BITS)
            pop = TagPopulation(N_TAGS, id_bits=ID_BITS, rng=make_rng(POP_SEED))
            result = make_reader(
                tier, detector, TimingModel(id_bits=ID_BITS)
            ).run_inventory(pop.tags, make_protocol())
            assert len(result.identified_ids) == N_TAGS
            entries[f"{proto_name}-{tier}"] = {
                name: getattr(detector, name) for name in COUNTERS
            }
    return entries


def generate(make_reader) -> dict:
    """Recompute everything the golden file pins."""
    return {
        "_config": {
            "lengths": list(LENGTHS),
            "message_seed": MESSAGE_SEED,
            "n_tags": N_TAGS,
            "id_bits": ID_BITS,
            "pop_seed": POP_SEED,
            "row": "length message crc last_op_count",
        },
        "engine": _engine_entries(),
        "inventory": _inventory_entries(make_reader),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestGolden:
    def test_engine_matches_golden(self, golden):
        assert _engine_entries() == golden["engine"]

    def test_inventories_match_golden(self, golden, tier_reader):
        assert _inventory_entries(tier_reader) == golden["inventory"]

    def test_golden_tiers_agree(self, golden):
        inv = golden["inventory"]
        for proto in PROTOCOLS:
            assert inv[f"{proto}-packed"] == inv[f"{proto}-object"]
            assert inv[f"{proto}-batched"] == inv[f"{proto}-object"]

    def test_golden_agrees_with_reference(self, golden):
        specs = {spec.name: spec for spec in ALL_SPECS}
        for name, rows in golden["engine"].items():
            for row in rows:
                length, message, crc, ops = row.split()
                msg = BitVector(int(message, 16), int(length))
                assert reference_crc(specs[name], msg) == (int(crc, 16), int(ops))


class TestDifferential:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_engine_matches_reference(self, spec, data):
        length = data.draw(st.integers(0, 139), label="length")
        value = data.draw(st.integers(0, (1 << length) - 1), label="value")
        msg = BitVector(value, length)
        engine = CrcEngine(spec, "bitwise")
        crc = engine.compute_bits(msg).to_int()
        assert (crc, engine.last_op_count) == reference_crc(spec, msg)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    @given(data=st.binary(max_size=24))
    def test_compute_bytes_matches_reference(self, spec, data):
        engine = CrcEngine(spec, "bitwise")
        crc = engine.compute_bytes(data)
        assert (crc, engine.last_op_count) == reference_crc(
            spec, BitVector.from_bytes(data)
        )


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from conftest import load_reference_reader, tier_reader_factory

    doc = generate(tier_reader_factory(load_reference_reader()))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
