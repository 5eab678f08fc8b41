"""Cyclic redundancy check engines.

The paper's baseline collision-detection scheme, CRC-CD, has every tag
transmit ``id ⊕ crc(id)``.  This module implements the CRC substrate from
scratch:

* :class:`CrcSpec` -- the standard Rocksoft parameter model
  (width / polynomial / init / reflect-in / reflect-out / xor-out);
* :class:`CrcEngine` -- one byte-at-a-time computation over 256-entry
  tables, modelling either implementation a tag could run:

  - ``bitwise``: the textbook shift register, O(l) in the message length
    with a handful of operations per bit.  This is the implementation the
    paper's Table IV instruction-count argument is about, so the engine
    reports the register's exact op count (:attr:`CrcEngine.last_op_count`)
    -- read from a per-byte table, without running it bit by bit.
  - ``table``: the 256-entry lookup table (the "1 KB extra memory" of
    Table IV for a 32-bit CRC); no shift-register ops are counted.

Registered parameter sets (check values from the standard CRC catalogue,
message ``b"123456789"``):

========================  =====  ==========  ==========
name                      width  polynomial  check
========================  =====  ==========  ==========
``CRC5_EPC``                  5        0x09        0x00
``CRC16_CCITT_FALSE``        16      0x1021      0x29B1
``CRC16_GEN2``               16      0x1021      0x906E
``CRC16_BUYPASS``            16      0x8005      0xFEE8
``CRC16_IBM``                16      0x8005      0xAEE7
``CRC32_IEEE``               32  0x04C11DB7  0xCBF43926
========================  =====  ==========  ==========

``CRC16_GEN2`` is the EPC Class-1 Gen-2 / ISO 18000-6C CRC-16 (the
CCITT polynomial with init ``0xFFFF`` and the output complemented; catalogue
name CRC-16/GENIBUS).  The paper's analysis uses a 32-bit CRC
(``l_crc = 32``), for which we provide ``CRC32_IEEE``.

``CRC16_BUYPASS`` (catalogue CRC-16/BUYPASS, a.k.a. CRC-16/UMTS and
CRC-16/VERIFONE) is the unreflected IBM polynomial 0x8005 with init 0 --
the frame trailer of CL7206C2-style reader wire protocols, used by
:mod:`repro.gateway.codec`.  ``CRC16_IBM`` is the same computation with
init ``0xFFFF`` (catalogue CRC-16/CMS), the variant some reader firmware
revisions ship instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.bits.bitvec import BitVector

__all__ = [
    "CrcSpec",
    "CrcEngine",
    "CRC5_EPC",
    "CRC16_CCITT_FALSE",
    "CRC16_GEN2",
    "CRC16_BUYPASS",
    "CRC16_IBM",
    "CRC32_IEEE",
    "reflect",
]


def reflect(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@dataclass(frozen=True)
class CrcSpec:
    """Rocksoft-model CRC parameters.

    Attributes
    ----------
    name:
        Catalogue name, for reporting.
    width:
        CRC width in bits.
    poly:
        Generator polynomial (normal representation, MSB-first, without the
        implicit leading 1).
    init:
        Initial shift-register value.
    refin / refout:
        Whether input bytes / the final register are bit-reflected.
    xorout:
        Final XOR applied to the register.
    check:
        Expected CRC of ``b"123456789"`` -- used by the self-test.
    """

    name: str
    width: int
    poly: int
    init: int
    refin: bool
    refout: bool
    xorout: int
    check: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("CRC width must be positive")
        mask = (1 << self.width) - 1
        for field in ("poly", "init", "xorout", "check"):
            if not 0 <= getattr(self, field) <= mask:
                raise ValueError(f"{field} does not fit in {self.width} bits")


CRC5_EPC = CrcSpec("CRC-5/EPC-C1G2", 5, 0x09, 0x09, False, False, 0x00, 0x00)
CRC16_CCITT_FALSE = CrcSpec(
    "CRC-16/CCITT-FALSE", 16, 0x1021, 0xFFFF, False, False, 0x0000, 0x29B1
)
CRC16_GEN2 = CrcSpec(
    "CRC-16/GEN2", 16, 0x1021, 0xFFFF, False, False, 0xFFFF, 0xD64E
)
CRC16_BUYPASS = CrcSpec(
    "CRC-16/BUYPASS", 16, 0x8005, 0x0000, False, False, 0x0000, 0xFEE8
)
CRC16_IBM = CrcSpec(
    "CRC-16/IBM-FFFF", 16, 0x8005, 0xFFFF, False, False, 0x0000, 0xAEE7
)
CRC32_IEEE = CrcSpec(
    "CRC-32/IEEE", 32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF, 0xCBF43926
)


#: Every byte value bit-reversed: ``refin`` / ``refout`` as one
#: ``bytes.translate`` over a whole byte string.
_REVERSE_BYTE = bytes(reflect(b, 8) for b in range(256))


def _shift_bits(
    reg: int, bits: int, n: int, nbits: int, poly: int
) -> tuple[int, int]:
    """Feed the low ``n`` bits of ``bits`` MSB-first through an
    ``nbits``-wide shift register; returns the register and the ops
    spent (a shift and a compare per bit, an xor per feedback)."""
    top = nbits - 1
    mask = (1 << nbits) - 1
    ops = 2 * n
    for k in range(n - 1, -1, -1):
        feedback = (reg >> top) ^ ((bits >> k) & 1)
        reg = (reg << 1) & mask
        if feedback:
            reg ^= poly
            ops += 1
    return reg, ops


@functools.cache
def _byte_tables(nbits: int, poly: int) -> tuple[list[int], list[int]]:
    """For every top byte ``idx``: the register ``idx << (nbits - 8)``
    after 8 shifts, and the ops those shifts spend."""
    regs, ops = [], []
    for idx in range(256):
        reg, count = _shift_bits(idx << (nbits - 8), 0, 8, nbits, poly)
        regs.append(reg)
        ops.append(count)
    return regs, ops


class CrcEngine:
    """A CRC calculator over bit strings.

    The shift register runs a byte at a time.  It is left-aligned to a
    whole number of bytes, so the feedback decisions of the next 8 shifts
    depend only on its top byte XOR the data byte ``idx``: one lookup
    gives the register after those shifts (``reg << 8`` XOR the table
    entry) and another the operations the bit-serial register would have
    spent on them -- a shift and a compare per bit plus one xor per
    feedback.  A ragged tail (``len % 8`` bits) is shifted bit by bit.
    ``refin`` feeds each byte, the tail included, LSB-first, and
    ``refout`` reverses the final register.

    Parameters
    ----------
    spec:
        The CRC parameter set.
    method:
        Which implementation a tag is modelled to run (Table IV); the
        computation is the same.  ``"bitwise"`` (the shift register)
        sets :attr:`last_op_count`; ``"table"`` (a lookup table of
        :attr:`table_memory_bytes`, width >= 8) runs no shift register
        and leaves it at 0.
    """

    def __init__(self, spec: CrcSpec, method: str = "bitwise") -> None:
        if method not in ("bitwise", "table"):
            raise ValueError(f"unknown CRC method {method!r}")
        if method == "table" and spec.width < 8:
            raise ValueError("table-driven CRC requires width >= 8")
        self.spec = spec
        self.method = method
        self._nbytes = (spec.width + 7) // 8
        self._nbits = 8 * self._nbytes
        self._align = self._nbits - spec.width
        self._poly = spec.poly << self._align
        self._regs, self._ops = _byte_tables(self._nbits, self._poly)
        #: Primitive shift/compare/xor operations the shift register
        #: performs for the most recent computation (bitwise method only).
        #: Backs the Table IV instruction-count comparison.
        self.last_op_count: int = 0

    @property
    def table_memory_bytes(self) -> int:
        """Memory footprint of the lookup table: 256 entries of
        ``ceil(width/8)`` bytes (1 KB for CRC-32, per the paper's Table IV)."""
        return 256 * self._nbytes

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------

    def compute_bits(self, bits: BitVector) -> BitVector:
        """CRC of an arbitrary-length bit string, returned as a BitVector of
        ``spec.width`` bits."""
        tail_bits = bits.length % 8
        value = bits.to_int()
        data = (value >> tail_bits).to_bytes(bits.length // 8, "big")
        tail = value & ((1 << tail_bits) - 1)
        return BitVector(self._compute(data, tail, tail_bits), self.spec.width)

    def compute_bytes(self, data: bytes) -> int:
        """CRC of a byte string, as an integer (catalogue convention)."""
        return self._compute(data, 0, 0)

    def _compute(self, data: bytes, tail: int, tail_bits: int) -> int:
        spec = self.spec
        if spec.refin:
            data = data.translate(_REVERSE_BYTE)
            tail = _REVERSE_BYTE[tail] >> (8 - tail_bits)
        shift = self._nbits - 8
        mask = (1 << self._nbits) - 1
        regs, op_table = self._regs, self._ops
        reg = spec.init << self._align
        ops = 0
        for byte in data:
            idx = (reg >> shift) ^ byte
            reg = ((reg << 8) & mask) ^ regs[idx]
            ops += op_table[idx]
        if tail_bits:
            reg, tail_ops = _shift_bits(
                reg, tail, tail_bits, self._nbits, self._poly
            )
            ops += tail_ops
        if spec.refout:
            # Reversing the aligned register reflects the low ``width`` bits.
            reg = int.from_bytes(
                reg.to_bytes(self._nbytes, "little").translate(_REVERSE_BYTE),
                "big",
            )
        else:
            reg >>= self._align
        if self.method == "bitwise":
            self.last_op_count = ops
        return reg ^ spec.xorout

    # ------------------------------------------------------------------
    # Self test
    # ------------------------------------------------------------------

    def self_test(self) -> bool:
        """Check the engine against the catalogue check value."""
        return self.compute_bytes(b"123456789") == self.spec.check

    def __repr__(self) -> str:
        return f"CrcEngine({self.spec.name}, method={self.method!r})"
