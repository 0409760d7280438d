"""Hamming SECDED (single-error-correct, double-error-detect) codec.

Classic extended-Hamming construction for an arbitrary data width ``k``:
parity bits occupy power-of-two positions of the (1-indexed) codeword,
each covering the positions whose index has the corresponding bit set,
plus one overall-parity bit appended for double-error detection.
For ``k = 64`` this is the familiar (72, 64) DRAM/STT-RAM code.

Every encode and decode runs one packed-integer kernel.  The code is
linear over GF(2), so any linear function of a codeword is the XOR of
that function applied to each of its bytes.  The kernel packs a codeword
into bytes and XORs one precomputed table entry per byte.  Each decode
entry carries three fields of that byte: the parity of its bits, the XOR
of the inner positions it sets (its share of the syndrome), and the data
bits it holds.  Each encode entry is the codeword the data byte
contributes.  The tables are built once per data width from the check
matrix and shared by every codec of that width.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DecodeStatus", "DecodeResult", "BatchDecodeResult", "HammingSECDED"]


class DecodeStatus(enum.Enum):
    """Outcome of decoding one codeword."""

    CLEAN = "clean"                    #: no error detected
    CORRECTED = "corrected"            #: single error corrected
    DETECTED = "detected_uncorrectable"  #: double error detected, data lost


@dataclasses.dataclass(frozen=True)
class DecodeResult:
    """Decoded data plus the error status."""

    data: np.ndarray      #: recovered data bits (uint8 array of length k)
    status: DecodeStatus
    corrected_position: int = -1  #: codeword index fixed (when CORRECTED)
    value: int = 0        #: ``data`` as an integer word (LSB-first)


@dataclasses.dataclass(frozen=True)
class BatchDecodeResult:
    """Struct-of-arrays outcome of decoding many codewords at once.

    Row ``i`` carries exactly what :meth:`HammingSECDED.decode` would have
    produced for codeword ``i``.  The decoder yields integer words;
    :attr:`data` unpacks them to bits on first access.
    """

    values: Tuple[int, ...]            #: decoded integer words (LSB-first)
    statuses: Tuple[DecodeStatus, ...]
    corrected_positions: np.ndarray    #: per-word codeword index fixed (-1)
    data_bits: int                     #: data bits per word (``k``)

    @property
    def size(self) -> int:
        """Number of decoded words."""
        return len(self.values)

    @functools.cached_property
    def data(self) -> np.ndarray:
        """Corrected data bits, shape ``(n, k)``: ``values`` unpacked."""
        return _unpack_words(self.values, self.data_bits)

    def result(self, index: int) -> DecodeResult:
        """Scalar :class:`DecodeResult` view of one row."""
        return DecodeResult(
            data=self.data[index].copy(),
            status=self.statuses[index],
            corrected_position=int(self.corrected_positions[index]),
            value=self.values[index],
        )


def _unpack_words(values: Sequence[int], data_bits: int) -> np.ndarray:
    """Integer words as an ``(n, data_bits)`` uint8 bit matrix (LSB-first)."""
    width = (data_bits + 7) // 8
    raw = b"".join(value.to_bytes(width, "little") for value in values)
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(values), width),
        axis=1,
        count=data_bits,
        bitorder="little",
    )


def _parity_count(k: int) -> int:
    r = 0
    while (1 << r) < k + r + 1:
        r += 1
    return r


def _byte_tables(images: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """Per-byte lookup tables of a GF(2)-linear map.

    Row ``i`` of the 0/1 matrix ``images`` is the image of input bit ``i``
    (its columns LSB-first).  Table ``b`` maps a byte value ``v`` to the
    XOR of the images of the input bits ``8b + j`` set in ``v``, as an int.
    """
    inputs, width = images.shape
    count = -(-inputs // 8)
    padded = np.zeros((count * 8, width), dtype=np.int64)
    padded[:inputs] = images
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1     # (256, 8)
    bits = (byte_bits @ padded.reshape(count, 8, width)) & 1       # (count, 256, width)
    packed = np.packbits(bits.astype(np.uint8), axis=2, bitorder="little")
    step = packed.shape[2]
    raw = packed.tobytes()
    entries = [
        int.from_bytes(raw[start:start + step], "little")
        for start in range(0, len(raw), step)
    ]
    return tuple(tuple(entries[b * 256:(b + 1) * 256]) for b in range(count))


@dataclasses.dataclass(frozen=True)
class _PackedTables:
    """The byte tables of one data width (see :func:`_packed_tables`)."""

    parity_bits: int
    decode: Tuple[Tuple[int, ...], ...]  #: per codeword byte
    encode: Tuple[Tuple[int, ...], ...]  #: per data byte
    flips: Tuple[int, ...]              #: data mask fixed by syndrome s


@functools.lru_cache(maxsize=32)
def _packed_tables(data_bits: int) -> _PackedTables:
    """Tables of the ``data_bits`` code, built once from its check matrix.

    A decode entry is ``parity | syndrome << 1 | data << (r + 1)``: the
    parity of the byte's bits, the XOR of the (1-indexed) inner positions
    it sets, and the data bits it holds.  An encode entry is the codeword
    its data byte contributes: data bits at their positions, the parity
    bits their positions set, and the overall parity of the two.
    """
    r = _parity_count(data_bits)
    inner_length = data_bits + r
    positions = np.arange(1, inner_length + 1)
    data_positions = positions[(positions & (positions - 1)) != 0]
    data_indices = data_positions - 1
    parity_indices = (1 << np.arange(r)) - 1
    # check[j, i]: inner position i + 1 has bit j set.
    check = ((positions[None, :] >> np.arange(r)[:, None]) & 1).astype(np.uint8)

    decode = np.zeros((inner_length + 1, 1 + r + data_bits), dtype=np.uint8)
    decode[:, 0] = 1
    decode[:inner_length, 1:r + 1] = check.T
    decode[data_indices, r + 1 + np.arange(data_bits)] = 1

    encode = np.zeros((data_bits, inner_length + 1), dtype=np.uint8)
    encode[np.arange(data_bits), data_indices] = 1
    encode[:, parity_indices] = check[:, data_indices].T
    encode[:, inner_length] = encode[:, :inner_length].sum(axis=1) & 1

    flips = [0] * (inner_length + 1)
    for bit, index in enumerate(data_indices.tolist()):
        flips[index + 1] = 1 << bit
    return _PackedTables(
        parity_bits=r,
        decode=_byte_tables(decode),
        encode=_byte_tables(encode),
        flips=tuple(flips),
    )


def _binary(array: np.ndarray, what: str) -> np.ndarray:
    """``array`` ready for ``np.packbits``, rejecting any entry but 0 and 1."""
    if array.dtype.kind in "biu" and array.dtype.itemsize == 1:
        # Every byte must be 0x00 or 0x01: delete those and see what is left.
        if array.tobytes().translate(None, b"\x00\x01"):
            raise ConfigurationError(f"{what} must be 0/1 bits")
        return array
    bits = array.astype(bool)
    if np.count_nonzero(bits != array):
        raise ConfigurationError(f"{what} must be 0/1 bits")
    return bits


class HammingSECDED:
    """Extended Hamming code over ``data_bits`` data bits.

    ``encode`` maps a bit array of length ``k`` to a codeword of length
    ``k + r + 1`` (``r`` Hamming parity bits + 1 overall parity);
    ``decode`` corrects any single bit flip and flags any double flip.
    Every bit input must hold only 0s and 1s.
    """

    def __init__(self, data_bits: int = 64):
        if data_bits < 1:
            raise ConfigurationError(f"data_bits must be >= 1, got {data_bits}")
        self.data_bits = int(data_bits)
        self._tables = _packed_tables(self.data_bits)
        self.parity_bits = self._tables.parity_bits
        #: total codeword length including the overall-parity bit
        self.codeword_bits = self.data_bits + self.parity_bits + 1

    @property
    def overhead(self) -> float:
        """Check-bit overhead ``(n - k) / k``."""
        return (self.codeword_bits - self.data_bits) / self.data_bits

    # ------------------------------------------------------------------
    # The packed kernel
    # ------------------------------------------------------------------
    def _codeword(self, value: int) -> np.ndarray:
        """Encode an in-range integer word into codeword bits."""
        acc = 0
        tables = self._tables.encode
        for table, byte in zip(tables, value.to_bytes(len(tables), "little")):
            acc ^= table[byte]
        raw = acc.to_bytes((self.codeword_bits + 7) // 8, "little")
        return np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8),
            count=self.codeword_bits,
            bitorder="little",
        )

    def _decode_packed(self, raw: bytes):
        """Decode codewords packed LSB-first, one byte-padded row each.

        Returns ``(values, statuses, positions)`` as lists, one entry per
        codeword; a single-error correction is one bit flip of the value.
        """
        tables = self._tables.decode
        flips = self._tables.flips
        step = len(tables)
        r = self.parity_bits
        mask = (1 << r) - 1
        inner_length = self.codeword_bits - 1
        values: List[int] = []
        statuses: List[DecodeStatus] = []
        positions: List[int] = []
        for start in range(0, len(raw), step):
            acc = 0
            for table, byte in zip(tables, raw[start:start + step]):
                acc ^= table[byte]
            syndrome = (acc >> 1) & mask
            value = acc >> (r + 1)
            if acc & 1:
                if not syndrome:
                    # The overall-parity bit itself flipped.
                    status, position = DecodeStatus.CORRECTED, inner_length
                elif syndrome <= inner_length:
                    # Single error inside the inner codeword: correct it.
                    value ^= flips[syndrome]
                    status, position = DecodeStatus.CORRECTED, syndrome - 1
                else:
                    # An odd-weight error whose syndrome names no inner bit
                    # (e.g. a triple error): detectable, not correctable.
                    status, position = DecodeStatus.DETECTED, -1
            elif syndrome:
                # Overall parity consistent with a nonzero syndrome: a
                # double error.
                status, position = DecodeStatus.DETECTED, -1
            else:
                status, position = DecodeStatus.CLEAN, -1
            values.append(value)
            statuses.append(status)
            positions.append(position)
        return values, statuses, positions

    # ------------------------------------------------------------------
    def encode(self, data: Sequence[int]) -> np.ndarray:
        """Encode ``data`` (length-k bit sequence) into a codeword."""
        data = np.asarray(data)
        if data.shape != (self.data_bits,):
            raise ConfigurationError(
                f"expected {self.data_bits} data bits, got shape {data.shape}"
            )
        bits = _binary(data, "data")
        packed = np.packbits(bits, bitorder="little").tobytes()
        return self._codeword(int.from_bytes(packed, "little"))

    def _decode_one(self, codeword: Sequence[int]) -> Tuple[int, DecodeStatus, int]:
        """Validate one codeword and decode it: ``(value, status, position)``."""
        received = np.asarray(codeword)
        if received.shape != (self.codeword_bits,):
            raise ConfigurationError(
                f"expected {self.codeword_bits} codeword bits, got {received.shape}"
            )
        bits = _binary(received, "codeword")
        (value,), (status,), (position,) = self._decode_packed(
            np.packbits(bits, bitorder="little").tobytes()
        )
        return value, status, position

    def decode(self, codeword: Sequence[int]) -> DecodeResult:
        """Decode a codeword, correcting one flip or flagging two."""
        value, status, position = self._decode_one(codeword)
        return DecodeResult(
            data=_unpack_words((value,), self.data_bits)[0],
            status=status,
            corrected_position=position,
            value=value,
        )

    def decode_words(self, codewords) -> BatchDecodeResult:
        """Decode ``n`` codewords in one call.

        ``codewords`` is an ``(n, codeword_bits)`` bit matrix; row ``i`` of
        the result matches :meth:`decode` on that row exactly (same status,
        same corrected position, same data bits) — this is the decoder the
        batched serving path runs, one call per coalesced group.
        """
        received = np.asarray(codewords)
        if received.ndim != 2 or received.shape[1] != self.codeword_bits:
            raise ConfigurationError(
                f"expected (n, {self.codeword_bits}) codeword matrix, got "
                f"{received.shape}"
            )
        bits = _binary(received, "codewords")
        values, statuses, positions = self._decode_packed(
            np.packbits(bits, axis=1, bitorder="little").tobytes()
        )
        return BatchDecodeResult(
            values=tuple(values),
            statuses=tuple(statuses),
            corrected_positions=np.array(positions, dtype=np.int64),
            data_bits=self.data_bits,
        )

    # ------------------------------------------------------------------
    def encode_word(self, value: int) -> np.ndarray:
        """Encode an integer word (LSB-first bit order)."""
        if not 0 <= value < (1 << self.data_bits):
            raise ConfigurationError(
                f"value {value} does not fit in {self.data_bits} bits"
            )
        return self._codeword(value)

    def bits_to_int(self, data: Sequence[int]) -> int:
        """Pack a data-bit array back into an integer (LSB-first)."""
        return sum(int(bit) << i for i, bit in enumerate(data))

    def decode_word(self, codeword: Sequence[int]):
        """Decode back to an integer word; returns (value, status)."""
        value, status, _ = self._decode_one(codeword)
        return value, status
