"""Hamming SECDED (single-error-correct, double-error-detect) codec.

Classic extended-Hamming construction for an arbitrary data width ``k``:
parity bits occupy power-of-two positions of the (1-indexed) codeword,
each covering the positions whose index has the corresponding bit set,
plus one overall-parity bit appended for double-error detection.
For ``k = 64`` this is the familiar (72, 64) DRAM/STT-RAM code.
"""

from __future__ import annotations

import dataclasses
import enum
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


@dataclasses.dataclass(frozen=True)
class BatchDecodeResult:
    """Struct-of-arrays outcome of decoding many codewords at once.

    Row ``i`` carries exactly what :meth:`HammingSECDED.decode` followed by
    :meth:`HammingSECDED.bits_to_int` would have produced for codeword
    ``i`` — the vectorized decoder is defined by that equivalence.
    """

    values: Tuple[int, ...]            #: decoded integer words (LSB-first)
    statuses: Tuple[DecodeStatus, ...]
    corrected_positions: np.ndarray    #: per-word codeword index fixed (-1)
    data: np.ndarray                   #: corrected data bits, shape (n, k)

    @property
    def size(self) -> int:
        """Number of decoded words."""
        return len(self.values)

    def result(self, index: int) -> DecodeResult:
        """Scalar :class:`DecodeResult` view of one row."""
        return DecodeResult(
            data=self.data[index].copy(),
            status=self.statuses[index],
            corrected_position=int(self.corrected_positions[index]),
        )


class HammingSECDED:
    """Extended Hamming code over ``data_bits`` data bits.

    ``encode`` maps a bit array of length ``k`` to a codeword of length
    ``k + r + 1`` (``r`` Hamming parity bits + 1 overall parity);
    ``decode`` corrects any single bit flip and flags any double flip.
    """

    def __init__(self, data_bits: int = 64):
        if data_bits < 1:
            raise ConfigurationError(f"data_bits must be >= 1, got {data_bits}")
        self.data_bits = int(data_bits)
        self.parity_bits = self._parity_count(self.data_bits)
        #: total codeword length including the overall-parity bit
        self.codeword_bits = self.data_bits + self.parity_bits + 1
        # Precompute the (1-indexed) layout of the inner Hamming code.
        inner_length = self.data_bits + self.parity_bits
        self._parity_positions = [1 << j for j in range(self.parity_bits)]
        self._data_positions = [
            position
            for position in range(1, inner_length + 1)
            if position not in self._parity_positions
        ]
        # Precomputed decode machinery, shared by the scalar and the
        # vectorized decoder: row j of the check matrix covers the
        # (1-indexed) inner positions whose index has bit j set.
        positions = np.arange(1, inner_length + 1)
        self._check_matrix = np.array(
            [(positions & p) != 0 for p in self._parity_positions], dtype=np.uint8
        )  # shape (parity_bits, inner_length)
        self._syndrome_weights = np.array(self._parity_positions, dtype=np.int64)
        self._data_indices = np.array(self._data_positions, dtype=np.intp) - 1
        self._parity_indices = np.array(self._parity_positions, dtype=np.intp) - 1
        # Encode matrix: entry (j, i) set when data position i contributes
        # to parity bit j (parity positions never cover each other, so the
        # parities depend on data bits alone).
        data_positions = np.array(self._data_positions, dtype=np.int64)
        self._encode_matrix = np.array(
            [(data_positions & p) != 0 for p in self._parity_positions],
            dtype=np.int64,
        )  # shape (parity_bits, data_bits)

    @staticmethod
    def _parity_count(k: int) -> int:
        r = 0
        while (1 << r) < k + r + 1:
            r += 1
        return r

    @property
    def overhead(self) -> float:
        """Check-bit overhead ``(n - k) / k``."""
        return (self.codeword_bits - self.data_bits) / self.data_bits

    # ------------------------------------------------------------------
    def _as_bits(self, data: Sequence[int]) -> np.ndarray:
        bits = np.asarray(data, dtype=np.uint8)
        if bits.shape != (self.data_bits,):
            raise ConfigurationError(
                f"expected {self.data_bits} data bits, got shape {bits.shape}"
            )
        if np.any(bits > 1):
            raise ConfigurationError("data must be 0/1 bits")
        return bits

    def encode(self, data: Sequence[int]) -> np.ndarray:
        """Encode ``data`` (length-k bit sequence) into a codeword."""
        bits = self._as_bits(data)
        inner = np.zeros(self.data_bits + self.parity_bits, dtype=np.uint8)
        inner[self._data_indices] = bits
        inner[self._parity_indices] = (
            self._encode_matrix @ bits.astype(np.int64)
        ) & 1
        overall = np.bitwise_xor.reduce(inner)
        return np.concatenate([inner, [overall]]).astype(np.uint8)

    def decode(self, codeword: Sequence[int]) -> DecodeResult:
        """Decode a codeword, correcting one flip or flagging two."""
        received = np.asarray(codeword, dtype=np.uint8)
        if received.shape != (self.codeword_bits,):
            raise ConfigurationError(
                f"expected {self.codeword_bits} codeword bits, got {received.shape}"
            )
        inner_length = self.data_bits + self.parity_bits
        inner = received[:-1]
        checks = (self._check_matrix @ inner.astype(np.int64)) & 1
        syndrome = int(checks @ self._syndrome_weights)
        overall_ok = np.bitwise_xor.reduce(received) == 0

        corrected = inner.copy()
        if syndrome == 0 and overall_ok:
            status, position = DecodeStatus.CLEAN, -1
        elif syndrome != 0 and not overall_ok and syndrome <= inner_length:
            # Single error inside the inner codeword: correct it.
            corrected[syndrome - 1] ^= 1
            status, position = DecodeStatus.CORRECTED, syndrome - 1
        elif syndrome == 0 and not overall_ok:
            # The overall-parity bit itself flipped.
            status, position = DecodeStatus.CORRECTED, self.codeword_bits - 1
        else:
            # syndrome != 0 with overall parity consistent (double error),
            # or an odd-weight error whose syndrome names no inner bit
            # (e.g. a triple error): detectable, not correctable.
            status, position = DecodeStatus.DETECTED, -1

        data = corrected[self._data_indices]
        return DecodeResult(data=data, status=status, corrected_position=position)

    def decode_words(self, codewords) -> BatchDecodeResult:
        """Decode ``n`` codewords in one NumPy pass.

        ``codewords`` is an ``(n, codeword_bits)`` bit matrix; row ``i`` of
        the result matches :meth:`decode` on that row exactly (same status,
        same corrected position, same data bits) — this is the decoder the
        batched serving path runs so a coalesced group costs one syndrome
        matrix product instead of ``n`` Python loops.
        """
        received = np.asarray(codewords, dtype=np.uint8)
        if received.ndim != 2 or received.shape[1] != self.codeword_bits:
            raise ConfigurationError(
                f"expected (n, {self.codeword_bits}) codeword matrix, got "
                f"{received.shape}"
            )
        inner_length = self.data_bits + self.parity_bits
        inner = received[:, :-1]
        checks = (inner.astype(np.int64) @ self._check_matrix.T) & 1  # (n, r)
        syndromes = checks @ self._syndrome_weights                   # (n,)
        overall_ok = (received.sum(axis=1) & 1) == 0

        corrected = inner.copy()
        # An odd-weight error whose syndrome names no inner bit is
        # detected, not corrected (see :meth:`decode`).
        single = (syndromes != 0) & ~overall_ok & (syndromes <= inner_length)
        flip_rows = np.nonzero(single)[0]
        corrected[flip_rows, syndromes[flip_rows] - 1] ^= 1

        positions = np.full(received.shape[0], -1, dtype=np.int64)
        positions[single] = syndromes[single] - 1
        overall_flip = (syndromes == 0) & ~overall_ok
        positions[overall_flip] = self.codeword_bits - 1

        by_code = (DecodeStatus.CLEAN, DecodeStatus.CORRECTED, DecodeStatus.DETECTED)
        codes = np.where(single | overall_flip, 1, np.where(syndromes == 0, 0, 2))
        statuses = tuple(by_code[code] for code in codes.tolist())
        data = corrected[:, self._data_indices]
        packed = np.packbits(data, axis=1, bitorder="little")
        values = tuple(
            int.from_bytes(row.tobytes(), "little") for row in packed
        )
        return BatchDecodeResult(
            values=values,
            statuses=statuses,
            corrected_positions=positions,
            data=data,
        )

    # ------------------------------------------------------------------
    def encode_word(self, value: int) -> np.ndarray:
        """Encode an integer word (LSB-first bit order)."""
        if not 0 <= value < (1 << self.data_bits):
            raise ConfigurationError(
                f"value {value} does not fit in {self.data_bits} bits"
            )
        raw = value.to_bytes((self.data_bits + 7) // 8, "little")
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8),
            count=self.data_bits,
            bitorder="little",
        )
        return self.encode(bits)

    def bits_to_int(self, data: Sequence[int]) -> int:
        """Pack a data-bit array back into an integer (LSB-first)."""
        return sum(int(bit) << i for i, bit in enumerate(data))

    def decode_word(self, codeword: Sequence[int]):
        """Decode back to an integer word; returns (value, status)."""
        result = self.decode(codeword)
        return self.bits_to_int(result.data), result.status
