"""Hamming SECDED codec and ECC yield-model tests."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.array.montecarlo import run_margin_monte_carlo
from repro.device.variation import CellPopulation, VariationModel
from repro.ecc.hamming import DecodeStatus, HammingSECDED
from repro.ecc.yield_model import ecc_yield_report, word_failure_probability
from repro.errors import ConfigurationError
from tests.oracles import MatrixSECDED


class TestCodecConstruction:
    def test_72_64_code(self):
        code = HammingSECDED(64)
        assert code.parity_bits == 7
        assert code.codeword_bits == 72

    def test_small_codes(self):
        assert HammingSECDED(4).codeword_bits == 8   # (8, 4) extended Hamming
        assert HammingSECDED(11).codeword_bits == 16  # (16, 11)

    def test_overhead(self):
        assert HammingSECDED(64).overhead == pytest.approx(8 / 64)

    def test_rejects_invalid_width(self):
        with pytest.raises(ConfigurationError):
            HammingSECDED(0)


class TestRoundTrip:
    @pytest.mark.parametrize("k", [4, 8, 16, 64])
    def test_clean_roundtrip(self, k, rng):
        code = HammingSECDED(k)
        for _ in range(8):
            data = rng.integers(0, 2, k).astype(np.uint8)
            result = code.decode(code.encode(data))
            assert result.status is DecodeStatus.CLEAN
            assert np.array_equal(result.data, data)

    def test_word_roundtrip(self):
        code = HammingSECDED(16)
        for value in (0, 1, 0xBEEF, 0xFFFF):
            decoded, status = code.decode_word(code.encode_word(value))
            assert decoded == value
            assert status is DecodeStatus.CLEAN

    def test_rejects_wrong_shapes(self):
        code = HammingSECDED(8)
        with pytest.raises(ConfigurationError):
            code.encode([0, 1])
        with pytest.raises(ConfigurationError):
            code.decode([0] * 5)
        with pytest.raises(ConfigurationError):
            code.encode([0, 1, 2, 0, 0, 0, 0, 0])
        with pytest.raises(ConfigurationError):
            code.encode_word(1 << 8)


class TestErrorHandling:
    def test_corrects_every_single_flip(self, rng):
        code = HammingSECDED(16)
        data = rng.integers(0, 2, 16).astype(np.uint8)
        codeword = code.encode(data)
        for position in range(code.codeword_bits):
            corrupted = codeword.copy()
            corrupted[position] ^= 1
            result = code.decode(corrupted)
            assert result.status is DecodeStatus.CORRECTED
            assert np.array_equal(result.data, data), f"flip at {position}"

    def test_detects_every_double_flip_on_small_code(self, rng):
        code = HammingSECDED(4)
        data = np.array([1, 0, 1, 1], dtype=np.uint8)
        codeword = code.encode(data)
        for a, b in itertools.combinations(range(code.codeword_bits), 2):
            corrupted = codeword.copy()
            corrupted[a] ^= 1
            corrupted[b] ^= 1
            result = code.decode(corrupted)
            assert result.status is DecodeStatus.DETECTED, f"flips at {a},{b}"

    def test_detects_double_flips_on_72_64(self, rng):
        code = HammingSECDED(64)
        data = rng.integers(0, 2, 64).astype(np.uint8)
        codeword = code.encode(data)
        for _ in range(64):
            a, b = rng.choice(code.codeword_bits, size=2, replace=False)
            corrupted = codeword.copy()
            corrupted[a] ^= 1
            corrupted[b] ^= 1
            assert code.decode(corrupted).status is DecodeStatus.DETECTED


def _bits_of(value: int, width: int) -> np.ndarray:
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def _assert_decodes_like_oracle(code, oracle, codewords):
    """Every decode entry point agrees with the matrix oracle, row by row."""
    batch = code.decode_words(codewords)
    reference = oracle.decode_words(codewords)
    assert batch.statuses == reference.statuses
    assert batch.values == reference.values
    assert np.array_equal(batch.corrected_positions, reference.corrected_positions)
    assert np.array_equal(batch.data, reference.data)
    for row, codeword in enumerate(codewords):
        ref = oracle.decode(codeword)
        assert ref.status is reference.statuses[row]
        result = code.decode(codeword)
        assert result.status is ref.status
        assert result.corrected_position == ref.corrected_position
        assert result.value == ref.value
        assert np.array_equal(result.data, ref.data)
        assert code.decode_word(codeword) == (ref.value, ref.status)


class TestPackedKernelMatchesMatrixOracle:
    """The byte-table kernel against the textbook check-matrix codec."""

    @given(
        k=st.integers(1, 130),
        data=st.data(),
    )
    @example(k=8, data=None)     # 13-bit codeword: ends mid-byte
    @example(k=11, data=None)    # (16, 11): two full bytes
    @example(k=57, data=None)    # (64, 57)
    @example(k=120, data=None)   # (128, 120)
    @settings(max_examples=60, deadline=None)
    def test_random_words_with_up_to_three_flips(self, k, data):
        code, oracle = HammingSECDED(k), MatrixSECDED(k)
        assert code.codeword_bits == oracle.codeword_bits
        n = code.codeword_bits
        if data is None:
            rng = np.random.default_rng(k)
            values = [int(rng.integers(0, 1 << min(k, 62))) for _ in range(4)]
            flip_sets = [[], [n - 1], [0, n - 1], [0, 1, n - 1]]
        else:
            values = data.draw(
                st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=4)
            )
            position = st.integers(0, n - 1)
            flip_sets = [
                data.draw(st.lists(position, max_size=3, unique=True))
                for _ in values
            ]
        rows = []
        for value, flips in zip(values, flip_sets):
            codeword = oracle.encode(_bits_of(value, k))
            assert np.array_equal(code.encode_word(value), codeword)
            assert np.array_equal(code.encode(_bits_of(value, k)), codeword)
            for position in flips:
                codeword[position] ^= 1
            rows.append(codeword)
        _assert_decodes_like_oracle(code, oracle, np.stack(rows))

    @pytest.mark.parametrize("k", [1, 4, 8, 11, 57, 64, 120, 130])
    def test_every_single_flip_and_the_parity_bit(self, k):
        code, oracle = HammingSECDED(k), MatrixSECDED(k)
        clean = code.encode_word((1 << k) - 1 if k < 3 else 0b101 << (k - 3))
        rows = [clean]
        for position in range(code.codeword_bits):
            flipped = clean.copy()
            flipped[position] ^= 1
            rows.append(flipped)
        _assert_decodes_like_oracle(code, oracle, np.stack(rows))
        statuses = code.decode_words(np.stack(rows)).statuses
        assert statuses[0] is DecodeStatus.CLEAN
        assert set(statuses[1:]) == {DecodeStatus.CORRECTED}

    @pytest.mark.parametrize("k", [8, 20, 64, 100, 130])
    def test_odd_syndromes_above_the_inner_length(self, k):
        # Triple flips of inner positions whose 1-indexed positions XOR to
        # more than the inner length: odd overall parity, a syndrome that
        # names no bit, so DETECTED.
        code, oracle = HammingSECDED(k), MatrixSECDED(k)
        inner = code.codeword_bits - 1
        clean = code.encode_word(0)
        rows = []
        for a, b, c in itertools.combinations(range(1, inner + 1), 3):
            if (a ^ b ^ c) > inner:
                row = clean.copy()
                row[[a - 1, b - 1, c - 1]] ^= 1
                rows.append(row)
            if len(rows) == 16:
                break
        assert rows
        _assert_decodes_like_oracle(code, oracle, np.stack(rows))
        assert set(code.decode_words(np.stack(rows)).statuses) == {
            DecodeStatus.DETECTED
        }

    def test_codecs_of_one_width_share_their_tables(self):
        assert HammingSECDED(64)._tables is HammingSECDED(64)._tables


class TestBinaryInput:
    """Regression: a non-binary entry once decoded as CORRECTED through
    ``decode`` and CLEAN through ``decode_words``, and ``encode`` wrapped
    256 to 0.  Every entry point now rejects it."""

    def test_decoders_reject_a_two(self):
        code = HammingSECDED(8)
        codeword = code.encode_word(0)
        codeword[2] = 2
        with pytest.raises(ConfigurationError):
            code.decode(codeword)
        with pytest.raises(ConfigurationError):
            code.decode_word(codeword)
        with pytest.raises(ConfigurationError):
            code.decode_words(codeword[None, :])

    def test_encode_rejects_values_that_wrap_in_uint8(self):
        code = HammingSECDED(8)
        data = np.zeros(8, dtype=np.int64)
        data[0] = 256
        with pytest.raises(ConfigurationError):
            code.encode(data)
        data[0] = -1
        with pytest.raises(ConfigurationError):
            code.encode(data)

    @pytest.mark.parametrize("bad", [-1, 0.5, 255, float("nan")])
    def test_any_dtype_is_checked(self, bad):
        code = HammingSECDED(8)
        rows = np.zeros((2, code.codeword_bits), dtype=float)
        rows[1, 4] = bad
        with pytest.raises(ConfigurationError):
            code.decode_words(rows)
        if bad in (-1, 255):
            with pytest.raises(ConfigurationError):
                code.decode_words(rows.astype(np.int8 if bad < 0 else np.uint8))

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int64, float])
    def test_binary_input_of_any_dtype_decodes(self, dtype):
        code = HammingSECDED(16)
        codeword = code.encode_word(0xBEEF)
        codeword[3] ^= 1
        result = code.decode(codeword.astype(dtype))
        assert result.status is DecodeStatus.CORRECTED
        assert result.value == 0xBEEF
        batch = code.decode_words(np.stack([codeword, codeword]).astype(dtype))
        assert batch.values == (0xBEEF, 0xBEEF)
        assert code.encode(_bits_of(0xBEEF, 16).astype(dtype)).tolist() == \
            code.encode_word(0xBEEF).tolist()


class TestWordFailureProbability:
    def test_zero_bit_failures(self):
        assert word_failure_probability(0.0, 72) == 0.0

    def test_no_ecc_is_any_failure(self):
        p = 0.01
        expected = 1.0 - (1.0 - p) ** 72
        assert word_failure_probability(p, 72, correctable=0) == pytest.approx(expected)

    def test_secded_needs_two_failures(self):
        p = 1e-3
        raw = word_failure_probability(p, 72, correctable=0)
        ecc = word_failure_probability(p, 72, correctable=1)
        # SECDED gain is roughly 2/(n·p) for small p.
        assert ecc < raw * 72 * p

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            word_failure_probability(1.5, 72)
        with pytest.raises(ConfigurationError):
            word_failure_probability(0.1, 0)
        with pytest.raises(ConfigurationError):
            word_failure_probability(0.1, 72, correctable=-1)


class TestEccYieldReport:
    @pytest.fixture
    def heavy_mc(self, rng):
        from repro.array.testchip import TESTCHIP_VARIATION
        from repro.calibration import calibrate

        calibration = calibrate()
        population = CellPopulation.sample(
            16 * 72 * 8,
            TESTCHIP_VARIATION.scaled(1.5),
            params=calibration.params,
            rolloff_high=calibration.rolloff_high(),
            rolloff_low=calibration.rolloff_low(),
            rng=rng,
        )
        return run_margin_monte_carlo(
            population,
            beta_destructive=calibration.beta_destructive,
            beta_nondestructive=calibration.beta_nondestructive,
            include_sa_offset=False,
        )

    def test_report_structure(self, heavy_mc):
        report = ecc_yield_report(heavy_mc, word_cells=72)
        assert set(report.raw_word_fail) == {
            "conventional",
            "destructive",
            "nondestructive",
        }
        for name in report.raw_word_fail:
            assert report.secded_word_fail[name] <= report.raw_word_fail[name]

    def test_secded_rescues_nondestructive_tail(self, heavy_mc):
        # At 1.5× the test-chip variation the nondestructive scheme has a
        # ~0.2% bit-fail tail; SECDED turns the resulting double-digit word
        # fail rate into well under 1% — the architectural companion the
        # low-margin scheme needs.
        report = ecc_yield_report(heavy_mc, word_cells=72)
        assert report.raw_word_fail["nondestructive"] > 0.05
        assert report.secded_word_fail["nondestructive"] < 0.02
        assert report.improvement("nondestructive") > 5.0

    def test_secded_cannot_save_conventional_at_this_variation(self, heavy_mc):
        # Conventional sensing fails ~9% of bits here: with ~6.5 expected
        # failures per 72-bit word, single-error correction is hopeless.
        report = ecc_yield_report(heavy_mc, word_cells=72)
        assert report.raw_word_fail["conventional"] > 0.9
        assert report.secded_word_fail["conventional"] > 0.9

    def test_word_too_large_rejected(self, heavy_mc):
        with pytest.raises(ConfigurationError):
            ecc_yield_report(heavy_mc, word_cells=10**6)

    def test_rejects_bad_word_size(self, heavy_mc):
        with pytest.raises(ConfigurationError):
            ecc_yield_report(heavy_mc, word_cells=0)
