"""Unit tests for the deterministic hashing layer."""

import numpy as np
import pytest

from repro.core.hashing import (
    MASK64,
    bloom_positions,
    bloom_positions_batch,
    hash_pair,
    key_to_int,
    splitmix64,
)


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_within_64_bits(self):
        for value in (0, 1, 2**63, MASK64):
            assert 0 <= splitmix64(value) <= MASK64

    def test_avalanche(self):
        """Flipping one input bit flips roughly half the output bits."""
        flips = bin(splitmix64(1000) ^ splitmix64(1001)).count("1")
        assert 16 <= flips <= 48

    def test_distinct_inputs_distinct_outputs(self):
        outputs = {splitmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000


class TestHashPair:
    def test_h2_is_odd(self):
        for key in range(100):
            _, h2 = hash_pair(key)
            assert h2 % 2 == 1

    def test_seed_changes_hashes(self):
        assert hash_pair(7, seed=0) != hash_pair(7, seed=1)

    def test_pair_components_differ(self):
        h1, h2 = hash_pair(12345)
        assert h1 != h2


class TestBloomPositions:
    def test_in_range(self):
        for key in (0, 5, 2**40):
            for pos in bloom_positions(key, k=8, nbits=101):
                assert 0 <= pos < 101

    def test_k_positions(self):
        assert len(bloom_positions(9, k=5, nbits=64)) == 5

    def test_deterministic(self):
        assert bloom_positions(9, 4, 256) == bloom_positions(9, 4, 256)

    def test_invalid_nbits(self):
        with pytest.raises(ValueError):
            bloom_positions(1, 3, 0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 2**62, size=200)
        for k, nbits, seed in [(1, 31, 0), (3, 153, 5), (20, 460, 9)]:
            batch = bloom_positions_batch(keys, k, nbits, seed)
            for i in range(len(keys)):
                assert list(batch[i]) == bloom_positions(
                    int(keys[i]), k, nbits, seed
                )

    def test_batch_shape(self):
        batch = bloom_positions_batch(np.arange(10), k=4, nbits=77)
        assert batch.shape == (10, 4)

    @pytest.mark.parametrize("k, nbits", [(1, 31), (6, 130), (20, 460)])
    def test_per_row_seeds_equal_per_seed_calls(self, k, nbits):
        """A per-row seed array hashes row ``j`` exactly as a one-seed
        call with ``seeds[j]`` would — including seeds at or past 2**63
        (taken mod 2**64, as the scalar path masks) and negative keys."""
        rng = np.random.default_rng(7)
        keys = rng.integers(-2**62, 2**62, size=120)
        keys[:4] = [-1, -2**63, 0, 2**63 - 1]
        seed_pool = [0, 3, 2**63, 2**63 + 12345, 2**64 - 1, 91]
        seeds = [seed_pool[j % len(seed_pool)] for j in range(len(keys))]
        batch = bloom_positions_batch(keys, k, nbits, seeds)
        for seed in seed_pool:
            rows = [j for j, s in enumerate(seeds) if s == seed]
            single = bloom_positions_batch(keys[rows], k, nbits, seed)
            assert np.array_equal(batch[rows], single)
        for j in (0, 1, 2, 3, 50):
            assert list(batch[j]) == bloom_positions(
                int(keys[j]), k, nbits, seeds[j]
            )

    def test_per_row_seed_array_dtypes_agree(self):
        keys = np.arange(-20, 20)
        seeds = [(j * 2**61) % 2**64 for j in range(40)]
        as_list = bloom_positions_batch(keys, 5, 97, seeds)
        as_u64 = bloom_positions_batch(
            keys, 5, 97, np.array(seeds, dtype=np.uint64)
        )
        assert np.array_equal(as_list, as_u64)
        signed = np.array(seeds, dtype=np.uint64).astype(np.int64)
        assert np.array_equal(bloom_positions_batch(keys, 5, 97, signed),
                              as_list)

    def test_batch_empty(self):
        assert bloom_positions_batch(np.empty(0, dtype=np.int64), 3, 64).shape == (0, 3)


class TestKeyToInt:
    def test_int_passthrough(self):
        assert key_to_int(12345) == 12345

    def test_negative_int(self):
        assert key_to_int(-5) == -5

    def test_bool_is_int(self):
        assert key_to_int(True) == 1

    def test_str_and_bytes_agree(self):
        assert key_to_int("abc") == key_to_int(b"abc")

    def test_str_distinct(self):
        assert key_to_int("abc") != key_to_int("abd")

    def test_unhashable_type(self):
        with pytest.raises(TypeError):
            key_to_int(3.14)
