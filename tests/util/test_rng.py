"""Unit tests for deterministic RNG stream derivation."""

import numpy as np
import pytest

import repro.util.rng as rng_mod
from repro.util.rng import derive_rng, derive_seed, shuffled_others


def test_same_key_same_seed():
    assert derive_seed(1, "node", 3) == derive_seed(1, "node", 3)


def test_different_keys_differ():
    assert derive_seed(1, "node", 3) != derive_seed(1, "node", 4)
    assert derive_seed(1, "node", 3) != derive_seed(2, "node", 3)


def test_key_order_matters():
    assert derive_seed(1, "node", 12) != derive_seed(1, 12, "node")


def test_structured_vs_concatenated():
    # ("ab", "c") must differ from ("a", "bc").
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_rng_reproducible():
    a = derive_rng(7, "x").integers(0, 1 << 30, 10)
    b = derive_rng(7, "x").integers(0, 1 << 30, 10)
    assert (a == b).all()


def test_rng_streams_independent():
    a = derive_rng(7, "x").integers(0, 1 << 30, 10)
    b = derive_rng(7, "y").integers(0, 1 << 30, 10)
    assert (a != b).any()


def test_seed_in_31_bit_range():
    for seed in (0, 1, 2**31 - 1, 123456789):
        s = derive_seed(seed, "k")
        assert 0 <= s < 2**31


def _memo_ints():
    return sum(len(p) for p in rng_mod._permutations.values())


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(rng_mod, "_permutations", {})
    monkeypatch.setattr(rng_mod, "_memo_ints", 0)


class TestPermutationMemo:
    @pytest.mark.parametrize(
        "seed,p,node",
        [
            (0, 8, 0), (1, 32, 31), (7, 16, 5), (123, 128, 64), (5, 2, 1),
            (9, 1, 0),
        ],
    )
    def test_destination_order_is_the_uncached_shuffle(
        self, empty_memo, seed, p, node
    ):
        # What DirectProgramBase.destination_order computed before the
        # memo: the other ranks as an array, shuffled in place.
        want = np.delete(np.arange(p, dtype=np.int64), node)
        derive_rng(seed, "destorder", node).shuffle(want)
        for _ in range(2):  # computed, then served from the memo
            got = shuffled_others(seed, "destorder", node, p, node)
            assert got == want.tolist()

    @pytest.mark.parametrize(
        "key,seed,node,extent,skip",
        [
            ("vmesh1", 0, 3, 8, 3),
            ("vmesh1", 4, 17, 4, 0),
            ("vmesh2", 2, 9, 16, 15),
            ("vmesh2", 9, 0, 2, 1),
        ],
    )
    def test_vmesh_shuffles_are_the_uncached_shuffle(
        self, empty_memo, key, seed, node, extent, skip
    ):
        # What VMeshProgram computed before the memo: a Python list of
        # the other rows (or columns), shuffled in place.
        want = [i for i in range(extent) if i != skip]
        derive_rng(seed, key, node).shuffle(want)
        for _ in range(2):
            assert shuffled_others(seed, key, node, extent, skip) == want

    def test_one_entry_serves_every_skip(self, empty_memo):
        a = shuffled_others(3, "destorder", 4, 32, 4)
        assert shuffled_others(3, "destorder", 4, 32, 4) == a
        want = list(range(1, 32))
        derive_rng(3, "destorder", 4).shuffle(want)
        assert shuffled_others(3, "destorder", 4, 32, 0) == want
        assert len(rng_mod._permutations) == 1
        shuffled_others(3, "destorder", 5, 32, 5)
        assert len(rng_mod._permutations) == 2

    def test_never_holds_more_than_its_bound(self, empty_memo, monkeypatch):
        monkeypatch.setattr(rng_mod, "PERMUTATION_MEMO_INTS", 100)
        for node in range(40):
            shuffled_others(0, "destorder", node, 32, node)
            assert rng_mod._memo_ints == _memo_ints() <= 100
        # The newest entries stay; the oldest went first.
        assert list(rng_mod._permutations) == [
            (0, "destorder", node, 32) for node in (37, 38, 39)
        ]
        # An order longer than the bound is returned, not kept.
        long = shuffled_others(0, "destorder", 0, 102, 0)
        assert sorted(long) == list(range(1, 102))
        assert rng_mod._memo_ints == _memo_ints() <= 100
