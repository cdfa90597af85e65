"""Characters of Z_2^n and the sign pairing."""

import itertools

import pytest

from z2covers.characters import (
    Character,
    CoverElement,
    elements,
    nontrivial_characters,
    nontrivial_elements,
    pair,
)


def test_pairing_examples():
    chi100 = Character.from_string("100")
    assert pair(chi100, CoverElement.from_string("100")) == -1
    assert pair(chi100, CoverElement.from_string("011")) == 1
    assert pair(Character.from_string("111"), CoverElement.from_string("110")) == 1


def test_product_examples():
    assert Character.from_string("100") * Character.from_string("010") == Character.from_string("110")
    chi = Character.from_string("011")
    assert (chi * chi).is_trivial()
    assert Character.from_string("010") * Character.from_string("001") == Character.from_string("011")


def test_enumeration_counts_and_order():
    chars = nontrivial_characters(3)
    assert len(chars) == 7
    assert [str(c) for c in chars] == ["001", "010", "011", "100", "101", "110", "111"]
    assert [str(c) for c in nontrivial_characters(1)] == ["1"]
    assert [str(c) for c in nontrivial_characters(2)] == ["01", "10", "11"]
    assert [str(e) for e in nontrivial_elements(2)] == ["01", "10", "11"]
    assert len(elements(3)) == 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairing_is_multiplicative(n):
    for chi, chi_prime in itertools.product(nontrivial_characters(n), repeat=2):
        for sigma in elements(n):
            assert pair(chi * chi_prime, sigma) == pair(chi, sigma) * pair(chi_prime, sigma)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthogonality_of_nontrivial_characters(n):
    for chi in nontrivial_characters(n):
        assert sum(pair(chi, sigma) for sigma in elements(n)) == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        pair(Character.from_string("10"), CoverElement.from_string("100"))
    with pytest.raises(ValueError):
        Character.from_string("10") * Character.from_string("100")
    with pytest.raises(ValueError):
        CoverElement.from_string("10") + CoverElement.from_string("100")


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        nontrivial_characters(0)
    with pytest.raises(ValueError):
        nontrivial_elements(9)


def test_bad_bits_rejected():
    with pytest.raises(ValueError):
        Character((0, 2, 1))
    with pytest.raises(ValueError):
        CoverElement(())


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_a_character_never_equals_an_element(n):
    for chi, sigma in zip(nontrivial_characters(n), nontrivial_elements(n)):
        assert chi.bits == sigma.bits
        assert chi != sigma and sigma != chi
        assert len({chi, sigma}) == 2


@pytest.mark.parametrize("n", [1, 3, 8])
def test_sort_order_is_bit_string_order(n):
    for vectors in (nontrivial_characters(n), elements(n)):
        shuffled = sorted(vectors, key=lambda v: (v.mask * 37) % 256)
        assert [str(v) for v in sorted(shuffled)] == sorted(str(v) for v in vectors)
        assert [str(v) for v in vectors] == sorted(str(v) for v in vectors)
    mixed = [Character.from_string(s) for s in ("1", "00", "0", "10", "011", "1000")]
    assert [str(c) for c in sorted(mixed)] == sorted(str(c) for c in mixed)
    with pytest.raises(TypeError):
        Character.from_string("10") < CoverElement.from_string("11")


def test_hash_agrees_with_equality():
    for s in ("1", "0", "01", "110", "10110011"):
        again = Character(tuple(int(c) for c in s))
        assert again == Character.from_string(s) and hash(again) == hash(Character.from_string(s))
        assert again.bits == tuple(int(c) for c in s) and str(again) == s
    table = {chi: str(chi) for chi in nontrivial_characters(4)}
    assert all(table[Character.from_string(s)] == s for s in table.values())


@pytest.mark.parametrize("text", ["", "１00", "1_0", " 10", "10 ", "102", "٠1", "111111111"])
def test_from_string_takes_only_ascii_bits(text):
    with pytest.raises(ValueError):
        Character.from_string(text)
    with pytest.raises(ValueError):
        CoverElement.from_string(text)
