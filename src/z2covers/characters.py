"""The group Z_2^n, its characters, and the +-1 pairing between them.

Group elements index the branch divisors of an abelian cover, characters
index its line bundle classes.  Every character of Z_2^n is real valued,
so the pairing is a sign:

    chi_j(sigma) = (-1) ** <j, sigma>

with the inner product taken mod 2.  Characters and elements are written
as bit strings, e.g. "100" for the character that is -1 exactly on group
elements with first coordinate 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_BITS = 8


def _checked_bits(bits) -> tuple[int, ...]:
    bits = tuple(bits)
    if not 1 <= len(bits) <= MAX_BITS:
        raise ValueError(f"need between 1 and {MAX_BITS} components, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("components must be 0 or 1")
    return bits


@dataclass(frozen=True, order=True)
class CoverElement:
    """Element (a_1, ..., a_n) of Z_2^n."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _checked_bits(self.bits))

    @classmethod
    def from_string(cls, s: str) -> "CoverElement":
        return cls(tuple(int(c) for c in s))

    @property
    def n(self) -> int:
        return len(self.bits)

    def is_zero(self) -> bool:
        return not any(self.bits)

    def __add__(self, other: "CoverElement") -> "CoverElement":
        if self.n != other.n:
            raise ValueError("elements of different Z_2^n cannot be combined")
        return CoverElement(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True, order=True)
class Character:
    """Character (j_1, ..., j_n) of Z_2^n, acting by chi(a) = (-1)^<j,a>."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _checked_bits(self.bits))

    @classmethod
    def from_string(cls, s: str) -> "Character":
        return cls(tuple(int(c) for c in s))

    @property
    def n(self) -> int:
        return len(self.bits)

    def is_trivial(self) -> bool:
        return not any(self.bits)

    def __mul__(self, other: "Character") -> "Character":
        return mul(self, other)

    def __call__(self, sigma: CoverElement) -> int:
        return pair(self, sigma)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def pair(chi: Character, sigma: CoverElement) -> int:
    """Evaluate chi(sigma); the result is +1 or -1."""
    if chi.n != sigma.n:
        raise ValueError("character and element live in different Z_2^n")
    dot = sum(j * a for j, a in zip(chi.bits, sigma.bits))
    return -1 if dot % 2 else 1


def mul(chi: Character, other: Character) -> Character:
    """Product of characters; componentwise xor on the bit vectors."""
    if chi.n != other.n:
        raise ValueError("characters live in different Z_2^n")
    return Character(tuple(a ^ b for a, b in zip(chi.bits, other.bits)))


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"n must be between 1 and {MAX_BITS}")


@lru_cache(maxsize=None)
def nontrivial_characters(n: int) -> tuple[Character, ...]:
    """The 2^n - 1 nonzero characters, in lexicographic bit order."""
    _check_n(n)
    return tuple(
        Character(tuple((k >> (n - 1 - i)) & 1 for i in range(n)))
        for k in range(1, 1 << n)
    )


@lru_cache(maxsize=None)
def nontrivial_elements(n: int) -> tuple[CoverElement, ...]:
    """The 2^n - 1 nonzero group elements, in lexicographic bit order."""
    _check_n(n)
    return tuple(
        CoverElement(tuple((k >> (n - 1 - i)) & 1 for i in range(n)))
        for k in range(1, 1 << n)
    )


@lru_cache(maxsize=None)
def elements(n: int) -> tuple[CoverElement, ...]:
    """All 2^n group elements including zero, in lexicographic bit order."""
    _check_n(n)
    return tuple(
        CoverElement(tuple((k >> (n - 1 - i)) & 1 for i in range(n)))
        for k in range(1 << n)
    )
