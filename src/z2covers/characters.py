"""The group Z_2^n, its characters, and the +-1 pairing between them.

Group elements index the branch divisors of an abelian cover, characters
index its line bundle classes.  Every character of Z_2^n is real valued,
so the pairing is a sign:

    chi_j(sigma) = (-1) ** <j, sigma>

with the inner product taken mod 2.  Characters and elements are written
as bit strings, e.g. "100" for the character that is -1 exactly on group
elements with first coordinate 1, and held as the int of that bit string,
so the inner product is the parity of the popcount of ``j & sigma``.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from typing import Iterable

MAX_BITS = 8


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"n must be between 1 and {MAX_BITS}, got {n}")


@total_ordering
class _BitVector:
    """A vector of Z_2^n held as the n-bit int ``mask``, first coordinate
    highest, and immutable.  Vectors of one subclass sort like their bit
    strings; a vector never equals one of another subclass, whatever its bits,
    which is why this is a plain class and not a tuple."""

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        _check_n(len(bits))
        if any(b not in (0, 1) for b in bits):
            raise ValueError("components must be 0 or 1")
        self.__dict__.update(n=len(bits), mask=int("".join("01"[b] for b in bits), 2))

    @classmethod
    def _of(cls, n: int, mask: int):
        vector = object.__new__(cls)
        vector.__dict__.update(n=n, mask=mask)
        return vector

    @classmethod
    def from_string(cls, s: str):
        """ASCII 0/1 only: ``int(s, 2)`` would also take ``_``, spaces, other digits."""
        if not 1 <= len(s) <= MAX_BITS or s.strip("01"):
            raise ValueError(f"need 1 to {MAX_BITS} ASCII bits 0/1, got {s!r}")
        return cls._of(len(s), int(s, 2))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in reversed(range(self.n)))

    def _xor(self, other):
        if self.n != other.n:
            raise ValueError("vectors of different Z_2^n cannot be combined")
        return self._of(self.n, self.mask ^ other.mask)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __lt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return str(self) < str(other)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, mask={self.mask!r})"

    def __str__(self) -> str:
        return format(self.mask, f"0{self.n}b")


class CoverElement(_BitVector):
    """Element (a_1, ..., a_n) of Z_2^n."""

    __add__ = _BitVector._xor

    def is_zero(self) -> bool:
        return not self.mask


def pair(chi: Character, sigma: CoverElement) -> int:
    """Evaluate chi(sigma); the result is +1 or -1."""
    if chi.n != sigma.n:
        raise ValueError("character and element live in different Z_2^n")
    return -1 if (chi.mask & sigma.mask).bit_count() & 1 else 1


class Character(_BitVector):
    """Character (j_1, ..., j_n) of Z_2^n, acting by chi(a) = (-1)^<j,a>."""

    __mul__ = _BitVector._xor

    def is_trivial(self) -> bool:
        return not self.mask


@lru_cache(maxsize=None)
def _vectors(cls: type, n: int, first: int) -> tuple:
    """The vectors of Z_2^n with masks first .. 2^n - 1, in lexicographic bit order."""
    _check_n(n)
    return tuple(cls._of(n, mask) for mask in range(first, 1 << n))


def nontrivial_characters(n: int) -> tuple[Character, ...]:
    """The 2^n - 1 nonzero characters, in lexicographic bit order."""
    return _vectors(Character, n, 1)


def nontrivial_elements(n: int) -> tuple[CoverElement, ...]:
    """The 2^n - 1 nonzero group elements, in lexicographic bit order."""
    return _vectors(CoverElement, n, 1)


def elements(n: int) -> tuple[CoverElement, ...]:
    """All 2^n group elements including zero, in lexicographic bit order."""
    return _vectors(CoverElement, n, 0)
