"""Exact arithmetic in finitely generated abelian groups Z^r + Z/m_1 + ... + Z/m_k.

Degree-zero divisor classes on an elliptic curve enter the cover
constructions in this package only through finitely many points, their
integer combinations and their torsion.  A free-by-finite group therefore
models Pic^0 faithfully for every equivalence test we need, provided the
arithmetic is exact: free coordinates are unbounded Python integers and
torsion coordinates are kept reduced to the range [0, m_i).

The free part is stored sparsely, as its nonzero coordinates only: the
family's points each involve one or two of its 2n+1 free generators, so
arithmetic costs O(nonzeros + number of torsion factors), not O(rank).
Only the dense constructor :meth:`GroupSpec.element` and the dense view
``free`` touch every coordinate.

Everything here is an immutable, hashable named tuple; operations are pure
functions, so values can be shared freely between threads or tasks.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, NamedTuple


class _GroupSpecFields(NamedTuple):
    rank: int
    torsion_orders: tuple[int, ...] = ()


class GroupSpec(_GroupSpecFields):
    """Shape of the group Z^rank + Z/m_1 + ... + Z/m_k."""

    __slots__ = ()

    def __new__(cls, rank: int, torsion_orders: Iterable[int] = ()) -> "GroupSpec":
        torsion_orders = tuple(torsion_orders)
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if any(m < 2 for m in torsion_orders):
            raise ValueError("torsion orders must all be >= 2")
        return super().__new__(cls, rank, torsion_orders)

    @classmethod
    def _make(cls, iterable: Iterable) -> "GroupSpec":
        return cls(*iterable)  # so _replace checks as the constructor does

    def element(self, free=(), tors=()) -> "GroupElement":
        """The element with dense free coordinates ``free`` and torsion
        coordinates ``tors`` (reduced here).  Each nonzero free coordinate and
        each reduced torsion coordinate must be an ``int``, else ValueError:
        ``True`` and ``1.0`` equal 1, but a file would hold them as ``true``
        and ``1.0``, which the reader refuses."""
        if type(free) is not list:  # a parsed list is scanned in place, not copied
            free = tuple(free)
        tors = tuple(tors)
        if len(free) != self.rank:
            raise ValueError(f"free part has length {len(free)}, expected {self.rank}")
        if len(tors) != len(self.torsion_orders):
            raise ValueError(
                f"torsion part has length {len(tors)}, "
                f"expected {len(self.torsion_orders)}"
            )
        terms = []
        i = 0
        for v in filter(None, free):  # the nonzero coordinates; both scans run in C
            if type(v) is not int:
                raise ValueError(f"free coordinates must be integers, got {v!r}")
            i = free.index(v, i)
            terms.append((i, v))
            i += 1
        tors = self._reduce(tors)
        if operator.countOf(map(type, tors), int) != len(tors):  # 1.0 % 2 stays a float
            raise ValueError(f"torsion coordinates must be integers, got {list(tors)}")
        return GroupElement(self, terms=tuple(terms), tors=tors)

    def _reduce(self, tors: Iterable[int]) -> tuple[int, ...]:
        return tuple(map(operator.mod, tors, self.torsion_orders))

    def zero(self) -> "GroupElement":
        return GroupElement(self, terms=(), tors=(0,) * len(self.torsion_orders))

    def free_generator(self, i: int) -> "GroupElement":
        """Standard basis vector of the free part."""
        if not 0 <= i < self.rank:
            raise IndexError(f"free generator index {i} out of range")
        return GroupElement(self, terms=((i, 1),), tors=(0,) * len(self.torsion_orders))

    def torsion_generator(self, j: int) -> "GroupElement":
        """Generator of the j-th cyclic torsion factor."""
        if not 0 <= j < len(self.torsion_orders):
            raise IndexError(f"torsion generator index {j} out of range")
        tors = tuple(1 if i == j else 0 for i in range(len(self.torsion_orders)))
        return GroupElement(self, terms=(), tors=tors)

    def two_torsion(self) -> tuple["GroupElement", ...]:
        """All solutions of 2x = 0, the halvings of zero, sorted by torsion
        coordinates: each is 0, or m_i/2 when m_i is even."""
        return halvings(self.zero())

    def elements(self):
        """Iterate the whole group.  Only finite groups (rank 0) qualify."""
        if self.rank > 0:
            raise ValueError("cannot enumerate a group of positive rank")
        for combo in itertools.product(*(range(m) for m in self.torsion_orders)):
            yield GroupElement(self, terms=(), tors=combo)

    def sum(self, elements: Iterable["GroupElement"]) -> "GroupElement":
        """The sum of ``elements`` in one pass; the empty sum is zero."""
        free: dict[int, int] = {}
        tors = (0,) * len(self.torsion_orders)
        for x in elements:
            _check_spec(self, x.spec)
            for i, v in x.terms:
                free[i] = free.get(i, 0) + v
            tors = tuple(map(operator.add, tors, x.tors))
        terms = tuple(sorted(item for item in free.items() if item[1]))
        return GroupElement(self, terms=terms, tors=self._reduce(tors))


def _check_spec(a: GroupSpec, b: GroupSpec) -> None:
    if a is not b and a != b:
        raise ValueError("elements of different groups cannot be combined")


class _GroupElementFields(NamedTuple):
    spec: GroupSpec
    terms: tuple[tuple[int, int], ...]
    tors: tuple[int, ...]


class GroupElement(_GroupElementFields):
    """An element, split into free and torsion coordinates.

    ``terms`` holds the nonzero free coordinates as (index, value) pairs in
    increasing index order; ``tors`` holds every torsion coordinate, reduced.
    Both are canonical, so equality and hashing are plain componentwise
    ones.  Build elements through :meth:`GroupSpec.element`, which takes
    dense coordinates.  The constructor trusts its arguments; ``terms`` and
    ``tors`` are keyword-only, so a dense positional call fails loudly.
    """

    __slots__ = ()

    def __new__(cls, spec: GroupSpec, *, terms: tuple, tors: tuple) -> "GroupElement":
        return tuple.__new__(cls, (spec, terms, tors))

    def __getnewargs_ex__(self) -> tuple[tuple, dict]:  # for copy and pickle
        return (self.spec,), {"terms": self.terms, "tors": self.tors}

    @property
    def free(self) -> tuple[int, ...]:
        """The dense free coordinates, all ``spec.rank`` of them."""
        free = [0] * self.spec.rank
        for i, v in self.terms:
            free[i] = v
        return tuple(free)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return self.spec.sum((self, other))

    def __neg__(self) -> "GroupElement":
        return self * -1

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
            return NotImplemented
        terms = tuple((i, k * v) for i, v in self.terms) if k else ()
        return GroupElement(
            self.spec, terms=terms, tors=self.spec._reduce(k * a for a in self.tors)
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms and not any(self.tors)

    def __repr__(self) -> str:
        return f"({list(self.free)}; {list(self.tors)})"


def halvings(x: GroupElement) -> tuple[GroupElement, ...]:
    """The complete solution set of 2y = x, sorted by torsion coordinates.

    Empty when x is not divisible by 2.  When nonempty the solutions form a
    coset of the 2-torsion subgroup, so their number equals the number of
    2-torsion elements of the group.
    """
    if any(v % 2 for _, v in x.terms):
        return ()
    half_terms = tuple((i, v // 2) for i, v in x.terms)
    per_coord: list[tuple[int, ...]] = []
    for v, m in zip(x.tors, x.spec.torsion_orders):
        if m % 2 == 1:
            per_coord.append(((v * pow(2, -1, m)) % m,))
        elif v % 2 == 0:
            per_coord.append((v // 2, v // 2 + m // 2))
        else:
            return ()
    found = [
        GroupElement(x.spec, terms=half_terms, tors=combo)
        for combo in itertools.product(*per_coord)
    ]
    return tuple(sorted(found, key=lambda e: e.tors))
