"""Deterministic builder for a family of Z_2^3 covers of P1 x C.

For every n >= 2 the builder assembles building data over the group model

    Pic^0(C)  ~  Z^(2n+1) + Z/2 + Z/2

with free generators g_1..g_n (classes of the halved fibers F_ii),
h_1..h_n (classes of the fibers F_i) and u (class of F_1''), and the two
torsion generators t_1, t_2.  Derived points: F_i' carries 2 g_i - h_i, so
that 2 F_ii == F_i + F_i' holds by construction; F_2'' carries u - t_1 and
F_3'' carries u - t_1 - t_2, so the differences of the double-primed
fibers realise the three nontrivial 2-torsions

    eta_1 = t_1,  eta_2 = t_2,  eta_3 = t_1 + t_2.

Branch divisors: six distinct elliptic fibers E_1..E_6 split into three
pairs over the group elements 100, 101, 110, and the 2n fibers F_i, F_i'
sit over 111.  Classes (writing SF for the sum of the F_ii fibers):

    L_100 = 3E + SF             L_110 = 2E + eta_1
    L_010 =  E + SF + eta_1     L_101 = 2E + eta_2
    L_001 =  E + SF + eta_2     L_011 = 2E + eta_3
    L_111 =  E + SF + eta_3

Every point class is a distinct linear form in independent generators, so
all distinctness requirements hold automatically; the construction is
deterministic and involves no randomness.

Each halved fiber F_ii admits four choices differing by 2-torsion.  The
optional ``halving_choice`` selects, per index, one of the four solutions
of 2 y = F_i + F_i'; all choices produce data with identical invariants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .abgroup import GroupElement, GroupSpec
from .characters import Character, CoverElement, nontrivial_characters
from .cover import BuildingData, EllipticFiber, RationalFiber, relations
from .picard import CurveClass, PointOnC, PointOnP1, SurfaceClass

_HALVED_FIBER = re.compile(r"^F(\d+)_\1$")


def _torsion_offsets(spec: GroupSpec) -> tuple[GroupElement, ...]:
    t1 = spec.torsion_generator(0)
    t2 = spec.torsion_generator(1)
    return (spec.zero(), t1, t2, t1 + t2)


def construct_family(n: int, halving_choice: Sequence[int] | None = None) -> BuildingData:
    """Build the family member with n halved fibers.

    n >= 2 is accepted; n = 2 is the boundary case whose canonical map has
    degree 16 onto a quadric, while n >= 3 gives canonical degree 8.
    ``halving_choice`` is a sequence of n integers in 0..3 picking the
    2-torsion offset of each halved fiber (0 selects the canonical
    all-zero coset).
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("the family needs an integer n >= 2")
    if halving_choice is None:
        choice = (0,) * n
    else:
        choice = tuple(halving_choice)
        if len(choice) != n:
            raise ValueError(f"halving_choice needs exactly {n} entries")
        if any(c not in (0, 1, 2, 3) for c in choice):
            raise ValueError("halving_choice entries must be in 0..3")

    spec = GroupSpec(2 * n + 1, (2, 2))
    g = [spec.free_generator(i) for i in range(n)]
    h = [spec.free_generator(n + i) for i in range(n)]
    u = spec.free_generator(2 * n)
    offsets = _torsion_offsets(spec)
    t1, t2 = offsets[1], offsets[2]

    halved_aj = [g[i] + offsets[choice[i]] for i in range(n)]

    points_c: dict[str, PointOnC] = {}

    def register(label: str, aj: GroupElement) -> PointOnC:
        point = PointOnC(label, aj)
        points_c[label] = point
        return point

    plain = [register(f"F{i + 1}", h[i]) for i in range(n)]
    primed = [register(f"F{i + 1}'", 2 * halved_aj[i] - h[i]) for i in range(n)]
    for i in range(n):
        register(f"F{i + 1}_{i + 1}", halved_aj[i])
    register("F1''", u)
    register("F2''", u - t1)
    register("F3''", u - t1 - t2)

    points_p1 = tuple(PointOnP1(f"E{j + 1}") for j in range(6))

    e = SurfaceClass(1, CurveClass.zero(spec))
    sum_halved = SurfaceClass(0, CurveClass(n, spec.sum(halved_aj)))

    def torsion_class(t: GroupElement) -> SurfaceClass:
        return SurfaceClass(0, CurveClass(0, t))

    L = {
        Character.from_string("100"): 3 * e + sum_halved,
        Character.from_string("010"): e + sum_halved + torsion_class(t1),
        Character.from_string("001"): e + sum_halved + torsion_class(t2),
        Character.from_string("110"): 2 * e + torsion_class(t1),
        Character.from_string("101"): 2 * e + torsion_class(t2),
        Character.from_string("011"): 2 * e + torsion_class(t1 + t2),
        Character.from_string("111"): e + sum_halved + torsion_class(t1 + t2),
    }

    interleaved = []
    for i in range(n):
        interleaved.append(RationalFiber(plain[i]))
        interleaved.append(RationalFiber(primed[i]))
    D = {
        CoverElement.from_string("100"): (
            EllipticFiber(points_p1[0]), EllipticFiber(points_p1[1])),
        CoverElement.from_string("101"): (
            EllipticFiber(points_p1[2]), EllipticFiber(points_p1[3])),
        CoverElement.from_string("110"): (
            EllipticFiber(points_p1[4]), EllipticFiber(points_p1[5])),
        CoverElement.from_string("111"): tuple(interleaved),
    }

    return BuildingData(3, spec, points_c, points_p1, L, D)


def construct_etale(n: int = 3) -> BuildingData:
    """Degenerate comparison case: empty branch, all classes 2-torsion.

    The classes embed the character group into a (Z/2)^n torsion model, so
    every relation reduces to the character product and the cover is
    unramified.  Useful as the zero point of the invariant formulas.
    """
    spec = GroupSpec(0, (2,) * n)
    L = {
        chi: SurfaceClass(0, CurveClass(0, spec.element((), chi.bits)))
        for chi in nontrivial_characters(n)
    }
    return BuildingData(n, spec, {}, (), L, {})


def single_torsion_mutations(
    bd: BuildingData,
) -> Iterator[tuple[Character, GroupElement, BuildingData]]:
    """All variants of bd with one class shifted by one nonzero 2-torsion.

    For the standard family this yields 7 x 3 = 21 mutants, every one of
    which violates at least one cover relation.
    """
    shifts = [t for t in bd.group_spec.two_torsion() if not t.is_zero()]
    for chi in bd.characters:
        for t in shifts:
            shifted = dict(bd.L)
            shifted[chi] = bd.L[chi] + SurfaceClass(0, CurveClass(0, t))
            yield chi, t, replace(bd, L=shifted)


@dataclass(frozen=True)
class RelationRow:
    """One rendered row of the six defining relations of the family."""

    lhs_terms: tuple[str, str]
    middle_terms: tuple[str, ...]
    rhs_symbol: str
    lhs_class: SurfaceClass
    rhs_class: SurfaceClass
    equal: bool


def _family_shape(bd: BuildingData) -> tuple[int, GroupElement]:
    """Number of halved fibers and the sum of their classes; family data only."""
    if bd.n != 3 or bd.group_spec.torsion_orders != (2, 2):
        raise ValueError("relations table needs data built by construct_family")
    halved = [p for p in bd.points_c.values() if _HALVED_FIBER.match(p.label)]
    if len(halved) < 2:
        raise ValueError("relations table needs data built by construct_family")
    return len(halved), bd.group_spec.sum(p.aj for p in halved)


def _symbolize(cls: SurfaceClass, fiber_count: int, halved_sum: GroupElement) -> str:
    """Render a class of the family as  aE + k(sum F_ii) + eta."""
    spec = cls.spec
    if cls.c.degree % fiber_count:
        raise ValueError(f"cannot render degree {cls.c.degree} over {fiber_count} fibers")
    k = cls.c.degree // fiber_count
    residual = cls.c.pic0 - k * halved_sum
    if residual.terms:
        raise ValueError("class is not a combination of family generators")
    eta_names = {
        spec.zero().tors: None,
        spec.torsion_generator(0).tors: "η1",
        spec.torsion_generator(1).tors: "η2",
        (spec.torsion_generator(0) + spec.torsion_generator(1)).tors: "η3",
    }
    terms = [f"{cls.a}E"]
    if k == 1:
        terms.append("ΣF_ii")
    elif k:
        terms.append(f"{k}ΣF_ii")
    eta = eta_names[residual.tors]
    if eta:
        terms.append(eta)
    return " + ".join(terms)


def relations_table(bd: BuildingData) -> tuple[RelationRow, ...]:
    """The six generating relations of the family, rendered and checked.

    Each row carries the left-hand class, the branch-and-class sum on the
    right, the simplified symbolic form of that sum, and whether both
    sides agree.  Expects data built by :func:`construct_family` (possibly
    mutated); other data cannot be rendered in family symbols.
    """
    fiber_count, halved_sum = _family_shape(bd)
    branch = {sigma: bd.branch_class_of(sigma) for sigma in bd.elements}
    zero = SurfaceClass.zero(bd.group_spec)
    # Pairs of generators 100, 010, 001 from the top; the table reads (lower, higher).
    generator_rows = sorted(
        (r for r in relations(bd.n) if r.chi.mask.bit_count() == r.chi_prime.mask.bit_count() == 1),
        key=lambda r: (r.chi_prime, r.chi),
        reverse=True,
    )
    rows = []
    for r in generator_rows:
        lhs, rhs = r.sides(bd.L, branch, zero)
        middle = [f"D{sigma}" for sigma in r.sigmas if bd.branch(sigma)]
        if r.product is not None:
            middle.append(f"L{r.product}")
        rows.append(
            RelationRow(
                (f"L{r.chi_prime}", f"L{r.chi}"),
                tuple(middle),
                _symbolize(rhs, fiber_count, halved_sum),
                lhs,
                rhs,
                lhs == rhs,
            )
        )
    return tuple(rows)


def render_relations_table(rows: Sequence[RelationRow]) -> str:
    """Plain-text rendering, one relation per line."""
    lines = []
    for row in rows:
        verdict = "equal" if row.equal else "UNEQUAL"
        lines.append(
            f"{row.lhs_terms[0]} + {row.lhs_terms[1]} ≡ "
            f"{' + '.join(row.middle_terms)} ≡ {row.rhs_symbol}   [{verdict}]"
        )
    return "\n".join(lines)
