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

from typing import Any, Iterator, Sequence

from .abgroup import GroupElement, GroupSpec
from .characters import Character, CoverElement, nontrivial_characters
from .cover import BuildingData, Fiber, generating_relations, verify_relations
from .picard import SurfaceClass, elliptic_fiber_class


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

    points_c = {f"F{i + 1}": h[i] for i in range(n)}
    points_c.update((f"F{i + 1}'", 2 * halved_aj[i] - h[i]) for i in range(n))
    points_c.update((f"F{i + 1}_{i + 1}", halved_aj[i]) for i in range(n))
    points_c.update({"F1''": u, "F2''": u - t1, "F3''": u - t1 - t2})
    points_p1 = tuple(f"E{j + 1}" for j in range(6))

    e = elliptic_fiber_class(spec)
    sum_halved = SurfaceClass(0, n, spec.sum(halved_aj))
    L = {
        Character.from_string("100"): 3 * e + sum_halved,
        Character.from_string("010"): e + sum_halved + SurfaceClass(0, 0, t1),
        Character.from_string("001"): e + sum_halved + SurfaceClass(0, 0, t2),
        Character.from_string("110"): 2 * e + SurfaceClass(0, 0, t1),
        Character.from_string("101"): 2 * e + SurfaceClass(0, 0, t2),
        Character.from_string("011"): 2 * e + SurfaceClass(0, 0, t1 + t2),
        Character.from_string("111"): e + sum_halved + SurfaceClass(0, 0, t1 + t2),
    }

    E = [Fiber("E", label) for label in points_p1]
    D = {
        CoverElement.from_string("100"): (E[0], E[1]),
        CoverElement.from_string("101"): (E[2], E[3]),
        CoverElement.from_string("110"): (E[4], E[5]),
        CoverElement.from_string("111"): tuple(
            Fiber("F", label) for i in range(n) for label in (f"F{i + 1}", f"F{i + 1}'")
        ),
    }

    return BuildingData(spec, points_c, points_p1, L, D)


def construct_etale(n: int = 3) -> BuildingData:
    """Degenerate comparison case: empty branch, all classes 2-torsion.

    The classes embed the character group into a (Z/2)^n torsion model, so
    every relation reduces to the character product and the cover is
    unramified.  Useful as the zero point of the invariant formulas.
    """
    spec = GroupSpec(0, (2,) * n)
    L = {
        chi: SurfaceClass(0, 0, spec.element((), chi.bits))
        for chi in nontrivial_characters(n)
    }
    return BuildingData(spec, {}, (), L, {})


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
            shifted[chi] = bd.L[chi] + SurfaceClass(0, 0, t)
            yield chi, t, bd._replace(L=shifted)


def _twice_halved_sum(bd: BuildingData) -> SurfaceClass:
    """2 sum F_ii of family data, read from D_111 = sum (F_i + F_i'): each halved
    fiber has 2 F_ii == F_i + F_i'.  The torsion of D_111 is dropped, since
    twice any element of Z/2 + Z/2 is 0."""
    if bd.n != 3 or bd.group_spec.torsion_orders != (2, 2):
        raise ValueError("relations table needs data built by construct_family")
    d111 = bd.branch_class_of(CoverElement.from_string("111"))
    if d111.degree % 2 or d111.degree < 4:
        raise ValueError(f"relations table needs D111 of even degree >= 4, got {d111.degree}")
    return SurfaceClass(0, d111.degree, d111.pic0._replace(tors=(0, 0)))


# The family's 2-torsion over Z/2 + Z/2, named by its torsion coordinates.
_ETA_NAMES = {(0, 0): None, (1, 0): "η1", (0, 1): "η2", (1, 1): "η3"}


def _symbolize(cls: SurfaceClass, twice_halved: SurfaceClass) -> str:
    """Render a class of the family as  aE + k(sum F_ii) + eta, k even."""
    j, remainder = divmod(cls.degree, twice_halved.degree)
    if remainder:
        raise ValueError(f"cannot render degree {cls.degree} in units of 2ΣF_ii "
                         f"of degree {twice_halved.degree}")
    residual = cls.pic0 - j * twice_halved.pic0
    if residual.terms:
        raise ValueError("class is not a combination of family generators")
    terms = [f"{cls.a}E"]
    if j:
        terms.append(f"{2 * j}ΣF_ii")
    eta = _ETA_NAMES[residual.tors]
    if eta:
        terms.append(eta)
    return " + ".join(terms)


def relations_table(bd: BuildingData) -> list[dict[str, Any]]:
    """The six relations among the generator classes L100, L010, L001 as the
    JSON rows ``table`` prints; they do not generate the rest (L011 + L100 ==
    L111 + D101 + D110 is not among them).  ``lhs`` and ``middle`` name each
    side's terms.  No relation is evaluated here: ``equal`` is the verdict of
    :func:`verify_relations` and ``rhs`` the symbol of L_chi + L_chi', or of
    the verifier's right-hand class where the row fails, in the unit 2 sum
    F_ii read from D_111.  Expects data of the family's shape (possibly mutated).
    """
    twice_halved = _twice_halved_sum(bd)
    failures = {(f.chi, f.chi_prime): f for f in verify_relations(bd).failures}
    # G's rows among the generators 100, 010, 001, from the top; the table reads (lower, higher).
    generator_rows = sorted(
        (r for r in generating_relations(bd.n) if r.chi.mask.bit_count() == 1),
        key=lambda r: (r.chi_prime, r.chi),
        reverse=True,
    )
    rows = []
    for r in generator_rows:
        middle = [f"D{sigma}" for sigma in r.sigmas if bd.branch(sigma)]
        if r.product is not None:
            middle.append(f"L{r.product}")
        failure = failures.get((r.chi, r.chi_prime))
        rhs = bd.L[r.chi] + bd.L[r.chi_prime] if failure is None else failure.rhs
        rows.append({
            "lhs": [f"L{r.chi_prime}", f"L{r.chi}"],
            "middle": middle,
            "rhs": _symbolize(rhs, twice_halved),
            "equal": failure is None,
        })
    return rows


def render_relations_table(rows: Sequence[dict[str, Any]]) -> str:
    """Plain-text rendering of :func:`relations_table`'s rows, one relation per line."""
    return "\n".join(
        f"{' + '.join(row['lhs'])} ≡ {' + '.join(row['middle'])} ≡ {row['rhs']}   "
        f"[{'equal' if row['equal'] else 'UNEQUAL'}]"
        for row in rows
    )
