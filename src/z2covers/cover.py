"""Building data for Z_2^n covers of the product surface, and its verification.

A cover is described by a divisor class L_chi for every nontrivial
character and an effective branch divisor D_sigma for every nontrivial
group element (possibly empty).  The data defines a cover exactly when
every L_chi is a nonzero class, the total branch divisor is reduced, and
the defect of every pair of nontrivial characters vanishes:

    f(chi, chi') = L_chi + L_chi' - L_{chi.chi'} - sum of D_sigma over the
                   sigma with chi(sigma) = chi'(sigma) = -1,

L of the trivial character read as 0; chi = chi' gives the "diagonal" relations.
f is a symmetric 2-cocycle in any abelian group, so one that vanishes on the
2^n - 1 rows of :func:`generating_relations`, G(n), vanishes everywhere
(Pardini 1991).  Let L' be the completion of the generators along G's other
rows (:func:`complete`), delta = L - L' and d_e = f(e, e) for each generator
e.  Then every pair's defect is

    f(a, b) = sum of d_e over the e in both a and b + delta_a + delta_b - delta_{a.b}.

Proof: the defect of L' and the carry sum, a cocycle too, agree on G, hence
everywhere; L and L' share D, so f adds delta_a + delta_b - delta_{a.b} to it.
The verifier, the curve oracle and :func:`derive_from_generators` run the one
completion, and :func:`cocycle_failures` lists every failing pair from it.
:class:`BuildingData` (n read from its characters) is the one gate for shape.

Branch components here are always whole fibers of one of the two rulings,
held as the file holds them: a :class:`Fiber` of kind "E" or "F" and the
label of the point it lies over.  The classes of the points are registered
once, in the data's ``points_c``.  That restriction keeps the smoothness
criterion purely combinatorial: fibers of the same ruling are disjoint once
they are distinct, and fibers of opposite rulings meet exactly once,
transversally.  So the total branch locus is a simple normal crossings
divisor as soon as its components are pairwise distinct and distinct point
labels on the elliptic curve carry distinct degree-zero classes.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .abgroup import GroupElement, GroupSpec
from .characters import Character, CoverElement, nontrivial_characters, nontrivial_elements
from .picard import SurfaceClass


class Fiber(NamedTuple):
    """A branch component: the whole fiber over the point ``label``.

    Kind "E" is the elliptic fiber {t} x C over a point of the rational
    curve, kind "F" the rational fiber P1 x {p} over a point of the
    elliptic curve.
    """

    kind: str
    label: str


def branch_class(
    fibers: Sequence[Fiber], points_c: Mapping[str, GroupElement], spec: GroupSpec
) -> SurfaceClass:
    """Class of a sum of fibers; the empty sum is the zero class.

    Each E fiber adds E and each F fiber adds (1, class of its point) from
    the registry ``points_c``, so the sum counts the first kind and adds the
    points of the second in one pass.
    """
    points = [points_c[fiber.label] for fiber in fibers if fiber.kind == "F"]
    return SurfaceClass(len(fibers) - len(points), len(points), spec.sum(points))


class _BuildingDataFields(NamedTuple):
    group_spec: GroupSpec
    points_c: Mapping[str, GroupElement]
    points_p1: tuple[str, ...]
    L: Mapping[Character, SurfaceClass]
    D: Mapping[CoverElement, tuple[Fiber, ...]]


class BuildingData(_BuildingDataFields):
    """Candidate building data for a Z_2^n cover, n in 1..8 read from L as ``n``.

    ``points_c`` maps the label of every named point of the elliptic curve to
    its degree-zero class, and ``points_p1`` lists the labels of the named
    points of the rational curve, including points that appear only through
    the classes L_chi.  Construction validates shape only, with ValueError (L
    keyed by exactly the nontrivial characters of one Z_2^n, every fiber of
    kind "E" or "F" over a point registered for its kind, one group model
    throughout); whether the data defines a smooth cover is the verifiers'
    business, and they report rather than raise.

    The instance is immutable; its ``__dict__`` holds only the memos of
    :attr:`verification` and :func:`~z2covers.invariants.compute_invariants`.
    ``_replace`` builds through the constructor, so it checks shape too.
    """

    def __new__(
        cls,
        group_spec: GroupSpec,
        points_c: Mapping[str, GroupElement],
        points_p1: Iterable[str],
        L: Mapping[Character, SurfaceClass],
        D: Mapping[CoverElement, Iterable[Fiber]],
    ) -> "BuildingData":
        L = dict(L)
        if not all(isinstance(chi, Character) for chi in L):
            raise ValueError("L must be keyed by characters")
        lengths = {chi.n for chi in L}
        if len(lengths) != 1:
            raise ValueError("characters of mixed bit length" if L else "no characters present")
        (n,) = lengths
        chars, sigmas = nontrivial_characters(n), nontrivial_elements(n)

        points_c = dict(points_c)
        for label, aj in points_c.items():
            if aj.spec != group_spec:
                raise ValueError(f"point {label!r} lives in a different group model")
        points_p1 = tuple(points_p1)
        if len(set(points_p1)) != len(points_p1):
            raise ValueError("duplicate labels among rational-curve points")
        registered = {
            "E": ("rational-curve", frozenset(points_p1)),
            "F": ("elliptic-curve", points_c),
        }

        if set(L) != set(chars):
            raise ValueError("need a class L_chi for exactly the nontrivial characters")
        for chi, value in L.items():
            if value.spec != group_spec:
                raise ValueError(f"L_{chi} lives in a different group model")

        branch = {sigma: tuple(D.get(sigma, ())) for sigma in sigmas}
        if not set(D) <= set(sigmas):
            raise ValueError("branch divisors must be indexed by nontrivial group elements")
        for fiber in itertools.chain.from_iterable(branch.values()):
            if fiber.kind not in ("E", "F"):  # compared, not hashed: a kind from JSON may be a list
                raise ValueError(f"unknown component kind {fiber.kind!r}")
            curve, labels = registered[fiber.kind]
            if fiber.label not in labels:
                raise ValueError(f"component over unregistered {curve} point {fiber.label!r}")

        return super().__new__(cls, group_spec, MappingProxyType(points_c), points_p1,
                               MappingProxyType(L), MappingProxyType(branch))

    @classmethod
    def _make(cls, iterable: Iterable) -> "BuildingData":
        return cls(*iterable)  # so _replace runs the checks above

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return next(iter(self.L)).n

    @property
    def characters(self) -> tuple[Character, ...]:
        return nontrivial_characters(self.n)

    @property
    def elements(self) -> tuple[CoverElement, ...]:
        return nontrivial_elements(self.n)

    def branch(self, sigma: CoverElement) -> tuple[Fiber, ...]:
        return self.D.get(sigma, ())

    def branch_class_of(self, sigma: CoverElement) -> SurfaceClass:
        return branch_class(self.branch(sigma), self.points_c, self.group_spec)

    def total_branch_class(self) -> SurfaceClass:
        fibers = [fiber for sigma in self.elements for fiber in self.branch(sigma)]
        return branch_class(fibers, self.points_c, self.group_spec)

    @property
    def pair_count(self) -> int:
        """2^(n-1) (2^n - 1), the pairs of nontrivial characters, diagonal included."""
        return 2 ** (self.n - 1) * (2**self.n - 1)

    def class_sum(self, classes: Sequence[SurfaceClass]) -> SurfaceClass:
        """The sum of ``classes`` by one sum in the group model; the empty sum is zero."""
        pic0 = self.group_spec.sum(c.pic0 for c in classes)
        return SurfaceClass(sum(c.a for c in classes), sum(c.degree for c in classes), pic0)

    @cached_property
    def verification(self) -> VerificationReport:
        """The report of :func:`verify_relations`, computed once per instance: one
        sum per row of G and per branch class, and a class per failing pair."""
        minus_b = {sigma: -self.branch_class_of(sigma) for sigma in self.elements}
        failing = cocycle_failures(self.n, self.L, minus_b, self.class_sum, operator.neg)
        failed = tuple(RelationFailure(a, b, lhs := self.L[a] + self.L[b], lhs - f)
                       for a, b, f in failing)
        trivial = tuple(chi for chi in self.characters if self.L[chi].is_zero())
        return VerificationReport(not failed and not trivial, self.pair_count, failed, trivial)


class Relation(NamedTuple):
    """L_chi + L_chi' == L_product + sum of D_sigma over ``sigmas``, the sigma
    with chi(sigma) = chi'(sigma) = -1; ``product`` is None when trivial."""

    chi: Character
    chi_prime: Character
    product: Character | None
    sigmas: tuple[CoverElement, ...]


@lru_cache(maxsize=None)
def generating_relations(n: int) -> tuple[Relation, ...]:
    """G(n), the 2^n - 1 rows (c, e), e of weight one and c <= e, in table order:
    each generator diagonal (e, e), and (chi.h, h) for every chi of weight >= 2,
    h its highest generator.  chi(sigma) = -1 exactly when the masks of chi
    and sigma share an odd number of bits."""
    chars, elements = nontrivial_characters(n), nontrivial_elements(n)
    rows = []
    for c in chars:
        odd = [s for s in elements if (c.mask & s.mask).bit_count() & 1]
        for e in (e for e in chars if e.mask.bit_count() == 1 and c.mask <= e.mask):
            sigmas = tuple(s for s in odd if e.mask & s.mask)
            rows.append(Relation(c, e, None if c == e else c * e, sigmas))
    return tuple(rows)


def complete(n: int, L: Mapping, minus_b: Mapping, total) -> dict:
    """L', the completion along G(n): L on the generators, and each other chi from
    G's row (chi.h, h) in table order, L'_chi = total([L'_{chi.h}, L_h, -B_sigma...]).
    ``minus_b`` maps each nontrivial element sigma to -B_sigma, and ``total`` sums a
    list in the arithmetic of the values.  Only the generators of ``L`` are read."""
    completed = dict(L)
    for r in generating_relations(n):  # the row completing chi.h comes before (chi.h, h)
        if r.product is not None:
            terms = [completed[r.chi], completed[r.chi_prime], *(minus_b[s] for s in r.sigmas)]
            completed[r.product] = total(terms)
    return completed


def cocycle_failures(n: int, L: Mapping, minus_b: Mapping, total, neg) -> list[tuple[Any, ...]]:
    """Each pair (chi, chi', f) with a nonzero defect f, in table order, by the
    module docstring's identity: d_e from the generator diagonals of G(n) and
    delta = L - L' from :func:`complete`, with ``minus_b`` and ``total`` as there.
    ``neg`` runs only where delta is nonzero, and the pair loop only where d or
    delta is."""
    zero, completed = total(()), complete(n, L, minus_b, total)
    d = {r.chi.mask: f for r in generating_relations(n) if r.product is None
         if (f := total([L[r.chi], L[r.chi], *(minus_b[s] for s in r.sigmas)])) != zero}
    delta = {chi.mask: total([L[chi], neg(v)]) for chi, v in completed.items() if L[chi] != v}
    if not d and not delta:
        return []
    carries, chars, failing = reduce(operator.or_, d, 0), nontrivial_characters(n), []
    for a in range(1, 1 << n):
        for b in range(a, 1 << n):
            if a & b & carries or a in delta or b in delta or a ^ b in delta:
                terms = [d[e] for e in d if a & b & e] + [delta[x] for x in (a, b) if x in delta]
                f = total(terms + [neg(delta[a ^ b])] if a ^ b in delta else terms)
                if f != zero:
                    failing.append((chars[a - 1], chars[b - 1], f))
    return failing


class RelationFailure(NamedTuple):
    chi: Character
    chi_prime: Character
    lhs: SurfaceClass
    rhs: SurfaceClass


class VerificationReport(NamedTuple):
    """Outcome of checking the cover relations over all character pairs.

    ``failures`` lists every violated pair with both sides.
    ``trivial_characters`` flags characters whose class is zero, a distinct
    failure kind: such data never describes a connected cover of degree
    2^n, whatever the relations say.  ``ok`` requires both lists empty.
    """

    ok: bool
    pairs_checked: int
    failures: tuple[RelationFailure, ...]
    trivial_characters: tuple[Character, ...]


def verify_relations(bd: BuildingData) -> VerificationReport:
    """Decide every pair of nontrivial characters, diagonal included, and list the
    failing ones in table order, once per instance: :attr:`BuildingData.verification`."""
    return bd.verification


class SmoothnessReport(NamedTuple):
    """Combinatorial smoothness evidence for the total branch locus.

    ``reduced``: all branch components pairwise distinct.
    ``injective_points``: distinct registered labels on the elliptic curve
    carry distinct degree-zero classes.
    ``snc``: both of the above; for fiber-type components this already
    makes the branch locus simple normal crossings.
    ``independent_crossings``: no D_sigma holds both kinds of fiber.  Fibers
    of opposite kinds cross, and the cover is smooth over a crossing iff its
    two sigma are independent, i.e. distinct (Pardini 1991).  Smooth iff
    this and ``snc`` hold.
    """

    reduced: bool
    snc: bool
    injective_points: bool
    independent_crossings: bool


def verify_smoothness(bd: BuildingData) -> SmoothnessReport:
    """One pass over the components, one over the points and one over D: each
    set collapses exactly the duplicates a comparison of all pairs would find."""
    fibers = [fiber for sigma in bd.elements for fiber in bd.branch(sigma)]
    reduced = len(set(fibers)) == len(fibers)
    injective = len(set(bd.points_c.values())) == len(bd.points_c)
    independent = all(len({fiber.kind for fiber in bd.branch(sigma)}) < 2 for sigma in bd.elements)
    return SmoothnessReport(reduced, reduced and injective, injective, independent)


class ConsistencyError(ValueError):
    """Raised when generator data cannot be completed to valid building data."""

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


def derive_from_generators(
    generators: Mapping[Character, SurfaceClass],
    branch: Mapping[CoverElement, Sequence[Fiber]],
    *,
    group_spec: GroupSpec,
    points_c: Mapping[str, GroupElement] = (),
    points_p1: Sequence[str] = (),
) -> BuildingData:
    """Complete ``generators``, the k weight-one classes (k in 1..8), to full data.

    Every other class L_chi is set by :func:`complete`, so delta = 0 in the
    module docstring's identity: the completed data fails a relation only where
    a generator diagonal fails.  A ConsistencyError names those, else any zero
    class.
    """
    k = len(generators)
    chars = nontrivial_characters(k)  # a ValueError unless 1 <= k <= 8
    if set(generators) != {chi for chi in chars if chi.mask.bit_count() == 1}:
        raise ValueError(f"need the classes of exactly the {k} weight-one characters of Z_2^{k}")
    zero = SurfaceClass.zero(group_spec)
    # The shape is checked before any class is formed, with every L_chi zero;
    # keys other than the nontrivial elements are dropped, not refused.
    branch = {sigma: branch.get(sigma, ()) for sigma in nontrivial_elements(k)}
    draft = BuildingData(group_spec, points_c, points_p1, dict.fromkeys(chars, zero), branch)
    minus_b = {sigma: -draft.branch_class_of(sigma) for sigma in draft.elements}
    L = complete(k, generators, minus_b, draft.class_sum)

    bd = draft._replace(L=L)
    report = verify_relations(bd)
    if report.failures:
        diagonal = [f for f in report.failures if f.chi == f.chi_prime and f.chi in generators]
        raise ConsistencyError("diagonal relation fails for a generator character", diagonal)
    if report.trivial_characters:
        names = ", ".join(f"L_{chi}" for chi in report.trivial_characters)
        raise ConsistencyError(f"completed data has zero classes: {names}", report.trivial_characters)
    return bd
