"""Divisor classes on the product surface: arithmetic, sections, maps."""

import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2covers.abgroup import GroupSpec
from z2covers.picard import (
    SurfaceClass,
    canonical_class,
    h0,
    intersect,
    is_base_point_free,
    map_analysis,
)

SPEC = GroupSpec(3, (2, 2))


def cls(a, degree, pic0=None):
    return SurfaceClass(a, degree, SPEC.zero() if pic0 is None else pic0)


# (a, degree, three free coordinates, two Z/2 coordinates) of a class over SPEC
VECTORS = st.tuples(*[st.integers(-3, 3)] * 5, st.integers(0, 1), st.integers(0, 1))


def flat(u):
    return (u.a, u.degree, *u.pic0.free, *u.pic0.tors)


def reduced(values):
    """A vector like VECTORS's with its Z/2 coordinates reduced."""
    values = tuple(values)
    return (*values[:5], *(v % 2 for v in values[5:]))


def eta1():
    return SPEC.torsion_generator(0)


class TestClassArithmetic:
    def test_adding_the_canonical_class(self):
        s = SPEC.element((1, 1, 1), (0, 0))
        assert cls(3, 3, s) + canonical_class(SPEC) == cls(1, 3, s)

    def test_zero_is_neutral(self):
        u = cls(2, 5, SPEC.element((0, 2, -1), (1, 0)))
        assert u + SurfaceClass.zero(SPEC) == u

    def test_torsion_cancels_under_doubling(self):
        u = cls(1, 0, eta1())
        assert u + u == cls(2, 0)

    @given(VECTORS, VECTORS, st.integers(-4, 4))
    def test_arithmetic_is_componentwise(self, x, y, k):
        u, v = (SurfaceClass(c[0], c[1], SPEC.element(c[2:5], c[5:])) for c in (x, y))
        assert flat(u + v) == reduced(map(operator.add, x, y))
        assert flat(u - v) == reduced(map(operator.sub, x, y))
        assert flat(-u) == reduced(-c for c in x)
        assert flat(k * u) == flat(u * k) == reduced(k * c for c in x)
        zero = SurfaceClass.zero(SPEC)
        assert flat(zero) == (0,) * 7 and zero.is_zero() and (u - u).is_zero()
        assert u.is_zero() == (x == (0,) * 7)

    def test_mismatched_group_models_rejected(self):
        other = GroupSpec(1)
        with pytest.raises(ValueError):
            cls(1, 0) + SurfaceClass(1, 0, other.zero())


class TestIntersection:
    def test_opposite_rulings_meet_once(self):
        assert intersect(cls(1, 0), cls(0, 1)) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 11])
    def test_branch_adjoint_square(self, n):
        assert intersect(cls(2, 2 * n), cls(2, 2 * n)) == 8 * n

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_canonical_generator_square(self, n):
        assert intersect(cls(1, n), cls(1, n)) == 2 * n

    def test_symmetric_and_bilinear(self):
        rng = random.Random(1)
        for _ in range(200):
            u = cls(rng.randrange(-4, 5), rng.randrange(-4, 5))
            v = cls(rng.randrange(-4, 5), rng.randrange(-4, 5))
            w = cls(rng.randrange(-4, 5), rng.randrange(-4, 5))
            assert intersect(u, v) == intersect(v, u)
            assert intersect(u + v, w) == intersect(u, w) + intersect(v, w)


class TestSections:
    def test_product_count(self):
        s = SPEC.element((1, 1, 1), (0, 0))
        assert h0(cls(1, 3, s)) == 6

    def test_nontrivial_torsion_kills_degree_zero(self):
        assert h0(cls(0, 0, eta1())) == 0

    def test_negative_rational_degree_kills_everything(self):
        assert h0(cls(-1, 3)) == 0
        assert h0(cls(2, -1)) == 0

    def test_exact_formula_in_the_ample_range(self):
        for a in range(0, 5):
            for d in range(1, 5):
                assert h0(cls(a, d)) == (a + 1) * d

    def test_riemann_roch_consistency(self):
        # chi(O(u)) = chi(O_Y) + u.(u - K_Y)/2 matches h0 once both factor
        # degrees push the higher cohomology away (a >= 0 and degree >= 1)
        ky = canonical_class(SPEC)
        for a in range(0, 6):
            for d in range(1, 6):
                u = cls(a, d)
                euler = (intersect(u, u) - intersect(u, ky)) // 2
                assert euler == h0(u)


class TestBasePoints:
    def test_family_generator_is_free(self):
        for n in (2, 3, 9):
            assert is_base_point_free(cls(1, n)) is True

    def test_trivial_system_is_free(self):
        assert is_base_point_free(cls(0, 0)) is True

    def test_degree_one_on_the_elliptic_factor_has_a_base_point(self):
        assert is_base_point_free(cls(2, 1, SPEC.element((1, 0, 0), (0, 0)))) is False

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            is_base_point_free(cls(-1, 2))


class TestMapAnalysis:
    def test_embedding_range(self):
        report = map_analysis(cls(1, 3))
        assert (report.image_dim, report.map_degree, report.image_degree) == (2, 1, 6)

    def test_double_cover_range(self):
        report = map_analysis(cls(1, 2))
        assert (report.image_dim, report.map_degree, report.image_degree) == (2, 2, 2)

    def test_constant_rational_factor_gives_a_curve(self):
        report = map_analysis(cls(0, 3))
        assert report.image_dim == 1
        assert report.map_degree is None and report.image_degree is None

    def test_everything_constant_gives_a_point(self):
        report = map_analysis(cls(0, 0))
        assert report.image_dim == 0

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            map_analysis(cls(-2, 1))

    def test_degree_times_image_equals_self_intersection(self):
        for a in range(1, 5):
            for d in range(2, 7):
                u = cls(a, d)
                report = map_analysis(u)
                assert report.image_dim == 2
                assert report.map_degree * report.image_degree == intersect(u, u)
