import random
from fractions import Fraction

import pytest

from ramloci.chow import (
    DELTA,
    K1,
    K2,
    PT,
    ChowClass,
    ChowRing,
    chow_integrate,
    chow_mul,
)
from ramloci.bundles import weierstrass_class


def _random_class(rng):
    return ChowClass(*(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5)))


class TestRelations:
    def test_k1_k2(self):
        ring = ChowRing(3)
        assert chow_mul(ring, K1, K2) == PT.scale(16)

    def test_delta_squared(self):
        ring = ChowRing(2)
        assert chow_mul(ring, DELTA, DELTA) == PT.scale(-2)

    def test_k_squares_vanish(self):
        for g in (1, 2, 5):
            ring = ChowRing(g)
            assert chow_mul(ring, K1, K1).is_zero()
            assert chow_mul(ring, K2, K2).is_zero()

    def test_k_delta(self):
        ring = ChowRing(4)
        assert chow_mul(ring, K1, DELTA) == PT.scale(6)
        assert chow_mul(ring, K2, DELTA) == PT.scale(6)

    def test_point_annihilates_positive_degree(self):
        ring = ChowRing(2)
        assert chow_mul(ring, PT, K1 + DELTA).is_zero()
        assert chow_mul(ring, PT, ChowClass(c0=3)) == PT.scale(3)

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            ChowRing(0)


class TestIntegration:
    def test_point_normalisation(self):
        assert chow_integrate(ChowRing(5), PT) == 1

    def test_degree_one_integrates_to_zero(self):
        assert chow_integrate(ChowRing(3), K1) == 0

    def test_w_dot_delta_example(self):
        ring = ChowRing(2)
        w = weierstrass_class(ring, 1)
        assert chow_integrate(ring, chow_mul(ring, w, DELTA)) == 6


class TestWeierstrassClass:
    def test_g2_j1(self):
        w = weierstrass_class(ChowRing(2), 1)
        assert w == ChowClass(cK1=1, cK2=6, cDelta=4)

    def test_g1_j0(self):
        assert weierstrass_class(ChowRing(1), 0) == ChowClass(cK2=1)

    def test_j0_general(self):
        for g in range(1, 7):
            w = weierstrass_class(ChowRing(g), 0)
            assert w == ChowClass(cK2=Fraction(g * (g + 1), 2))

    def test_transversality_grid(self):
        for g in range(1, 9):
            ring = ChowRing(g)
            for j in range(0, 9):
                w = weierstrass_class(ring, j)
                n = chow_integrate(ring, chow_mul(ring, w, DELTA))
                assert n == g**3 - g


class TestRingAxioms:
    def test_commutative_associative_distributive(self):
        rng = random.Random(11)
        for g in (1, 2, 3, 7):
            ring = ChowRing(g)
            for _ in range(40):
                a, b, c = (_random_class(rng) for _ in range(3))
                ab = chow_mul(ring, a, b)
                assert ab == chow_mul(ring, b, a)
                assert chow_mul(ring, ab, c) == chow_mul(ring, a, chow_mul(ring, b, c))
                lhs = chow_mul(ring, a, b + c)
                assert lhs == chow_mul(ring, a, b) + chow_mul(ring, a, c)

    def test_grading(self):
        rng = random.Random(5)
        ring = ChowRing(4)
        for _ in range(25):
            a = ChowClass(0, *_random_class(rng).coords()[1:4])
            b = ChowClass(0, *_random_class(rng).coords()[1:4])
            p = chow_mul(ring, a, b)
            assert p.c0 == 0 and p.cK1 == 0 and p.cK2 == 0 and p.cDelta == 0
