import random
from fractions import Fraction

from ramloci import formulas
from ramloci.bundles import (
    ChernPoly,
    jet_chern,
    moving_locus_class,
    porteous_c2,
    pushforward_c1,
    special_ramification_class,
    weierstrass_class,
)
from ramloci.chow import (
    DELTA,
    K1,
    K2,
    ChowClass,
    ChowRing,
    chow_integrate,
    chow_mul,
)


class TestPushforwardC1:
    def test_free_case(self):
        assert pushforward_c1(ChowRing(3), 0).is_zero()

    def test_first_step(self):
        assert pushforward_c1(ChowRing(2), 1) == ChowClass(cK1=-1)

    def test_j2(self):
        assert pushforward_c1(ChowRing(4), 2) == ChowClass(cK1=-3)

    def test_closed_form(self):
        ring = ChowRing(5)
        for j in range(10):
            assert pushforward_c1(ring, j) == ChowClass(cK1=Fraction(-j * (j + 1), 2))


class TestJetChern:
    def test_c1_small(self):
        ring = ChowRing(1)
        jet = jet_chern(ring, 0, 1)
        assert jet.c1 == 3 * K2 + 2 * DELTA

    def test_order_zero_is_line_bundle(self):
        ring = ChowRing(3)
        for i in (0, 2, 5):
            jet = jet_chern(ring, i, 0)
            assert jet.c1 == K2 + (i + 1) * DELTA
            assert jet.c2.is_zero()

    def test_c2_value(self):
        ring = ChowRing(2)
        jet = jet_chern(ring, 1, 3)
        # 60 K2.Delta + 24 Delta^2 integrates against (2, -2)
        assert chow_integrate(ring, jet.c2) == 72

    def test_truncation_recursion(self):
        for g in (1, 2, 4):
            ring = ChowRing(g)
            for i in range(4):
                for ell in range(1, 6):
                    previous = jet_chern(ring, i, ell - 1)
                    step = ChernPoly(ring, c1=(ell + 1) * K2 + (i + 1) * DELTA)
                    assert jet_chern(ring, i, ell) == previous * step


class TestPorteous:
    def test_trivial_divisor(self):
        rng = random.Random(2)
        ring = ChowRing(3)
        for _ in range(20):
            c1 = ChowClass(
                cK1=rng.randint(-4, 4), cK2=rng.randint(-4, 4), cDelta=rng.randint(-4, 4)
            )
            c2 = ChowClass(cPt=rng.randint(-9, 9))
            a = ChernPoly(ring, c1=c1, c2=c2)
            assert porteous_c2(a, ChernPoly(ring)) == c2

    def test_reduces_to_c2_minus_c1c1(self):
        # for a divisor pulled back from the first factor: c1^2 = c2 = 0
        ring = ChowRing(2)
        a = jet_chern(ring, 1, 3)
        b = ChernPoly(ring, c1=pushforward_c1(ring, 1))
        direct = a.c2 - chow_mul(ring, a.c1, b.c1)
        assert porteous_c2(a, b) == direct

    def test_moving_count_g2_i1(self):
        ring = ChowRing(2)
        assert chow_integrate(ring, moving_locus_class(ring, 1, jet_chern(ring, 1, 3))) == 128

    def test_moving_count_genus_one_vanishes(self):
        ring = ChowRing(1)
        for i in range(6):
            jets = jet_chern(ring, i, 1 + i)
            assert chow_integrate(ring, moving_locus_class(ring, i, jets)) == 0


class TestSpecialRamificationClass:
    def test_g2_i1(self):
        ring = ChowRing(2)
        w = weierstrass_class(ring, 1)
        assert chow_integrate(ring, special_ramification_class(ring, w)) == 140

    def test_i0_vanishes(self):
        for g in range(1, 7):
            ring = ChowRing(g)
            w = weierstrass_class(ring, 0)
            assert chow_integrate(ring, special_ramification_class(ring, w)) == 0

    def test_genus_one_vanishes(self):
        ring = ChowRing(1)
        for i in range(6):
            w = weierstrass_class(ring, i)
            assert chow_integrate(ring, special_ramification_class(ring, w)) == 0

    def test_given_weierstrass_class_is_used(self):
        ring = ChowRing(3)
        assert special_ramification_class(ring, K1) == chow_mul(ring, K1, K2 + K1)

    def test_engine_builds_the_weierstrass_class_once(self, monkeypatch):
        calls = []
        real = weierstrass_class

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(formulas, "weierstrass_class", counting)
        formulas.engine_polys.__wrapped__()
        assert len(calls) == 1

    def test_splitting_consistency_on_grid(self):
        # the two splitting identities hold pointwise for 1 <= g <= 8, 0 <= i <= 8
        for g in range(1, 9):
            ring = ChowRing(g)
            diag = g**3 - g
            for i in range(0, 9):
                w = weierstrass_class(ring, i)
                sw = chow_integrate(ring, special_ramification_class(ring, w))
                jets = jet_chern(ring, i, g + i)
                e_plus = chow_integrate(ring, moving_locus_class(ring, i, jets))
                e = e_plus - (g + 1) * diag
                d = sw - e
                assert sw == d + e
                assert d == g * (g - 1) * ((g + i - 1) ** 2 * (i + 1) ** 2 - (g - 1) ** 2)
                assert e == g * (g - 1) * ((g + i + 1) ** 2 * (i + 1) ** 2 - (g + 1) ** 2)


def test_k1_part_only_from_pushforward():
    ring = ChowRing(3)
    for j in range(5):
        w = weierstrass_class(ring, j)
        assert w.cK1 == Fraction(j * (j + 1), 2)
        assert w.c0 == 0 and w.cPt == 0
