"""Graded layer: direct sums, covered comultiplication, graded antipode,
counit, and the crossing action."""

import itertools
from fractions import Fraction

import pytest

from mhag import (GroupPairing, comul_covered, crossing_apply, dcp_mul,
                  graded_counit)
from mhag.cograded import graded_antipode
from mhag.groups import (AutPair, PermGroup, TableGroup, aut_pair_inv,
                         aut_pair_mul, identity_aut, inner_aut, map_aut)
from mhag.linear import LinComb
from mhag.oracle import group_antipode, group_comul_covered, group_counit

from conftest import perm

Z4 = TableGroup.cyclic(4)
S3 = PermGroup.symmetric(3)
PZ4 = GroupPairing(Z4)
PS3 = GroupPairing(S3)

I4 = identity_aut(Z4)
INV4 = map_aut(Z4, {k: (-k) % 4 for k in range(4)})
Z4_GRADINGS = [AutPair(I4, I4), AutPair(I4, INV4),
               AutPair(INV4, I4), AutPair(INV4, INV4)]
E4 = AutPair(I4, I4)


def crossed_basis(P):
    return [(la, lb) for la in P.A.basis_labels(None)
            for lb in P.B.basis_labels(None)]


class TestGradedCounit:
    def test_matches_closed_form(self):
        for t in crossed_basis(PZ4):
            assert graded_counit(PZ4, LinComb.unit(t)) == group_counit(PZ4, t)

    def test_supported_at_identity_point(self):
        assert graded_counit(PZ4, LinComb.unit((0, 3))) == Fraction(1)
        assert graded_counit(PZ4, LinComb.unit((2, 3))) == Fraction(0)


class TestGradedAntipode:
    def test_matches_closed_form_all_gradings(self):
        for g in Z4_GRADINGS:
            for t in crossed_basis(PZ4):
                _, expected = group_antipode(PZ4, g, t)
                assert graded_antipode(PZ4, g, LinComb.unit(t)) == expected

    def test_inverse_roundtrip(self):
        for g in Z4_GRADINGS:
            for t in crossed_basis(PZ4):
                x = LinComb.unit(t)
                s = graded_antipode(PZ4, g, x)
                back = graded_antipode(PZ4, aut_pair_inv(g), s, inverse=True)
                assert back == x


class TestCoveredComul:
    def test_matches_closed_form_all_splits(self):
        basis = crossed_basis(PZ4)
        for p, q in itertools.product(Z4_GRADINGS, Z4_GRADINGS):
            for t, cover in itertools.product(basis, basis):
                eng = comul_covered(PZ4, LinComb.unit(t), p, q,
                                    LinComb.unit(cover), side="right")
                assert eng == group_comul_covered(PZ4, p, q, t, cover)

    def test_sides_agree_through_the_counit(self):
        # contracting the counit against either covered side returns the
        # component product with the cover
        q = Z4_GRADINGS[1]
        for t, cover in itertools.islice(
                itertools.product(crossed_basis(PZ4), repeat=2), 0, None, 5):
            x, y = LinComb.unit(t), LinComb.unit(cover)
            cc = comul_covered(PZ4, x, E4, q, y, side="right")
            picked = LinComb.zero()
            for (a1, b1, a2, b2), c in cc.terms.items():
                eps = graded_counit(PZ4, LinComb.unit((a1, b1)))
                if eps != 0:
                    picked = picked.add(LinComb.unit((a2, b2), c * eps))
            assert picked == dcp_mul(PZ4, q, x, y)

    def test_left_side_needs_unital_cover_algebra(self):
        q = Z4_GRADINGS[2]
        t, cover = (1, 2), (3, 1)
        x, y = LinComb.unit(t), LinComb.unit(cover)
        cc = comul_covered(PZ4, x, q, E4, y, side="left")
        picked = LinComb.zero()
        for (a1, b1, a2, b2), c in cc.terms.items():
            eps = graded_counit(PZ4, LinComb.unit((a2, b2)))
            if eps != 0:
                picked = picked.add(LinComb.unit((a1, b1), c * eps))
        assert picked == dcp_mul(PZ4, q, y, x)


class TestCrossingAction:
    GRADINGS = [AutPair(inner_aut(S3, perm(g)), inner_aut(S3, perm(h)))
                for g in [(1, 0, 2), (1, 2, 0)]
                for h in [(0, 2, 1), (2, 1, 0)]]

    def test_unit_actor_is_identity(self):
        e = AutPair(identity_aut(S3), identity_aut(S3))
        for p in self.GRADINGS:
            for t in crossed_basis(PS3)[:6]:
                tgt, val = crossing_apply(PS3, e, p, LinComb.unit(t))
                assert tgt == p and val == LinComb.unit(t)

    def test_target_is_conjugated_grading(self):
        t_act, p = self.GRADINGS[0], self.GRADINGS[3]
        tgt, _ = crossing_apply(PS3, t_act, p, LinComb.unit((
            perm((0, 1, 2)), perm((1, 0, 2)))))
        assert tgt == aut_pair_mul(aut_pair_mul(t_act, p), aut_pair_inv(t_act))

    def test_composition(self):
        s, t = self.GRADINGS[1], self.GRADINGS[2]
        p = self.GRADINGS[0]
        for lab in crossed_basis(PS3)[:8]:
            x = LinComb.unit(lab)
            m1, v1 = crossing_apply(PS3, s, p, x)
            m2, v2 = crossing_apply(PS3, t, m1, v1)
            m3, v3 = crossing_apply(PS3, aut_pair_mul(t, s), p, x)
            assert (m2, v2) == (m3, v3)

    def test_algebra_morphism(self):
        t_act, p = self.GRADINGS[2], self.GRADINGS[1]
        basis = crossed_basis(PS3)
        for l1, l2 in itertools.islice(
                itertools.product(basis[:9], basis[:9]), 0, None, 4):
            x, y = LinComb.unit(l1), LinComb.unit(l2)
            tgt, vx = crossing_apply(PS3, t_act, p, x)
            _, vy = crossing_apply(PS3, t_act, p, y)
            _, vxy = crossing_apply(PS3, t_act, p, dcp_mul(PS3, p, x, y))
            assert dcp_mul(PS3, tgt, vx, vy) == vxy

    def test_inverse_roundtrip(self):
        t_act, p = self.GRADINGS[0], self.GRADINGS[3]
        for lab in crossed_basis(PS3)[:8]:
            x = LinComb.unit(lab)
            tgt, v = crossing_apply(PS3, t_act, p, x)
            back_g, back = crossing_apply(PS3, aut_pair_inv(t_act), tgt, v)
            assert back_g == p and back == x
