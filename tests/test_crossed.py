"""Diagonal crossed product components: twists, embeddings, products."""

import itertools
import random
from fractions import Fraction

import pytest

from mhag import (EnumSpec, GroupPairing, IntGroup, commutation_residual,
                  dcp_mul, twist_inv, twist_map)
from mhag import linear
from mhag.cograded import graded_antipode
from mhag.crossed import _move, b_embed_left
from mhag.groups import (AutPair, TableGroup, identity_aut, map_aut,
                         negation_aut)
from mhag.linear import MEMO_CAP, LinComb
from mhag.oracle import group_mul

from conftest import (IDENT, NEG, S3, engine_cases, group_instance,
                      make_session, memo_cases, perm, s3_gradings, sampled,
                      session_spec)

Z4 = TableGroup.cyclic(4)


def z4_gradings():
    i = identity_aut(Z4)
    inv = map_aut(Z4, {k: (-k) % 4 for k in range(4)})
    return [AutPair(i, i), AutPair(i, inv), AutPair(inv, i), AutPair(inv, inv)]


PZ4 = GroupPairing(Z4)
PS3 = GroupPairing(S3)


def crossed_basis(P):
    return [(la, lb) for la in P.A.basis_labels(None)
            for lb in P.B.basis_labels(None)]


class TestTwist:
    @pytest.mark.parametrize("P,gradings", [
        (PZ4, z4_gradings()), (PS3, s3_gradings())],
        ids=["z4", "s3"])
    def test_roundtrip(self, P, gradings):
        for g in gradings:
            for la, lb in crossed_basis(P):
                ba = LinComb.unit((lb, la))
                fwd = twist_map(P, g, ba)
                assert twist_inv(P, g, fwd) == ba
                ab = LinComb.unit((la, lb))
                assert twist_map(P, g, twist_inv(P, g, ab)) == ab

    def test_twist_is_linear(self):
        g = z4_gradings()[1]
        v = LinComb.unit((1, 2), Fraction(3)).add(
            LinComb.unit((0, 3), Fraction(-1)))
        parts = [twist_map(PZ4, g, LinComb.unit(lab, c))
                 for lab, c in v.terms.items()]
        total = parts[0].add(parts[1])
        assert twist_map(PZ4, g, v) == total


class TestTwistMemo:
    """twist_map reads basis twists from a per-pairing table; on any
    input it must equal the twist computed straight from the T-maps."""

    @pytest.mark.parametrize("name,make,gradings,coeffs", memo_cases(),
                             ids=[c[0] for c in memo_cases()])
    def test_multi_term_inputs_match_reference(self, name, make, gradings,
                                               coeffs):
        P = make()
        enum = EnumSpec(window=3)
        a_labels = P.A.basis_labels(enum.window)
        b_labels = P.B.basis_labels(enum.window)
        rng = random.Random(name)
        for g in gradings:
            for size in (2, 3, 4):
                # Overlapping inputs, so later calls hit earlier entries.
                for _ in range(4):
                    x_ba = LinComb.from_pairs(
                        ((rng.choice(b_labels), rng.choice(a_labels)), c)
                        for c in coeffs[:size])
                    ref = _twist_fresh(P, g, x_ba)
                    assert twist_map(P, g, x_ba) == ref
                    assert twist_map(P, g, x_ba) == ref
        assert P._twc

    def test_table_belongs_to_the_pairing(self):
        g = s3_gradings()[0]
        P, Q = GroupPairing(S3), GroupPairing(S3)
        lb, la = perm((1, 2, 0)), perm((0, 2, 1))
        twist_map(P, g, LinComb.unit((lb, la)))
        assert (g, lb, la) in P._twc
        assert not Q._twc


def _dcp_reference(P, g, x, y):
    """x * y by the unmemoised composition of the A-left embedding with
    b_embed_left."""
    out = LinComb.zero()
    for (la, lb), c in x.terms.items():
        mid = b_embed_left(P, g, P.B.lc(lb), y)
        out = out.add(_a_embed_left_reference(P, P.A.lc(la), mid).scale(c))
    return out


def _random_value(rng, labels, coeffs):
    return LinComb.from_pairs((rng.choice(labels), c) for c in coeffs)


def _twist_fresh(P, g, x_ba):
    """The twist straight from the T-maps, past the pairing's table."""
    swapped = x_ba.map_labels(lambda t: (t[1], t[0]))
    return _move(P, 1, g.alpha, _move(P, 2, g.beta, swapped, inverse=True))


def _mul_fresh(X, x, y):
    """The product of an instance straight from its basis primitive, past
    the instance's product table."""
    out = LinComb.zero()
    for lx, cx in x.terms.items():
        for ly, cy in y.terms.items():
            out = out.add(X._mul_basis(lx, ly).scale(cx * cy))
    return out


# The two left embeddings as they were written before they read the basis
# tables, with the twist and the products computed afresh, so that a fault
# in a table cannot hide on both sides of a comparison.

def _a_embed_left_reference(P, a, y):
    out = LinComb.zero()
    for (la, lb), c in y.terms.items():
        prod = _mul_fresh(P.A, a, P.A.lc(la))
        out = out.add(prod.map_labels(lambda l: (l, lb)).scale(c))
    return out


def _b_embed_left_reference(P, g, b, y):
    out = LinComb.zero()
    for (la, lb2), c in y.terms.items():
        tw = _twist_fresh(P, g, b.map_labels(lambda l: (l, la)))
        for (la2, lb1), c1 in tw.terms.items():
            prod = _mul_fresh(P.B, P.B.lc(lb1), P.B.lc(lb2))
            out = out.add(prod.map_labels(lambda l: (la2, l)).scale(c * c1))
    return out


class TestProductMemo:
    """dcp_mul reads basis products from a per-pairing table; on any input
    it must equal the product composed from the two embeddings."""

    @pytest.mark.parametrize("name,make,gradings,coeffs", memo_cases(),
                             ids=[c[0] for c in memo_cases()])
    def test_multi_term_inputs_match_reference(self, name, make, gradings,
                                               coeffs):
        P = make()
        enum = EnumSpec(window=3)
        labels = [(la, lb) for la in P.A.basis_labels(enum.window)
                  for lb in P.B.basis_labels(enum.window)]
        rng = random.Random(name)
        for g in gradings:
            for size in (2, 3, 4):
                # Overlapping inputs, so later calls hit earlier entries.
                for _ in range(4):
                    x = _random_value(rng, labels, coeffs[:size])
                    y = _random_value(rng, labels, coeffs[::-1][:size])
                    ref = _dcp_reference(P, g, x, y)
                    assert dcp_mul(P, g, x, y) == ref
                    assert dcp_mul(P, g, x, y) == ref
        assert P._dcp

    def test_table_belongs_to_the_pairing(self):
        g = s3_gradings()[0]
        P, Q = GroupPairing(S3), GroupPairing(S3)
        x = (perm((1, 2, 0)), perm((0, 2, 1)))
        y = (perm((2, 0, 1)), perm((1, 0, 2)))
        dcp_mul(P, g, LinComb.unit(x), LinComb.unit(y))
        assert (g, x, y) in P._dcp
        assert not Q._dcp

    def test_table_is_filled_after_a_planted_defect(self):
        # The decoder plants the defect before any product is computed, so
        # every entry is a product of the corrupted pairing.  (Negating the
        # antipode in both directions leaves the twist, and so every basis
        # product, unchanged: S and S^-1 enter it once each.)
        s3 = group_instance("symmetric", 3)
        bad = make_session(session_spec(s3, corrupt="antipode-sign")).P
        clean = make_session(session_spec(s3)).P
        assert not bad._dcp and not bad._twc
        basis = crossed_basis(bad)
        rng = random.Random(5)
        for g in s3_gradings():
            for _ in range(40):
                x = _random_value(rng, basis, [Fraction(2), -1])
                y = _random_value(rng, basis, [3, Fraction(1, 2)])
                assert dcp_mul(bad, g, x, y) == _dcp_reference(bad, g, x, y)
            assert graded_antipode(bad, g, x) != graded_antipode(clean, g, x)
        assert bad._dcp and not clean._dcp

    def test_tables_stop_growing_at_the_cap(self, monkeypatch):
        assert MEMO_CAP >= 36 * 36 ** 2    # S3 with all 36 inner gradings
        cap = 12
        monkeypatch.setattr(linear, "MEMO_CAP", cap)
        Z = IntGroup()
        P = GroupPairing(Z)
        gradings = [AutPair(a, b) for a in (identity_aut(Z), negation_aut(Z))
                    for b in (identity_aut(Z), negation_aut(Z))]
        labels = [(la, lb) for la in range(-3, 4) for lb in range(-3, 4)]
        rng = random.Random(3)
        for i in range(60):
            g = gradings[i % 4]
            x = _random_value(rng, labels, [Fraction(3, 2), -2])
            y = _random_value(rng, labels, [5, Fraction(-1, 7)])
            assert dcp_mul(P, g, x, y) == _dcp_reference(P, g, x, y)
            assert len(P._dcp) <= cap and len(P._twc) <= cap
        assert len(P._dcp) == cap and len(P._twc) == cap

    def test_instance_tables_stop_growing_at_the_cap(self, monkeypatch):
        # The product and T-map tables of A and B stop at the same cap.
        assert linear.MEMO_CAP == MEMO_CAP
        cap = 12
        monkeypatch.setattr(linear, "MEMO_CAP", cap)
        S = make_session(session_spec(
            group_instance("Z"),
            gradings=[[IDENT, IDENT], [IDENT, NEG], [NEG, IDENT], [NEG, NEG]],
            enum=sampled(20, 1)))
        P = S.P
        tables = [X._mc for X in (P.A, P.B)] + [X._tc for X in (P.A, P.B)] \
            + [X._tic for X in (P.A, P.B)]
        labels = [(la, lb) for la in range(-3, 4) for lb in range(-3, 4)]
        rng = random.Random(4)
        for i in range(60):
            g = S.gradings[i % 4]
            b = _random_value(rng, list(range(-3, 4)), [Fraction(3, 2), -2])
            y = _random_value(rng, labels, [5, Fraction(-1, 7)])
            assert b_embed_left(P, g, b, y) == \
                _b_embed_left_reference(P, g, b, y)
            assert P.A.mul(b, b) == _mul_fresh(P.A, b, b)
            for X in (P.A, P.B):
                u = y.scale(Fraction(2, 3))
                assert X.t_map_inv(1 + i % 4, X.t_map(1 + i % 4, u)) == u
            assert all(len(t) <= cap for t in tables)
        assert all(len(t) == cap for t in tables)


class TestEmbeddingFastPaths:
    """The B-left embedding reads basis twists and basis products from the
    tables term by term; on multi-term inputs with mixed coefficients it
    must equal the embedding computed afresh."""

    @pytest.mark.parametrize("name,make,gradings,coeffs", engine_cases(),
                             ids=[c[0] for c in engine_cases()])
    def test_multi_term_inputs_match_reference(self, name, make, gradings,
                                               coeffs):
        P = make()
        enum = EnumSpec(window=3)
        a_labels = P.A.basis_labels(enum.window)
        b_labels = P.B.basis_labels(enum.window)
        labels = [(la, lb) for la in a_labels for lb in b_labels]
        rng = random.Random(name)
        for g in gradings:
            for size in (1, 2, 3, 4):
                # Overlapping inputs, so later calls hit earlier entries.
                for _ in range(3):
                    b = _random_value(rng, b_labels, coeffs[::-1][:size])
                    y = _random_value(rng, labels, coeffs[1:] + coeffs[:1])
                    for _ in range(2):
                        assert b_embed_left(P, g, b, y) == \
                            _b_embed_left_reference(P, g, b, y)
        assert P._twc and P.B._mc


class TestEmbeddings:
    def test_unital_embeddings_fix_values(self):
        y = LinComb.unit((2, 3))
        for g in z4_gradings():
            assert b_embed_left(PZ4, g, PZ4.B.unit(), y) == y


class TestComponentProduct:
    @pytest.mark.parametrize("P,gradings", [
        (PZ4, z4_gradings()), (PS3, s3_gradings())],
        ids=["z4", "s3"])
    def test_matches_group_closed_form(self, P, gradings):
        basis = crossed_basis(P)
        for g in gradings:
            for t1, t2 in itertools.product(basis, basis):
                eng = dcp_mul(P, g, LinComb.unit(t1), LinComb.unit(t2))
                assert eng == group_mul(P, g, t1, t2)

    def test_associative_within_component(self):
        basis = crossed_basis(PZ4)
        for g in z4_gradings()[:2]:
            for t1, t2, t3 in itertools.islice(
                    itertools.product(basis, basis, basis), 0, None, 7):
                x, y, z = (LinComb.unit(t) for t in (t1, t2, t3))
                assert dcp_mul(PZ4, g, dcp_mul(PZ4, g, x, y), z) == \
                    dcp_mul(PZ4, g, x, dcp_mul(PZ4, g, y, z))

    def test_component_unit(self):
        for g in z4_gradings():
            u = LinComb({(la, lb): ca * cb
                         for la, ca in PZ4.A.unit().terms.items()
                         for lb, cb in PZ4.B.unit().terms.items()})
            for t in crossed_basis(PZ4):
                assert dcp_mul(PZ4, g, u, LinComb.unit(t)) == LinComb.unit(t)
                assert dcp_mul(PZ4, g, LinComb.unit(t), u) == LinComb.unit(t)


class TestCommutationRule:
    @pytest.mark.parametrize("P,gradings", [
        (PZ4, z4_gradings()), (PS3, s3_gradings())],
        ids=["z4", "s3"])
    def test_residual_vanishes(self, P, gradings):
        a_labels = P.A.basis_labels(None)
        b_labels = P.B.basis_labels(None)
        covers = crossed_basis(P)[:4]
        for g in gradings:
            for la, lb in itertools.product(a_labels, b_labels):
                for yl in covers:
                    L, R = commutation_residual(
                        P, g, P.A.lc(la), P.B.lc(lb), LinComb.unit(yl))
                    assert L == R
