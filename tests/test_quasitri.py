"""Generalized R-multiplier and canonical-multiplier identities."""

import itertools
import random

import pytest

from mhag import (FiniteDimHopf, FiniteDimPairing, GroupPairing,
                  qt_conjugation_residual, qt_coproduct_first_residual,
                  qt_coproduct_second_residual, qt_intertwine_residual,
                  r_apply, w_intertwiner_residual_a, w_intertwiner_residual_b)
from mhag.crossed import dcp_mul
from mhag.groups import (AutPair, TableGroup, identity_aut, map_aut)
from mhag.linear import LinComb, add_term
from mhag.oracle import dual_basis_r_terms, group_r_apply_left
from mhag.quasitri import (w_coproduct_a_residual, w_coproduct_b_residual,
                           w_inverse_residual)

from conftest import engine_cases

Z3 = TableGroup.cyclic(3)
Z4 = TableGroup.cyclic(4)
PZ3 = GroupPairing(Z3)
PZ4 = GroupPairing(Z4)

I3 = identity_aut(Z3)
INV3 = map_aut(Z3, {k: (-k) % 3 for k in range(3)})
Z3_GRADINGS = [AutPair(I3, I3), AutPair(I3, INV3),
               AutPair(INV3, I3), AutPair(INV3, INV3)]


def crossed_basis(P):
    return [(la, lb) for la in P.A.basis_labels(None)
            for lb in P.B.basis_labels(None)]


class TestRApplication:
    def test_matches_group_closed_form(self):
        i = identity_aut(Z4)
        inv = map_aut(Z4, {k: (-k) % 4 for k in range(4)})
        gradings = [AutPair(i, i), AutPair(i, inv),
                    AutPair(inv, i), AutPair(inv, inv)]
        basis = crossed_basis(PZ4)
        for p, q in itertools.product(gradings, gradings):
            for tu, tv in itertools.islice(
                    itertools.product(basis, basis), 0, None, 3):
                eng = r_apply(PZ4, p, q, LinComb.unit(tu + tv))
                assert eng == group_r_apply_left(PZ4, p, q, tu, tv)

    def test_linear_in_the_argument(self):
        p, q = Z3_GRADINGS[1], Z3_GRADINGS[2]
        basis = crossed_basis(PZ3)
        v = LinComb.unit(basis[0] + basis[1]).add(
            LinComb.unit(basis[4] + basis[2]).scale(PZ3.field.from_int(3)))
        parts = [r_apply(PZ3, p, q, LinComb.unit(lab, c))
                 for lab, c in v.terms.items()]
        assert r_apply(PZ3, p, q, v) == parts[0].add(parts[1])


def _crossed(a, b):
    """The crossed value a |x| b of a value of A and a value of B."""
    return LinComb({(la, lb): ca * cb for la, ca in a.terms.items()
                    for lb, cb in b.terms.items()})


def _r_brute(P, p, q, uv, side):
    """The R-multiplier of (p, q) applied from ``side``, summed over every
    term of W: on the left (1 |x| beta^-1(w_b)) u at p, tensored with
    (w_a |x| 1) v at q; on the right u (1 |x| beta^-1(w_b)) at p, tensored
    with v (w_a |x| 1) at q; each a crossed product through ``dcp_mul``."""
    A, B = P.A, P.B
    binv = p.beta.inverse()
    out: dict = {}
    for (ua, ub, va, vb), c in uv.terms.items():
        u, v = LinComb.unit((ua, ub), c), LinComb.unit((va, vb))
        for wb, wa, cw in P.w.all_terms():
            b_leg = _crossed(A.unit(), B.apply_aut(binv, B.lc(wb)))
            a_leg = _crossed(A.lc(wa), B.unit())
            if side == "left":
                left, right = dcp_mul(P, p, b_leg, u), dcp_mul(P, q, a_leg, v)
            else:
                left, right = dcp_mul(P, p, u, b_leg), dcp_mul(P, q, v, a_leg)
            for l1, c1 in left.terms.items():
                for l2, c2 in right.terms.items():
                    add_term(out, l1 + l2, cw * c1 * c2)
    return LinComb(out)


@pytest.mark.parametrize("case", [c for c in engine_cases() if c[0] in (
    "s3-inner", "double-f10007", "h4-sweedler")], ids=lambda c: c[0])
@pytest.mark.parametrize("side", ["left", "right"])
def test_r_apply_matches_brute_force(side, case):
    """``r_apply`` from either side against the sum over all of W on 48
    two-term values with mixed coefficients, spread over every ordered pair
    of gradings."""
    name, make, gradings, coeffs = case
    P = make()
    rng = random.Random(name)
    basis = crossed_basis(P)
    checked = 0
    for p, q in itertools.product(gradings, gradings):
        for _ in range(48 // len(gradings) ** 2):
            uv = LinComb.from_pairs(
                (rng.choice(basis) + rng.choice(basis), rng.choice(coeffs))
                for _ in range(2))
            expected = _r_brute(P, p, q, uv, side)
            assert r_apply(P, p, q, uv, side) == expected
            checked += not expected.is_zero()
    assert checked


class TestQtResiduals:
    """All four axiom residuals vanish on an honest small instance,
    including non-trivial grading combinations."""

    def gradings(self):
        return Z3_GRADINGS

    def test_conjugation(self):
        basis = crossed_basis(PZ3)
        gs = self.gradings()
        for t, p, q in itertools.islice(
                itertools.product(gs, gs, gs), 0, None, 3):
            for ul, vl in itertools.islice(
                    itertools.product(basis, basis), 0, None, 11):
                L, R = qt_conjugation_residual(
                    PZ3, t, p, q, LinComb.unit(ul + vl))
                assert L == R

    def test_coproduct_hexagons(self):
        basis = crossed_basis(PZ3)
        gs = self.gradings()
        for p, q, r in itertools.islice(
                itertools.product(gs, gs, gs), 0, None, 5):
            for ul, vl, zl in itertools.islice(
                    itertools.product(basis, basis, basis), 0, None, 97):
                uvz = LinComb.unit(ul + vl + zl)
                L1, R1 = qt_coproduct_first_residual(PZ3, p, q, r, uvz)
                assert L1 == R1
                L2, R2 = qt_coproduct_second_residual(PZ3, p, q, r, uvz)
                assert L2 == R2

    def test_intertwine(self):
        basis = crossed_basis(PZ3)
        gs = self.gradings()
        for p, q in itertools.product(gs, gs):
            for xl, ul, vl in itertools.islice(
                    itertools.product(basis, basis, basis), 0, None, 53):
                L, R = qt_intertwine_residual(
                    PZ3, p, q, LinComb.unit(xl), LinComb.unit(ul),
                    LinComb.unit(vl))
                assert L == R


class TestCanonicalMultiplierIdentities:
    def test_coproduct_identities(self):
        A, B = PZ4.A, PZ4.B
        for m, m2, n in itertools.islice(
                itertools.product(range(4), range(4), range(4)), 0, None, 3):
            L, R = w_coproduct_b_residual(PZ4, B.lc(m), B.lc(m2), A.lc(n))
            assert L == R
            L, R = w_coproduct_a_residual(PZ4, B.lc(m), A.lc(m2), A.lc(n))
            assert L == R

    def test_invertibility(self):
        A, B = PZ4.A, PZ4.B
        for m, n in itertools.product(range(4), range(4)):
            left, right, expected = w_inverse_residual(PZ4, B.lc(m), A.lc(n))
            assert left == expected
            assert right == expected

    def test_intertwiner_identities(self):
        A, B = PZ3.A, PZ3.B
        gs = Z3_GRADINGS
        for p in gs:
            for al, ul, ml in itertools.islice(
                    itertools.product(range(3), range(3), range(3)),
                    0, None, 2):
                L, R = w_intertwiner_residual_a(
                    PZ3, p, A.lc(al), LinComb.unit((ul, ml)), A.lc(ml))
                assert L == R
        for p, q in itertools.islice(itertools.product(gs, gs), 0, None, 3):
            for bl, ml, ul in itertools.islice(
                    itertools.product(range(3), range(3), range(3)),
                    0, None, 2):
                L, R = w_intertwiner_residual_b(
                    PZ3, p, q, B.lc(bl), B.lc(ml), LinComb.unit((ul, ml)))
                assert L == R


class TestDualBasisR:
    def test_matches_group_form(self):
        fd = FiniteDimHopf.from_group(Z3)
        P = FiniteDimPairing.from_instance(fd)
        els = Z3.elements()
        idx = {g: i for i, g in enumerate(els)}
        for shadow_beta in (I3, INV3):
            left_g = AutPair(I3, shadow_beta)
            terms = dual_basis_r_terms(P, left_g)
            assert len(terms) == 3
            for bval, wa, cw in terms:
                g = els[wa]
                assert cw == P.field.one()
                assert bval == P.B.lc(idx[shadow_beta.inverse().apply(g)])
