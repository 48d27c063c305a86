"""Dual pairings: the bilinear form, module actions, and the canonical
multiplier."""

import itertools
from fractions import Fraction

import pytest

from mhag import (DrinfeldPairing, FiniteDimHopf, FiniteDimPairing,
                  GroupPairing, PairingError, PrimeField, RationalField)
from mhag.crossed import b_embed_left
from mhag.groups import AutPair, IntGroup, PermGroup, TableGroup, identity_aut
from mhag.linear import LinComb, add_term
from mhag.session import _plant

from conftest import H4_HOPF, engine_cases, perm

Z2 = TableGroup.cyclic(2)
Z3 = TableGroup.cyclic(3)
Z4 = TableGroup.cyclic(4)
S3 = PermGroup.symmetric(3)


def finite_pairings():
    return [
        GroupPairing(Z4),
        GroupPairing(S3),
        FiniteDimPairing.from_instance(FiniteDimHopf.from_group(Z3)),
        DrinfeldPairing(Z2),
    ]


class TestGroupPairingForm:
    P = GroupPairing(Z4)

    def test_pair_is_point_evaluation(self):
        for p, g in itertools.product(range(4), range(4)):
            expected = Fraction(1 if p == g else 0)
            assert self.P.pair_basis(p, g) == expected

    def test_pair_is_bilinear(self):
        a = self.P.A.lc(1).scale(Fraction(2)).add(self.P.A.lc(3))
        b = self.P.B.lc(1).add(self.P.B.lc(3).scale(Fraction(5)))
        assert self.P.pair(a, b) == Fraction(7)


class TestModuleActions:
    """Closed forms of the four actions for the group pairing:
    functions are translated, group elements are filtered."""

    P = GroupPairing(Z4)

    def test_group_acts_by_right_translation(self):
        # g acting from the left moves the support point p to p * g^-1
        for p, g in itertools.product(range(4), range(4)):
            out = self.P.act("b>>a", self.P.B.lc(g), self.P.A.lc(p))
            assert out == self.P.A.lc((p - g) % 4)

    def test_group_acts_by_left_translation(self):
        for p, g in itertools.product(range(4), range(4)):
            out = self.P.act("a<<b", self.P.B.lc(g), self.P.A.lc(p))
            assert out == self.P.A.lc((p - g) % 4)

    def test_function_acting_on_group_filters(self):
        for p, g in itertools.product(range(4), range(4)):
            expect = self.P.B.lc(g) if p == g else LinComb.zero()
            assert self.P.act("a>>b", self.P.A.lc(p), self.P.B.lc(g)) == expect
            assert self.P.act("b<<a", self.P.A.lc(p), self.P.B.lc(g)) == expect

    def test_unknown_variant_rejected(self):
        with pytest.raises(PairingError):
            self.P.act("a^b", self.P.A.lc(0), self.P.B.lc(0))

    def test_action_units(self):
        c = self.P.A.local_unit_for([1, 2])
        for g in (1, 2):
            assert self.P.act("a>>b", c, self.P.B.lc(g)) == self.P.B.lc(g)
        e = self.P.B.local_unit_for([1, 2])
        for p in (1, 2):
            assert self.P.act("b>>a", e, self.P.A.lc(p)) == self.P.A.lc(p)


@pytest.mark.parametrize("P", finite_pairings(), ids=lambda P: P.name)
def test_duality_laws_hold(P):
    labels_a = P.A.basis_labels(None)
    labels_b = P.B.basis_labels(None)
    assert P.check_duality(labels_a, labels_b) is None


def test_duality_laws_hold_on_integer_window():
    P = GroupPairing(IntGroup())
    labels = list(range(-2, 3))
    assert P.check_duality(labels, labels) is None


def _paired_t_table(X, i, inverse, labels, row):
    """``{((x, y), (u, v)): <T(x (x) y), u (x) v>}`` for T = T_i of ``X``
    (or its inverse) over basis labels x, y in ``labels``, where ``row(l)``
    is ``{u: <l, u>}`` over the labels of the other side, with every nonzero
    value of the form."""
    t = X.t_map_inv if inverse else X.t_map
    out: dict = {}
    for x, y in itertools.product(labels, labels):
        for (l1, l2), c in t(i, LinComb.unit((x, y))).terms.items():
            for u, c1 in row(l1).items():
                for v, c2 in row(l2).items():
                    add_term(out, ((x, y), (u, v)), c * c1 * c2)
    return out


@pytest.mark.parametrize("case", engine_cases(), ids=lambda c: c[0])
def test_t_maps_are_transposes(case):
    """<T_i(x (x) y), u (x) v> = <x (x) y, T_sigma(i)(u (x) v)> on basis
    labels, and the same for the inverses, where sigma swaps 1 and 2
    (Van Daele 1994); over Z on the window of radius 2.  Both sides are
    sparse tables over every basis tuple, so a zero compares as absent."""
    P = case[1]()
    a_labels, b_labels = P.A.basis_labels(2), P.B.basis_labels(2)
    rows: dict = {}
    cols: dict = {}

    def row(la):            # {lb: <la, lb>}
        if la not in rows:
            rows[la] = {lb: v for lb in b_labels
                        if (v := P.pair_basis(la, lb))}
        return rows[la]

    def col(lb):            # {la: <la, lb>}
        if lb not in cols:
            cols[lb] = {la: v for la in a_labels
                        if (v := P.pair_basis(la, lb))}
        return cols[lb]

    for i, inverse in itertools.product((1, 2, 3, 4), (False, True)):
        lhs = _paired_t_table(P.A, i, inverse, a_labels, row)
        rhs = _paired_t_table(P.B, {1: 2, 2: 1}.get(i, i), inverse,
                              b_labels, col)
        assert lhs, (i, inverse)
        assert lhs == {(xy, uv): c for (uv, xy), c in rhs.items()}, \
            (i, inverse)


class TestCanonicalW:
    @pytest.mark.parametrize("P", finite_pairings(), ids=lambda P: P.name)
    def test_w_reproduces_the_pairing(self, P):
        w = P.w
        for la in P.A.basis_labels(None):
            for lb in P.B.basis_labels(None):
                assert w.pair_against(P.A.lc(la), P.B.lc(lb)) == \
                    P.pair_basis(la, lb)

    def test_group_w_is_diagonal(self):
        terms = GroupPairing(Z4).w.all_terms()
        assert terms == [(g, g, 1) for g in range(4)]

    def test_finite_dim_w_is_diagonal(self):
        K = FiniteDimPairing.from_instance(FiniteDimHopf.from_group(Z3))
        assert K.w.all_terms() == [(i, i, 1) for i in range(3)]

    def test_integer_w_windows(self):
        w = GroupPairing(IntGroup()).w
        assert w.window_terms(2) == [(n, n, 1) for n in range(-2, 3)]
        with pytest.raises(PairingError):
            w.all_terms()


class TestCrossedRightUnit:
    @pytest.mark.parametrize("P,group", [
        (GroupPairing(Z4), Z4),
        (GroupPairing(S3), S3),
        (FiniteDimPairing.from_instance(FiniteDimHopf.from_group(Z3)), Z3),
        (DrinfeldPairing(Z2), Z2),
    ], ids=["group-z4", "group-s3", "finite-dim", "drinfeld"])
    def test_acts_as_right_unit(self, P, group):
        e = identity_aut(group)
        g = AutPair(e, e)
        for la in P.A.basis_labels(None)[:3]:
            for lb in P.B.basis_labels(None)[:3]:
                y = LinComb.unit((la, lb))
                c = P.crossed_right_unit(g, y)
                assert b_embed_left(P, g, c, y) == y


def _perturbed(P, at, value):
    """``P`` with one basis value of its form, at ``at``, changed."""
    honest = P.pair_basis
    P.pair_basis = lambda la, lb: value if (la, lb) == at else honest(la, lb)
    return P


def _perturbed_group(group, at, value, field=None):
    return _perturbed(GroupPairing(group, field), at, value)


def _first_duality_failure(P, a_labels, b_labels):
    """The diagnostic of check_duality by a plain scan in its loop order,
    every action and antipode evaluated afresh for each case, past the
    action and antipode tables."""
    A, B = P.A, P.B

    def act(variant, actor, target):
        return LinComb(dict(P._act_basis(variant, actor, target)))

    for la, lb1, lb2 in itertools.product(a_labels, b_labels, b_labels):
        a, y = A.lc(la), B.lc(lb2)
        if not (P.pair(a, B.mul(B.lc(lb1), y))
                == P.pair(act("a<<b", lb1, la), y)):
            return (f"pairing-product-law-fails(B): a={A.label_text(la)}, "
                    f"x={B.label_text(lb1)}, y={B.label_text(lb2)}")
    for lb, la1, la2 in itertools.product(b_labels, a_labels, a_labels):
        b, y = B.lc(lb), A.lc(la2)
        if not (P.pair(A.mul(A.lc(la1), y), b)
                == P.pair(y, act("b<<a", la1, lb))):
            return (f"pairing-product-law-fails(A): b={B.label_text(lb)}, "
                    f"x={A.label_text(la1)}, y={A.label_text(la2)}")
    for la, lb in itertools.product(a_labels, b_labels):
        if not (P.pair(A._antipode_basis(la), B.lc(lb))
                == P.pair(A.lc(la), B._antipode_basis(lb))):
            return (f"pairing-antipode-law-fails: a={A.label_text(la)}, "
                    f"b={B.label_text(lb)}")
    for la in a_labels:
        if not (P.pair(A.lc(la), B.local_unit_for([la]))
                == A.counit(A.lc(la))):
            return f"pairing-unit-law-fails(B): a={A.label_text(la)}"
    for lb in b_labels:
        if not (P.pair(A.local_unit_for([lb]), B.lc(lb))
                == B.counit(B.lc(lb))):
            return f"pairing-unit-law-fails(A): b={B.label_text(lb)}"
    return None


def _rescaled_group_algebra(group, scales):
    """The group algebra of ``group`` on the basis f_g = scales[g] * g, so
    that basis products, coproducts and the antipode carry coefficients
    other than 1: f_x f_y = (s_x s_y / s_xy) f_xy and
    Delta(f_g) = (1 / s_g) f_g (x) f_g."""
    els = group.elements()
    idx = {g: i for i, g in enumerate(els)}
    s = [Fraction(c) for c in scales]
    xy = [[idx[group.op(x, y)] for y in els] for x in els]
    return FiniteDimHopf(
        RationalField(),
        [[LinComb.unit(xy[i][j], s[i] * s[j] / s[xy[i][j]])
          for j in range(len(els))] for i in range(len(els))],
        [LinComb.unit((i, i), 1 / s[i]) for i in range(len(els))],
        list(s),
        LinComb.unit(idx[group.identity], 1 / s[idx[group.identity]]),
        [LinComb.unit(idx[group.inv(g)], s[i] / s[idx[group.inv(g)]])
         for i, g in enumerate(els)])


def _negated_antipode(P):
    """``P`` with the antipode-sign defect planted on its group side."""
    _plant(P, "antipode-sign")
    return P


F7 = PrimeField(7)
Z4_HOPF = FiniteDimHopf.from_group(Z4)
Z3_123 = _rescaled_group_algebra(Z3, [1, 2, 3])
Z3_235 = _rescaled_group_algebra(Z3, [2, 3, 5])


@pytest.mark.parametrize("P,b_labels", [
    (_perturbed_group(Z4, (0, 0), Fraction(2)), None),
    (_perturbed_group(Z4, (1, 3), Fraction(2)), None),
    (_perturbed_group(Z4, (3, 2), Fraction(2)), None),
    (_perturbed_group(S3, (perm((0, 1, 2)), perm((1, 0, 2))), Fraction(2)),
     None),
    (_perturbed_group(S3, (perm((1, 2, 0)), perm((1, 2, 0))), Fraction(2)),
     None),
    (_perturbed_group(S3, (perm((2, 1, 0)), perm((0, 2, 1))), Fraction(2)),
     None),
    # Fails in the A-product law only.
    (_perturbed_group(Z4, (1, 0), Fraction(2)), [0]),
    # Fails at several y for the first failing (a, x).
    (_perturbed(FiniteDimPairing(Z4_HOPF.dual(), Z4_HOPF), (2, 0),
                Fraction(2)), None),
    (_perturbed_group(Z4, (1, 3), F7.from_int(2), F7), None),
    (_perturbed_group(Z4, (1, 0), F7.from_int(3), F7), [0]),
    (_perturbed(DrinfeldPairing(Z2, F7), ((1, 0), (1, 1)), F7.from_int(2)),
     None),
    # Fails at several y for the first failing (a, x).
    (_perturbed(DrinfeldPairing(Z3, F7), ((2, 0), (1, 0)), F7.from_int(5)),
     None),
    # Basis products and the action carry coefficients other than 1.
    (_perturbed(FiniteDimPairing(Z3_123.dual(), Z3_123), (1, 2),
                Fraction(2)), None),
    (_perturbed(FiniteDimPairing(Z3_235.dual(), Z3_235), (0, 0),
                Fraction(1, 2)), None),
    (_perturbed(FiniteDimPairing(Z3_235, Z3_235.dual()), (1, 2),
                Fraction(2)), [1]),
    # The product laws hold and the antipode law fails.
    (_negated_antipode(GroupPairing(S3)), None),
    (_negated_antipode(GroupPairing(S3)), S3.elements()[:0:-1]),
    (_negated_antipode(DrinfeldPairing(Z3, F7)), None),
    (_negated_antipode(FiniteDimPairing.from_instance(
        FiniteDimHopf.from_json(H4_HOPF))), None),
], ids=["z4-0-0", "z4-1-3", "z4-3-2", "s3-e-12", "s3-012-012", "s3-02-12",
        "z4-a-law", "finite-dim-z4", "z4-1-3-f7", "z4-a-law-f7",
        "double-z2-f7", "double-z3-f7", "rescaled-z3-1-2", "rescaled-z3-0-0",
        "rescaled-z3-a-law", "antipode-sign-s3", "antipode-sign-s3-reversed",
        "antipode-sign-double-z3-f7",
        "antipode-sign-h4"])
def test_duality_reports_the_first_failing_triple(P, b_labels):
    a_labels = P.A.basis_labels(None)
    b_labels = b_labels or P.B.basis_labels(None)
    diag = P.check_duality(a_labels, b_labels)
    assert diag is not None
    assert diag == _first_duality_failure(P, a_labels, b_labels)


@pytest.mark.parametrize("P, diag", [
    (_negated_antipode(GroupPairing(S3)),
     "pairing-antipode-law-fails: a=(0, 1, 2), b=(0, 1, 2)"),
    (_negated_antipode(DrinfeldPairing(S3, F7)),
     "pairing-antipode-law-fails: a=((0, 1, 2), (0, 1, 2)), "
     "b=((0, 1, 2), (0, 1, 2))"),
    (_perturbed_group(S3, (perm((1, 2, 0)), perm((1, 2, 0))), Fraction(2)),
     "pairing-product-law-fails(B): a=(0, 1, 2), x=(1, 2, 0), "
     "y=(2, 0, 1)"),
    (_negated_antipode(GroupPairing(Z4)),
     "pairing-antipode-law-fails: a=0, b=0"),
], ids=["antipode-sign-s3", "antipode-sign-double-s3-f7", "s3-012-012",
        "antipode-sign-z4"])
def test_duality_diagnostic_names_image_tuples(P, diag):
    """A diagnostic names permutations by their image tuples, as the JSON
    does, not by the indices they are stored as."""
    assert P.check_duality(P.A.basis_labels(None),
                           P.B.basis_labels(None)) == diag
