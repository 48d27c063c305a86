"""Base instances: group algebras, function algebras, doubles, and
structure-constant instances."""

import itertools
import re
from fractions import Fraction

import pytest

from mhag import (DrinfeldDouble, DualDrinfeld, FiniteDimHopf,
                  FunctionAlgebra, GroupAlgebra, StructureError)
from mhag import linear
from mhag.groups import (IntGroup, PermGroup, TableGroup, inner_aut, map_aut,
                         negation_aut)
from mhag.linear import BasisTable, LinComb, lc_combine
from mhag.session import _negate_antipode

from conftest import H4_HOPF, perm, rescaled_s3

Z2 = TableGroup.cyclic(2)
Z3 = TableGroup.cyclic(3)
Z4 = TableGroup.cyclic(4)
S3 = PermGroup.symmetric(3)


def all_instances():
    return [
        GroupAlgebra(Z4),
        GroupAlgebra(S3),
        FunctionAlgebra(Z4),
        DrinfeldDouble(Z2),
        DualDrinfeld(Z2),
        FiniteDimHopf.from_group(Z3),
        FiniteDimHopf.from_group(Z3).dual(),
    ]


class TestGroupAlgebra:
    A = GroupAlgebra(Z4)

    def test_mul_is_group_law(self):
        assert self.A.mul(self.A.lc(1), self.A.lc(3)) == self.A.lc(0)
        assert self.A.mul(self.A.lc(2), self.A.lc(3)) == self.A.lc(1)

    def test_counit_is_one_everywhere(self):
        for x in range(4):
            assert self.A.counit(self.A.lc(x)) == Fraction(1)

    def test_antipode_is_inversion(self):
        assert self.A.antipode(self.A.lc(1)) == self.A.lc(3)
        assert self.A.antipode(self.A.lc(1), inverse=True) == self.A.lc(3)

    def test_comul_is_diagonal(self):
        assert self.A.comul_eager(self.A.lc(2)) == LinComb.unit(
            (2, 2), Fraction(1))

    def test_unit(self):
        assert self.A.unit() == self.A.lc(0)
        assert self.A.is_unital

    def test_apply_aut_permutes_basis(self):
        inv = map_aut(Z4, {i: (-i) % 4 for i in range(4)})
        assert self.A.apply_aut(inv, self.A.lc(1)) == self.A.lc(3)


class TestFunctionAlgebra:
    F = FunctionAlgebra(Z4)

    def test_mul_is_pointwise(self):
        assert self.F.mul(self.F.lc(1), self.F.lc(1)) == self.F.lc(1)
        assert self.F.mul(self.F.lc(1), self.F.lc(2)).is_zero()

    def test_counit_evaluates_at_identity(self):
        assert self.F.counit(self.F.lc(0)) == Fraction(1)
        assert self.F.counit(self.F.lc(1)) == Fraction(0)

    def test_antipode_flips_the_point(self):
        assert self.F.antipode(self.F.lc(1)) == self.F.lc(3)

    def test_comul_is_convolution_support(self):
        cc = self.F.comul_eager(self.F.lc(2))
        assert cc == LinComb.from_pairs(
            ((u, (2 - u) % 4), Fraction(1)) for u in range(4))

    def test_unit_sums_all_points(self):
        assert self.F.unit() == lc_combine(self.F.lc(x) for x in range(4))

    def test_infinite_variant_has_no_global_unit(self):
        FZ = FunctionAlgebra(IntGroup())
        assert not FZ.is_unital
        with pytest.raises(StructureError):
            FZ.unit()
        with pytest.raises(StructureError):
            FZ.comul_eager(FZ.lc(0))
        lu = FZ.local_unit_for([3, -1])
        for lab in (3, -1):
            assert FZ.mul(lu, FZ.lc(lab)) == FZ.lc(lab)
            assert FZ.mul(FZ.lc(lab), lu) == FZ.lc(lab)


class TestTMaps:
    def test_group_algebra_closed_forms(self):
        A = GroupAlgebra(Z4)
        x, y = A.lc(1), A.lc(2)
        assert A.t_pair(1, x, y) == A.lc((1, 3))
        assert A.t_pair(2, x, y) == A.lc((3, 2))
        assert A.t_pair(3, x, y) == A.lc((3, 1))
        assert A.t_pair(4, x, y) == A.lc((2, 3))

    @pytest.mark.parametrize("inst", all_instances(),
                             ids=lambda i: getattr(i, "name", type(i).__name__))
    def test_roundtrips_everywhere(self, inst):
        labels = inst.basis_labels(None)
        for i in (1, 2, 3, 4):
            for lx, ly in itertools.product(labels, labels):
                xy = LinComb.unit((lx, ly), inst.field.one())
                assert inst.t_map_inv(i, inst.t_map(i, xy)) == xy
                assert inst.t_map(i, inst.t_map_inv(i, xy)) == xy

    def test_t_maps_linear(self):
        A = GroupAlgebra(S3)
        labels = A.basis_labels(None)
        v = LinComb.from_pairs([((labels[1], labels[2]), Fraction(2)),
                                ((labels[3], labels[0]), 1)])
        parts = [A.t_map(1, LinComb.unit(lab, c)) for lab, c in v.terms.items()]
        assert A.t_map(1, v) == lc_combine(parts)


class TestBasisTable:
    """The memo every basis table is: fill on a miss, keep below the cap."""

    @staticmethod
    def recording():
        calls = []

        def fill(*key):
            calls.append(key)
            return sum(key)
        return BasisTable(fill), calls

    def test_miss_calls_fill_once_with_the_key_items(self):
        table, calls = self.recording()
        assert table[2, 5] == 7
        assert calls == [(2, 5)]
        assert dict(table) == {(2, 5): 7}

    def test_hit_does_not_call_fill(self):
        table, calls = self.recording()
        table[1, 1]
        assert table[1, 1] == 2 and (1, 1) in table
        assert calls == [(1, 1)]
        A = GroupAlgebra(Z4)
        A.mul_basis(1, 3)
        A._mc.fill = None                   # a second fill would fail
        assert A.mul_basis(1, 3) == A.lc(0)

    def test_fill_that_raises_stores_nothing(self):
        A = GroupAlgebra(Z4)
        with pytest.raises(ValueError, match="t-map index out of range"):
            A.t_image(5, 1, 2)
        assert (5, 1, 2) not in A._tc and not A._tc

    def test_stops_growing_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(linear, "MEMO_CAP", 3)
        table, calls = self.recording()
        for k in range(6):
            assert table[k, 1] == k + 1
        assert len(table) == 3 and set(table) == {(0, 1), (1, 1), (2, 1)}
        assert table[4, 1] == 5 and len(calls) == 7    # computed afresh


def _tensor(u, v):
    return u.map_labels(lambda l: (l,)).tensor(v.map_labels(lambda l: (l,)))


def _sweedler(inst, i, x, y):
    """T_i(x (x) y) and T_i^-1(x (x) y) on basis labels by the Sweedler
    formulas, from eager coproducts, products and the antipode:

        T1 = x1 (x) x2 y       T1^-1 = x1 (x) S(x2) y
        T2 = x y1 (x) y2       T2^-1 = x S(y1) (x) y2
        T3 = x1 y (x) x2       T3^-1 = y2 (x) S^-1(y1) x
        T4 = y1 (x) x y2       T4^-1 = y S^-1(x2) (x) x1
    """
    X, Y = inst.lc(x), inst.lc(y)
    dx = inst.comul_eager(X).terms.items()
    dy = inst.comul_eager(Y).terms.items()
    lc, mul, S = inst.lc, inst.mul, inst.antipode
    if i == 1:
        fwd = [_tensor(lc(a), mul(lc(b), Y)).scale(c) for (a, b), c in dx]
        inv = [_tensor(lc(a), mul(S(lc(b)), Y)).scale(c) for (a, b), c in dx]
    elif i == 2:
        fwd = [_tensor(mul(X, lc(a)), lc(b)).scale(c) for (a, b), c in dy]
        inv = [_tensor(mul(X, S(lc(a))), lc(b)).scale(c) for (a, b), c in dy]
    elif i == 3:
        fwd = [_tensor(mul(lc(a), Y), lc(b)).scale(c) for (a, b), c in dx]
        inv = [_tensor(lc(b), mul(S(lc(a), True), X)).scale(c)
               for (a, b), c in dy]
    else:
        fwd = [_tensor(lc(a), mul(X, lc(b))).scale(c) for (a, b), c in dy]
        inv = [_tensor(mul(Y, S(lc(b), True)), lc(a)).scale(c)
               for (a, b), c in dx]
    return lc_combine(fwd), lc_combine(inv)


def _assert_sweedler(inst):
    labels = inst.basis_labels(None)
    for i in (1, 2, 3, 4):
        for x, y in itertools.product(labels, labels):
            fwd, inv = _sweedler(inst, i, x, y)
            assert inst.t_pair(i, inst.lc(x), inst.lc(y)) == fwd
            assert inst.t_map_inv(i, LinComb.unit((x, y))) == inv


class TestRescaledTMaps:
    """T-maps of structure-constant instances whose coefficients are not
    all 1, against the Sweedler formulas; with ``antipode-sign`` planted
    the inverses must follow the planted antipode.  Sweedler's H4 and its
    dual have an antipode that is not an involution, so an inverse T-map
    that applies S in place of S^-1 (or the reverse) fails on them."""

    @pytest.mark.parametrize("planted", [False, True],
                             ids=["clean", "antipode-sign"])
    @pytest.mark.parametrize("make", [
        lambda: rescaled_s3(False),
        lambda: rescaled_s3(True),
        lambda: FiniteDimHopf.from_json(H4_HOPF),
        lambda: FiniteDimHopf.from_json(H4_HOPF).dual(),
    ], ids=["group", "functions", "h4", "h4-dual"])
    def test_sweedler_formulas(self, make, planted):
        inst = make()
        if planted:
            _negate_antipode(inst)
        _assert_sweedler(inst)


@pytest.mark.parametrize("cls", [GroupAlgebra, FunctionAlgebra,
                                 DrinfeldDouble, DualDrinfeld],
                         ids=lambda c: c.name)
def test_group_backed_sweedler_formulas(cls):
    """The closed-form T-maps of the group-backed instances on S3, those
    the function sides read from their group sides included, against the
    Sweedler formulas."""
    _assert_sweedler(cls(S3))


class TestDoubles:
    def test_labels_are_point_group_pairs(self):
        d = DrinfeldDouble(Z2)
        assert sorted(d.basis_labels(None)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_units_only_when_finite(self):
        for cls in (DrinfeldDouble, DualDrinfeld):
            fin = cls(Z2)
            assert fin.is_unital
            u = fin.unit()
            for lab in fin.basis_labels(None):
                assert fin.mul(u, fin.lc(lab)) == fin.lc(lab)
                assert fin.mul(fin.lc(lab), u) == fin.lc(lab)
            inf = cls(IntGroup())
            assert not inf.is_unital
            with pytest.raises(StructureError):
                inf.unit()

    def test_counit_picks_identity_point(self):
        d = DrinfeldDouble(Z2)
        assert d.counit(d.lc((0, 1))) == Fraction(1)
        assert d.counit(d.lc((1, 1))) == Fraction(0)


class TestFiniteDimHopf:
    def test_from_group_matches_group_algebra(self):
        fd = FiniteDimHopf.from_group(Z3)
        A = GroupAlgebra(Z3)
        els = Z3.elements()
        idx = {g: i for i, g in enumerate(els)}
        for x, y in itertools.product(els, els):
            prod = fd.mul(fd.lc(idx[x]), fd.lc(idx[y]))
            assert prod == fd.lc(idx[Z3.op(x, y)])
        for x in els:
            assert fd.counit(fd.lc(idx[x])) == A.counit(A.lc(x))
            assert fd.antipode(fd.lc(idx[x])) == fd.lc(idx[Z3.inv(x)])

    def test_dual_transposes_to_function_structure(self):
        K = FiniteDimHopf.from_group(Z3).dual()
        assert K.mul(K.lc(1), K.lc(1)) == K.lc(1)
        assert K.mul(K.lc(1), K.lc(2)).is_zero()
        assert K.counit(K.lc(0)) == Fraction(1)  # index 0 is the identity
        assert K.counit(K.lc(1)) == Fraction(0)
        assert K.unit() == lc_combine(K.lc(i) for i in range(3))

    def test_double_dual_restores_tables(self):
        fd = FiniteDimHopf.from_group(Z3)
        dd = fd.dual().dual()
        assert dd.mul_table == fd.mul_table
        assert dd.comul_table == fd.comul_table
        assert dd.counit_vec == fd.counit_vec
        assert dd.antipode_tab == fd.antipode_tab

    def test_validation_rejects_broken_antipode(self):
        fd = FiniteDimHopf.from_group(Z3)
        bad = [LinComb.unit(0, Fraction(1)) for _ in range(3)]
        with pytest.raises(StructureError):
            FiniteDimHopf(fd.field, fd.mul_table, fd.comul_table,
                          fd.counit_vec, fd.unit_vec, bad)

    def test_from_json_roundtrip(self):
        data = {
            "dim": 2,
            "unit": ["1", "0"],
            "counit": ["1", "1"],
            "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                    [1, 0, 1, "1"], [1, 1, 0, "1"]],
            "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
            "antipode": [[0, 0, "1"], [1, 1, "1"]],
        }
        # The same constants with duplicate rows, which sum, and rows that
        # cancel, whose term is dropped.
        summed = dict(data, **{
            "mul": [[0, 0, 0, "1/2"], [0, 0, 0, "1/2"], [0, 1, 1, "1"],
                    [0, 1, 0, "1"], [0, 1, 0, "-1"],
                    [1, 0, 1, "1"], [1, 1, 0, "1"]],
            "comul": [[0, 0, 0, "1"], [1, 0, 1, "1"], [1, 0, 1, "-1"],
                      [1, 1, 1, "1/2"], [1, 1, 1, "1/2"]],
            "antipode": [[0, 0, "1"], [1, 0, "1"], [1, 0, "-1"],
                         [1, 1, "1/2"], [1, 1, "1/2"]],
        })
        ref = FiniteDimHopf.from_group(Z2)
        for d in (data, summed):
            fd = FiniteDimHopf.from_json(d)
            assert fd.mul_table == ref.mul_table
            assert fd.comul_table == ref.comul_table
            assert fd.antipode_tab == ref.antipode_tab

    def test_from_json_shape_errors(self):
        with pytest.raises(StructureError,
                           match="^instance-json-missing-field: 'mul'$"):
            FiniteDimHopf.from_json({"dim": 2})
        one = {"dim": 1, "unit": ["1"], "counit": ["1"],
               "mul": [[0, 0, 0, "1"]], "comul": [[0, 0, 0, "1"]],
               "antipode": [[0, 0, "1"]]}
        for key, row, diag in [
                ("mul", [0, 0, "1"],
                 "instance-json-shape: mul row [0, 0, '1'] needs "
                 "[i,j,k,coeff]"),
                ("comul", [0, 0, "1"],
                 "instance-json-shape: comul row [0, 0, '1'] needs "
                 "[i,j,k,coeff]"),
                ("antipode", [0, "1"],
                 "instance-json-shape: antipode row [0, '1'] needs "
                 "[i,j,coeff]"),
                ("mul", [0, 0, 5, "1"],
                 "instance-json-index: mul index 5 out of range"),
                ("mul", 5, "instance-json-shape: mul row 5 needs [i,j,k,coeff]"),
                ("comul", 5,
                 "instance-json-shape: comul row 5 needs [i,j,k,coeff]"),
                ("antipode", "5",
                 "instance-json-shape: antipode row '5' needs [i,j,coeff]")]:
            with pytest.raises(StructureError, match=f"^{re.escape(diag)}$"):
                FiniteDimHopf.from_json(dict(one, **{key: [row]}))
        # A coefficient that is not a scalar names its field and row.
        for key, value, diag in [
                ("mul", [[0, 0, 0, None]],
                 "instance-json-shape: mul row [0, 0, 0, None]: cannot "
                 "parse rational scalar from None"),
                ("mul", [[0, 0, 0, "1/0"]],
                 "instance-json-shape: mul row [0, 0, 0, '1/0']: "
                 "Fraction(1, 0)"),
                ("comul", [[0, 0, 0, [1]]],
                 "instance-json-shape: comul row [0, 0, 0, [1]]: cannot "
                 "parse rational scalar from [1]"),
                ("antipode", [[0, 0, True]],
                 "instance-json-shape: antipode row [0, 0, True]: scalar "
                 "must be a number or a string, got True"),
                ("counit", [None],
                 "instance-json-shape: counit entry 0: cannot parse "
                 "rational scalar from None"),
                ("unit", [{"1": 1}],
                 "instance-json-shape: unit entry 0: cannot parse "
                 "rational scalar from {'1': 1}")]:
            with pytest.raises(StructureError, match=f"^{re.escape(diag)}$"):
                FiniteDimHopf.from_json(dict(one, **{key: value}))
        # A structure map or vector that is not a list at all.
        for key in ("mul", "comul", "counit", "unit", "antipode", "basis"):
            for value in (0, 7, "1", {"0": "1"}):
                with pytest.raises(
                        StructureError,
                        match=f"^instance-json-shape: {key} must be a list$"):
                    FiniteDimHopf.from_json(dict(one, **{key: value}))

    def test_aut_transport(self):
        fd = FiniteDimHopf.from_group(S3)
        els = S3.elements()
        idx = {g: i for i, g in enumerate(els)}
        phi = inner_aut(S3, perm((1, 0, 2)))
        for g in els:
            assert fd.apply_aut(phi, fd.lc(idx[g])) == fd.lc(
                idx[phi.apply(g)])



def _aut_cases():
    """(name, instance, non-identity automorphism, basis labels)."""
    phi = inner_aut(S3, perm((1, 2, 0)))
    inv3 = map_aut(Z3, {i: (-i) % 3 for i in range(3)})
    z = IntGroup()
    return [
        ("group-s3", GroupAlgebra(S3), phi, S3.elements()),
        ("functions-s3", FunctionAlgebra(S3), phi, S3.elements()),
        ("double-z3", DrinfeldDouble(Z3), inv3,
         [(p, h) for p in Z3.elements() for h in Z3.elements()]),
        ("dual-double-z3", DualDrinfeld(Z3), inv3,
         [(h, p) for h in Z3.elements() for p in Z3.elements()]),
        # Structure-constant instances carry their own aut_label.
        ("finite-dim-hopf-s3", FiniteDimHopf.from_group(S3), phi,
         list(range(6))),
        ("finite-dim-hopf-s3-dual", FiniteDimHopf.from_group(S3).dual(), phi,
         list(range(6))),
        ("group-z", GroupAlgebra(z), negation_aut(z), list(range(-3, 4))),
    ]


class TestApplyAut:
    """apply_aut returns a one-term value directly; on any value it must
    equal the label-by-label map through the instance's aut_label."""

    @pytest.mark.parametrize("name,inst,phi,labels", _aut_cases(),
                             ids=[c[0] for c in _aut_cases()])
    def test_matches_map_labels_reference(self, name, inst, phi, labels):
        assert not phi.is_identity()
        coeffs = [Fraction(3, 2), -2, 5, Fraction(-1, 7)]
        values = [inst.lc(l, c) for l, c in zip(labels, coeffs * 3)]
        values += [LinComb.from_pairs(zip(labels[i:i + n], coeffs))
                   for n in (2, 3, 4) for i in range(len(labels) - n + 1)]
        values.append(LinComb.zero())
        moved = 0
        for x in values:
            ref = x.map_labels(lambda l: inst.aut_label(phi, l))
            out = inst.apply_aut(phi, x)
            assert out == ref
            moved += out != x
        assert moved

    def test_identity_returns_the_value(self):
        inst = FiniteDimHopf.from_group(S3)
        x = inst.lc(2, Fraction(3))
        assert inst.apply_aut(inner_aut(S3, perm((0, 1, 2))), x) is x
