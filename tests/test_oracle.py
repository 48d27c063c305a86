"""Closed-form oracles versus the generic engine on small instances.

These are the independent expected values: multiplication, covered
comultiplication, counit, antipode, and R application have closed forms in
the group case and in the double case.  The engine must reproduce them
exactly; the suites exercise the same comparisons at acceptance scale.
"""

import ast
import itertools
from pathlib import Path

from mhag import DrinfeldPairing, GroupPairing, comul_covered, dcp_mul, r_apply
from mhag.cograded import graded_antipode, graded_counit
from mhag.groups import AutPair, TableGroup, identity_aut, map_aut
from mhag.linear import BasisTable, LinComb
from mhag.oracle import (double_antipode, double_comul_covered_brute,
                         double_mul, group_antipode, group_comul_covered,
                         group_counit, group_mul, group_r_apply_left)

Z3 = TableGroup.cyclic(3)
PZ3 = GroupPairing(Z3)
I3 = identity_aut(Z3)
INV3 = map_aut(Z3, {k: (-k) % 3 for k in range(3)})
GRADINGS = [AutPair(I3, I3), AutPair(I3, INV3),
            AutPair(INV3, I3), AutPair(INV3, INV3)]


def crossed_basis(P):
    return [(la, lb) for la in P.A.basis_labels(None)
            for lb in P.B.basis_labels(None)]


class TestGroupClosedForms:
    basis = crossed_basis(PZ3)

    def test_mul(self):
        for g in GRADINGS:
            for t1, t2 in itertools.product(self.basis, self.basis):
                assert dcp_mul(PZ3, g, LinComb.unit(t1), LinComb.unit(t2)) \
                    == group_mul(PZ3, g, t1, t2)

    def test_comul_covered(self):
        for p, q in itertools.product(GRADINGS, GRADINGS):
            for t, cover in itertools.product(self.basis, self.basis):
                eng = comul_covered(PZ3, LinComb.unit(t), p, q,
                                    LinComb.unit(cover), side="right")
                assert eng == group_comul_covered(PZ3, p, q, t, cover)

    def test_counit(self):
        for t in self.basis:
            assert graded_counit(PZ3, LinComb.unit(t)) == group_counit(PZ3, t)

    def test_antipode(self):
        from mhag.groups import aut_pair_inv
        for g in GRADINGS:
            for t in self.basis:
                target, expected = group_antipode(PZ3, g, t)
                assert graded_antipode(PZ3, g, LinComb.unit(t)) == expected
                assert target == aut_pair_inv(g)

    def test_r_application(self):
        for p, q in itertools.product(GRADINGS, GRADINGS):
            for tu, tv in itertools.islice(
                    itertools.product(self.basis, self.basis), 0, None, 2):
                assert r_apply(PZ3, p, q, LinComb.unit(tu + tv)) == \
                    group_r_apply_left(PZ3, p, q, tu, tv)


class TestDoubleClosedForms:
    """The double pairing's displayed product/antipode/coproduct match the
    generic machinery, exhaustively at |H| = 2 and strided at |H| = 3."""

    def test_z2_product_exhaustive(self):
        P = DrinfeldPairing(TableGroup.cyclic(2))
        e = AutPair(identity_aut(P.B.group), identity_aut(P.B.group))
        basis = crossed_basis(P)
        assert len(basis) == 16
        for t1, t2 in itertools.product(basis, basis):
            assert dcp_mul(P, e, LinComb.unit(t1), LinComb.unit(t2)) == \
                double_mul(P, e, t1, t2)

    def test_z2_antipode_exhaustive(self):
        P = DrinfeldPairing(TableGroup.cyclic(2))
        e = AutPair(identity_aut(P.B.group), identity_aut(P.B.group))
        for t in crossed_basis(P):
            assert graded_antipode(P, e, LinComb.unit(t)) == \
                double_antipode(P, e, t)

    def test_z2_comul_brute_subset(self):
        P = DrinfeldPairing(TableGroup.cyclic(2))
        e = AutPair(identity_aut(P.B.group), identity_aut(P.B.group))
        basis = crossed_basis(P)
        for t, cover in itertools.islice(
                itertools.product(basis, basis), 0, None, 7):
            x, c = LinComb.unit(t), LinComb.unit(cover)
            assert comul_covered(P, x, e, e, c, side="right") == \
                double_comul_covered_brute(P, e, e, x, c)

    def test_z3_nontrivial_grading_strided(self):
        P = DrinfeldPairing(Z3)
        gradings = [AutPair(I3, I3), AutPair(I3, INV3), AutPair(INV3, INV3)]
        basis = crossed_basis(P)
        assert len(basis) == 81
        for g in gradings:
            for t1, t2 in itertools.islice(
                    itertools.product(basis, basis), 0, None, 37):
                assert dcp_mul(P, g, LinComb.unit(t1), LinComb.unit(t2)) == \
                    double_mul(P, g, t1, t2)
            for t in basis[::5]:
                assert graded_antipode(P, g, LinComb.unit(t)) == \
                    double_antipode(P, g, t)


def test_closed_forms_read_no_engine_table():
    """The closed forms are independent of the engine: ``oracle.py`` reads
    none of the pairing's tables (the grading tables among them) and
    composes gradings with the honest ``aut_pair_mul``."""
    tables = {name for name, value in vars(GroupPairing(Z3)).items()
              if isinstance(value, BasisTable)}
    assert {"_gmul", "_gaut", "_split", "_cross", "_wbaut"} <= tables
    path = Path(__file__).resolve().parent.parent / "src/mhag/oracle.py"
    tree = ast.parse(path.read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert not read & (tables | {"pair_mul"})
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"aut_pair_mul", "aut_pair_inv"} <= called
