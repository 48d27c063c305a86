"""Suite runner: report shape, axiom rosters, determinism, corruption
detection, and the case-scheduling/rank helpers."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhag import (LinComb, RationalField, SUITE_NAMES, run_suite,
                  run_verify, session_from_json, suite_axioms)
from mhag.suites import (NoCasesError, _check, _Rank, _cases, _runs,
                         _stride)

from conftest import (IDENT, NEG, group_instance, inner, make_session,
                      sampled, session_spec)

HOPF_AXIOMS = ["coassociativity", "counit-right", "counit-left",
               "antipode-left", "antipode-right", "delta-multiplicative",
               "antipode-antihom", "antipode-roundtrip",
               "axiom-ii-surjectivity"]
CROSSING_AXIOMS = ["xi-algebra-morphism", "xi-composition", "xi-unit",
                   "xi-inverse-roundtrip", "xi-comul-compat",
                   "xi-counit-compat"]
QT_AXIOMS = ["qt-conjugation", "qt-coproduct-first", "qt-coproduct-second",
             "qt-intertwine", "w-pairing", "w-coproduct-b", "w-coproduct-a",
             "w-invertible"]
LEMMA42_AXIOMS = ["w-intertwiner-a", "w-intertwiner-b"]


class TestReportShape:
    def test_json_keys_exact(self, z2_session):
        for rep in run_suite(z2_session, "lemma42"):
            data = rep.to_json()
            assert set(data) == {"axiom", "status", "cases",
                                 "counterexample"}
            assert data["status"] in ("pass", "fail")
            assert isinstance(data["cases"], int) and data["cases"] > 0
            json.dumps(data)  # must be serializable as-is

    def test_pass_has_null_counterexample(self, z2_session):
        for rep in run_suite(z2_session, "hopf"):
            assert rep.status == "pass"
            assert rep.counterexample is None


class TestRosters:
    def test_suite_names(self):
        assert tuple(SUITE_NAMES) == ("hopf", "cograded", "crossing",
                                      "quasitriangular", "lemma42", "oracle")

    def test_unknown_suite(self, z2_session):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_axioms(z2_session, "nonsense")

    def test_axiom_names(self, z2_session):
        names = lambda suite: [n for n, _ in suite_axioms(z2_session, suite)]
        assert names("hopf") == HOPF_AXIOMS
        assert names("crossing") == CROSSING_AXIOMS
        assert names("quasitriangular") == QT_AXIOMS
        assert names("lemma42") == LEMMA42_AXIOMS
        cog = names("cograded")
        for expected in ["grading-group-associative", "base-t-roundtrip-a",
                         "pairing-nondegenerate", "dcp-associativity",
                         "commutation-rule", "twist-roundtrip",
                         "crossed-nondegenerate", "crossed-right-unit"]:
            assert expected in cog

    def test_only_filters_in_canonical_order(self, z2_session):
        got = [n for n, _ in suite_axioms(z2_session, "hopf",
                                          only=["counit-left",
                                                "coassociativity"])]
        assert got == ["coassociativity", "counit-left"]
        assert suite_axioms(z2_session, "hopf", only=["bogus"]) == []

    def test_oracle_dispatch_per_instance_kind(self):
        def oracle_names(inst):
            S = make_session(session_spec(inst))
            return [n for n, _ in suite_axioms(S, "oracle")]

        assert oracle_names(group_instance("cyclic", 2)) == [
            "oracle-mul", "oracle-comul", "oracle-counit",
            "oracle-antipode", "oracle-r"]
        assert oracle_names({"kind": "finite-dim-hopf",
                             "group": {"kind": "cyclic", "n": 2}}) == [
            "oracle-mul", "oracle-comul", "oracle-counit",
            "oracle-antipode", "oracle-r", "oracle-r-closed-form"]
        assert oracle_names({"kind": "drinfeld-double",
                             "group": {"kind": "cyclic", "n": 2}}) == [
            "oracle-mul", "oracle-antipode", "oracle-comul"]
        trivial = {"dim": 1, "unit": ["1"], "counit": ["1"],
                   "mul": [[0, 0, 0, "1"]], "comul": [[0, 0, 0, "1"]],
                   "antipode": [[0, 0, "1"]]}
        assert oracle_names({"kind": "finite-dim-hopf", "hopf": trivial}) == []


class TestHonestSessionsPass:
    def test_z2_all_suites(self, z2_session):
        for suite in SUITE_NAMES:
            for rep in run_suite(z2_session, suite):
                assert rep.status == "pass", (suite, rep.axiom,
                                              rep.counterexample)

    def test_z3_graded_spot(self, z3_session_graded):
        for suite in ("hopf", "crossing"):
            for rep in run_suite(z3_session_graded, suite):
                assert rep.status == "pass", (suite, rep.axiom)

    def test_sampled_integers_spot(self):
        S = make_session(session_spec(group_instance("Z"),
                                      gradings=[[IDENT, IDENT], [NEG, NEG]],
                                      enum=sampled(40, 3)))
        for rep in run_suite(S, "lemma42"):
            assert rep.status == "pass", rep.axiom


class TestDeterminism:
    def test_run_suite_repeats_byte_identical(self, z3_session_graded):
        one = [r.to_json() for r in run_suite(z3_session_graded, "hopf")]
        two = [r.to_json() for r in run_suite(z3_session_graded, "hopf")]
        assert json.dumps(one) == json.dumps(two)

    def test_verify_report_structure(self, z2_session):
        report = run_verify(z2_session, ["lemma42", "oracle"])
        assert set(report) == {"suites", "status"}
        assert [s["name"] for s in report["suites"]] == ["lemma42", "oracle"]
        assert report["status"] == "pass"
        for entry in report["suites"]:
            for ax in entry["axioms"]:
                assert set(ax) == {"axiom", "status", "cases",
                                   "counterexample"}


class TestCorruptionDetection:
    """Each deliberate defect is caught by at least one suite with a
    concrete, serializable counterexample."""

    def check(self, spec, suite, expect_axioms):
        reps = run_suite(make_session(spec), suite)
        fails = {r.axiom: r for r in reps if r.status == "fail"}
        for name in expect_axioms:
            assert name in fails, (name, sorted(fails))
            ce = fails[name].counterexample
            assert isinstance(ce, dict) and ce
            json.dumps(ce)
        return fails

    def test_swap_delta_legs(self):
        fails = self.check(
            session_spec(group_instance("cyclic", 4),
                         corrupt="swap-delta-legs"),
            "hopf", ["coassociativity", "counit-left", "counit-right"])
        assert fails["coassociativity"].cases == 5

    def test_antipode_sign(self):
        self.check(
            session_spec(group_instance("cyclic", 2),
                         corrupt="antipode-sign"),
            "hopf", ["counit-left", "antipode-left", "antipode-antihom"])

    def test_pair_mul_twist_needs_nonabelian_gradings(self):
        g2 = [[IDENT, inner((1, 0, 2))],
              [inner((1, 2, 0)), inner((1, 2, 0))]]
        fails = self.check(
            session_spec(group_instance("symmetric", 3), gradings=g2,
                         corrupt="pair-mul-twist"),
            "hopf", ["coassociativity", "delta-multiplicative"])
        assert fails["coassociativity"].cases == 5003

    def test_xi_composite(self):
        g2 = [[IDENT, inner((1, 0, 2))],
              [inner((1, 2, 0)), inner((1, 2, 0))]]
        self.check(
            session_spec(group_instance("symmetric", 3), gradings=g2,
                         corrupt="xi-composite"),
            "crossing", ["xi-algebra-morphism", "xi-comul-compat"])

    def test_drop_r_term(self):
        self.check(
            session_spec(group_instance("cyclic", 2),
                         corrupt="drop-r-term"),
            "quasitriangular", ["qt-coproduct-second", "w-pairing",
                                "w-coproduct-a", "w-invertible"])

    @pytest.mark.parametrize("instance,corrupt,suite,axiom", [
        (group_instance("symmetric", 3), "swap-delta-legs",
         "quasitriangular", "qt-intertwine"),
        (group_instance("Z"), "swap-delta-legs", "quasitriangular",
         "qt-intertwine"),
        ({"kind": "finite-dim-hopf", "group": {"kind": "symmetric", "n": 3}},
         "drop-r-term", "oracle", "oracle-r-closed-form"),
    ], ids=["s3-swap", "z-swap", "finite-dim-s3-drop"])
    def test_defect_reaches_every_reader(self, instance, corrupt, suite,
                                         axiom):
        # The intertwining law reads the planted coproduct legs, and the
        # dual-basis closed form reads the planted canonical multiplier.
        gradings = None if instance == group_instance("Z") else [
            [IDENT, IDENT], [inner((1, 0, 2)), inner((0, 2, 1))]]
        spec = session_spec(instance, gradings=gradings,
                            enum=sampled(15, 7), corrupt=corrupt)
        rep, = run_suite(make_session(spec), suite, only=[axiom])
        assert rep.status == "fail" and rep.counterexample

    def test_abelian_instances_hide_composition_defects(self):
        # A commuting grading family cannot distinguish the twisted
        # composition from the naive one; detecting these defects needs
        # non-commuting inner automorphisms.
        S = make_session(session_spec(
            group_instance("cyclic", 4), gradings=[[IDENT, IDENT],
                                                   [NEG, NEG]],
            corrupt="xi-composite"))
        assert all(r.status == "pass" for r in run_suite(S, "crossing"))


class TestNoVacuousPass:
    """A check that evaluated zero cases raises instead of passing."""

    def test_empty_case_pool_raises(self, z2_session):
        cases = lambda: _cases(z2_session, "t", [[0, 1]], [[]])
        _, run = _check("empty-pool", cases, lambda *case: None)
        with pytest.raises(NoCasesError, match="'empty-pool'.*zero cases"):
            run()

    def test_one_case_passes_and_a_failure_reports(self, z2_session):
        cases = lambda: _cases(z2_session, "t", [[0]])
        rep = _check("one", cases, lambda *case: None)[1]()
        assert (rep.status, rep.cases) == ("pass", 1)
        rep = _check("one", cases, lambda *case: {"at": case})[1]()
        assert (rep.status, rep.cases) == ("fail", 1)


class TestCaseScheduling:
    @given(st.integers(min_value=1, max_value=500))
    def test_stride_coprime(self, n):
        assert math.gcd(_stride(n), n) == 1

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                    max_size=4), st.integers(min_value=1, max_value=30))
    def test_decode_roundtrip(self, sizes, cap):
        """Every index read through the runs of the pools is the tuple of
        the same mixed-radix index of their product, and no product list
        of a run outgrows the cap unless it holds one pool."""
        pools = [list(range(s)) for s in sizes]
        runs = _runs(pools, cap)
        assert all(len(table) == size and (size <= cap or len(table[0]) == 1)
                   for table, _, size in runs)
        decoded = [sum((table[k // place % size]
                        for table, place, size in runs), ())
                   for k in range(math.prod(sizes))]
        assert decoded == list(itertools.product(*pools))

    def test_exhaustive_small_is_full_product(self, z2_session):
        pools = [[0, 1], ["x", "y", "z"]]
        got = list(_cases(z2_session, "t", pools))
        assert got == list(itertools.product(*pools))

    def test_exhaustive_rotation_respects_budget_and_membership(self,
                                                                z2_session):
        primary = [list(range(6))]
        secondary = [list(range(50)), list(range(40))]
        got = list(_cases(z2_session, "t", primary, secondary, budget=100))
        assert 0 < len(got) <= 2 * 2000
        assert len(got) < 6 * 2000
        for prim, s1, s2 in got:
            assert prim in primary[0]
            assert s1 in secondary[0] and s2 in secondary[1]
        assert {t[0] for t in got} == set(primary[0])
        again = list(_cases(z2_session, "t", primary, secondary, budget=100))
        assert got == again

    def test_sampled_cap_and_tag_independence(self):
        S = make_session(session_spec(group_instance("Z"),
                                      gradings=[[NEG, NEG]],
                                      enum=sampled(25, 4)))
        pools = [list(range(60)), list(range(60))]
        a = list(_cases(S, "alpha", pools))
        b = list(_cases(S, "beta", pools))
        assert len(a) == len(b) == 25
        assert a != b
        assert a == list(_cases(S, "alpha", pools))


def _dense_rank(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * p for v, p in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


class TestIncrementalRank:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                             min_size=3, max_size=3),
                    min_size=0, max_size=6))
    @example(rows=[])
    # Dividing by the pivot 5 once gave the float -0.6000000000000001,
    # and the rank came out 3.
    @example(rows=[[-1, -3, 2], [-1, 2, -1], [-1, 2, -1]])
    def test_matches_dense_reference(self, rows):
        F = RationalField()
        rk = _Rank(F)
        for row in rows:
            rk.add(LinComb({(j,): F.parse(str(v))
                            for j, v in enumerate(row) if v}))
        assert rk.rank == _dense_rank(rows)

    def test_duplicate_rows_do_not_inflate(self):
        F = RationalField()
        rk = _Rank(F)
        row = LinComb({(0,): F.one(), (1,): F.parse("2")})
        rk.add(row)
        rk.add(row.scale(F.parse("3")))
        assert rk.rank == 1
