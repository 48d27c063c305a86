"""Command-line interface: exit codes, report/export determinism, eval
ops, and input diagnostics."""

import contextlib
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhag
from mhag import EnumSpec, Session, export_structure
from mhag.cli import _dump, main
from mhag.cograded import comul_covered
from mhag.crossed import dcp_mul
from mhag.linear import LinComb, label_key
from mhag.session import grading_to_json
from mhag.suites import _fmt, _lab

from conftest import (C2_HOPF, H4_HOPF, IDENT, NEG, cyc_inv, engine_cases,
                      group_instance, hopf_instance, inner, make_session,
                      sampled, session_spec, write_spec)

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def z2_spec(tmp_path):
    return write_spec(tmp_path, session_spec(group_instance("cyclic", 2)))


@pytest.fixture
def z_spec(tmp_path):
    return write_spec(tmp_path, session_spec(
        group_instance("Z"), gradings=[[IDENT, IDENT], [NEG, NEG]],
        enum=sampled(40, 3)))


class TestVerify:
    def test_all_suites_pass_exit_zero(self, capsys, z2_spec):
        rc, out, _ = run_cli(capsys, "verify", "--spec", z2_spec)
        assert rc == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert [s["name"] for s in report["suites"]] == [
            "hopf", "cograded", "crossing", "quasitriangular", "lemma42",
            "oracle"]

    def test_suite_subset_and_order(self, capsys, z2_spec):
        rc, out, _ = run_cli(capsys, "verify", "--spec", z2_spec,
                             "--suite", "lemma42,hopf")
        assert rc == 0
        report = json.loads(out)
        assert [s["name"] for s in report["suites"]] == ["lemma42", "hopf"]

    def test_unknown_suite_exits_two(self, capsys, z2_spec):
        rc, _, err = run_cli(capsys, "verify", "--spec", z2_spec,
                             "--suite", "hopf,algebraic")
        assert rc == 2
        assert "unknown suite" in err

    def test_corrupted_session_exits_one_naming_antipode(self, capsys,
                                                         tmp_path):
        spec = write_spec(tmp_path, session_spec(
            group_instance("cyclic", 2), corrupt="antipode-sign"))
        rc, out, _ = run_cli(capsys, "verify", "--spec", spec,
                             "--suite", "hopf")
        assert rc == 1
        report = json.loads(out)
        assert report["status"] == "fail"
        failed = [ax["axiom"] for s in report["suites"]
                  for ax in s["axioms"] if ax["status"] == "fail"]
        assert any("antipode" in name for name in failed)
        for s in report["suites"]:
            for ax in s["axioms"]:
                if ax["status"] == "fail":
                    assert isinstance(ax["counterexample"], dict)

    def test_byte_identical_reports(self, capsys, z_spec):
        args = ("verify", "--spec", z_spec, "--suite", "lemma42,hopf")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2

    def test_seed_flag_changes_sampled_cases(self, capsys, z_spec):
        _, a, _ = run_cli(capsys, "verify", "--spec", z_spec,
                          "--suite", "lemma42", "--seed", "1")
        _, b, _ = run_cli(capsys, "verify", "--spec", z_spec,
                          "--suite", "lemma42", "--seed", "2")
        ca = [ax["cases"] for s in json.loads(a)["suites"]
              for ax in s["axioms"]]
        cb = [ax["cases"] for s in json.loads(b)["suites"]
              for ax in s["axioms"]]
        assert ca == cb  # same plan size either way

    @pytest.mark.parametrize("suite", mhag.SUITE_NAMES)
    @pytest.mark.parametrize("hopf", [C2_HOPF, H4_HOPF], ids=["c2", "h4"])
    def test_structure_constant_session_passes(self, capsys, tmp_path, hopf,
                                               suite):
        # A session given by bare structure constants grades over a
        # one-element carrier and has no automorphism action on its basis.
        spec = write_spec(tmp_path, session_spec(hopf_instance(hopf)))
        rc, out, err = run_cli(capsys, "verify", "--spec", spec,
                               "--suite", suite)
        assert (rc, err) == (0, "")
        assert json.loads(out)["status"] == "pass"

    @pytest.mark.parametrize("suite", mhag.SUITE_NAMES)
    def test_double_over_the_integers(self, capsys, tmp_path, suite):
        # The only session whose function side reads its T-maps from the
        # double over an infinite group, and whose covers come from the
        # non-unital branch of the double's crossed right unit.  W is not
        # enumerable there, so the suites that sum over it exit 2.
        spec = write_spec(tmp_path, session_spec(
            {"kind": "drinfeld-double", "group": "Z"},
            gradings=[[IDENT, IDENT], [NEG, NEG]], enum=sampled(40, 3)))
        rc, out, err = run_cli(capsys, "verify", "--spec", spec,
                               "--suite", suite)
        if suite in ("quasitriangular", "lemma42"):
            assert (rc, out) == (2, "")
            assert err.startswith("error: w-not-enumerable: ")
            assert err.count("\n") == 1
        else:
            assert (rc, err) == (0, "")
            assert json.loads(out)["status"] == "pass"

    def test_map_grading_on_the_integers_exits_two(self, capsys, tmp_path):
        # Negation given as an image map once ran as the identity grading.
        neg_map = {"kind": "map", "images": {"1": -1}}
        spec = write_spec(tmp_path, session_spec(
            group_instance("Z"), gradings=[[IDENT, IDENT], [neg_map, NEG]],
            enum=sampled(40, 3)))
        rc, out, err = run_cli(capsys, "verify", "--spec", spec,
                               "--suite", "cograded")
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "'negation'" in err
        assert err.count("\n") == 1

    def test_repeated_table_mul_row_exits_two(self, capsys, tmp_path):
        # (1, 1) given twice: the last row once won and the session ran as Z/2.
        group = {"kind": "table", "elements": [0, 1],
                 "mul": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1],
                         [1, 1, 0]]}
        spec = write_spec(tmp_path, session_spec({"kind": "group",
                                                  "group": group}))
        rc, out, err = run_cli(capsys, "verify", "--spec", spec)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "table-mul-row" in err
        assert err.count("\n") == 1

    def test_out_flag_writes_file(self, tmp_path, capsys, z2_spec):
        target = tmp_path / "report.json"
        rc, out, _ = run_cli(capsys, "verify", "--spec", z2_spec,
                             "--suite", "lemma42", "--out", str(target))
        assert rc == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["status"] == "pass"


def test_duality_diagnostic_names_permutations(capsys, tmp_path):
    """Labels in a diagnostic read as image tuples, as in the JSON."""
    spec = write_spec(tmp_path, session_spec(group_instance("symmetric", 3),
                                             corrupt="antipode-sign"))
    rc, out, _ = run_cli(capsys, "verify", "--spec", spec,
                         "--suite", "cograded")
    assert rc == 1
    axioms = json.loads(out)["suites"][0]["axioms"]
    duality, = [a for a in axioms if a["axiom"] == "pairing-duality"]
    assert duality["counterexample"] == {
        "diagnostic": "pairing-antipode-law-fails: a=(0, 1, 2), b=(0, 1, 2)"}


class TestOracleCompare:
    def test_runs_only_oracle_suite(self, capsys, z2_spec):
        rc, out, _ = run_cli(capsys, "oracle-compare", "--spec", z2_spec)
        assert rc == 0
        report = json.loads(out)
        assert [s["name"] for s in report["suites"]] == ["oracle"]
        assert {ax["axiom"] for s in report["suites"]
                for ax in s["axioms"]} == {
            "oracle-mul", "oracle-comul", "oracle-counit",
            "oracle-antipode", "oracle-r"}


def _ref_export_structure(S):
    """``export_structure`` as it was when every coproduct row was built by
    ``_fmt``, one fresh list per label slot."""
    P = S.P
    to_str = S.field.to_str
    crossed = sorted(S.crossed_labels(), key=label_key)
    shown = {x: _lab(S, "ab", x) for x in crossed}
    gradings = [(g, grading_to_json(g)) for g in S.gradings]
    components = []
    for g, g_json in gradings:
        entries = []
        for x in crossed:
            for y in crossed:
                prod = dcp_mul(P, g, LinComb.unit(x), LinComb.unit(y))
                for lab, c in prod.sorted_items():
                    entries.append([shown[x], shown[y], shown[lab],
                                    to_str(c)])
        components.append({"grading": g_json, "mul": entries})
    splits = []
    for p, p_json in gradings:
        for q, q_json in gradings:
            images = []
            for x in crossed:
                for cover in crossed:
                    half = comul_covered(
                        P, LinComb.unit(x), p, q, LinComb.unit(cover),
                        side="right")
                    images.append([shown[x], shown[cover],
                                   _fmt(S, "abab", half)])
            splits.append({"left": p_json, "right": q_json,
                           "side": "right", "images": images})
    return {"gradings": [g_json for _, g_json in gradings],
            "components": components, "splits": splits}


def _engine_session(make, gradings):
    return lambda: Session(make(), gradings, EnumSpec(), "exhaustive",
                           "engine-case")


# Every finite pairing of ``conftest.engine_cases`` but the double of S3,
# whose 1296 crossed labels make 1296 x 1296 products per component; the
# double of Z3 over F_7 stands in for it.
_EXPORT_CASES = {
    name: _engine_session(make, gradings)
    for name, make, gradings, _ in engine_cases()
    if name not in ("z-sign", "double-f10007")}
_EXPORT_CASES["double-z3-f7"] = lambda: make_session({
    **session_spec({"kind": "drinfeld-double",
                    "group": {"kind": "cyclic", "n": 3}}),
    "scalars": {"prime": 7}})


class TestExport:
    def test_byte_stable_and_complete(self, capsys, z2_spec):
        rc1, out1, _ = run_cli(capsys, "export", "--spec", z2_spec)
        rc2, out2, _ = run_cli(capsys, "export", "--spec", z2_spec)
        assert (rc1, rc2) == (0, 0) and out1 == out2
        data = json.loads(out1)
        assert set(data) == {"gradings", "components", "splits"}
        (comp,) = data["components"]
        # 16 basis pairs; at the trivial grading the function-algebra
        # legs must agree, leaving 8 nonzero products of one term each
        assert len(comp["mul"]) == 8
        (split,) = data["splits"]
        assert len(split["images"]) == 16

    def test_infinite_instance_rejected(self, capsys, z_spec):
        rc, _, err = run_cli(capsys, "export", "--spec", z_spec)
        assert rc == 2
        assert "export requires a finite instance" in err

    @pytest.mark.parametrize("name", _EXPORT_CASES)
    def test_matches_the_former_row_builder(self, name):
        S = _EXPORT_CASES[name]()
        assert export_structure(S) == _ref_export_structure(S)

    # (term lists, distinct texts): the 5184 images of S3's four splits
    # repeat 1296 texts; the double's one split repeats none.
    @pytest.mark.parametrize("name, n_lists, n_texts", [
        ("s3-inner", 5184, 1296), ("double-z3-f7", 6561, 6561)])
    def test_split_term_lists_shared_exactly_when_rendered_alike(
            self, name, n_lists, n_texts):
        """Two coproduct term lists are one object exactly when their JSON
        is equal: ``_dump`` then writes every repeat from one string, and
        no two lists that render differently are merged."""
        out = export_structure(_EXPORT_CASES[name]())
        lists = [im[2] for sp in out["splits"] for im in sp["images"]]
        ids_by_text = {}
        for terms in lists:
            ids_by_text.setdefault(json.dumps(terms), set()).add(id(terms))
        assert all(len(ids) == 1 for ids in ids_by_text.values())
        assert len({id(terms) for terms in lists}) == len(ids_by_text)
        assert (len(lists), len(ids_by_text)) == (n_lists, n_texts)


def _stdlib_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _first_difference(a: str, b: str) -> int:
    """The first offset at which ``a`` and ``b`` differ, or the length of
    the shorter one when it is a prefix of the other: the longest common
    prefix, found by bisection on prefix comparisons."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


# Quotes, backslashes, control characters and non-ASCII (an astral one
# too, which escapes as a surrogate pair) in keys and strings.
_chars = st.sampled_from('ab "\\/\n\t\x00\x1f\x7fé€\U0001f600')
_texts = st.text(_chars, max_size=4)
_scalar_leaves = st.one_of(
    _texts, st.integers(), st.sampled_from([2**70, -(2**64) - 1, 0]),
    st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
    st.just([]), st.just({}))
_documents = st.recursive(
    _scalar_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_texts, kids, max_size=4),
    max_leaves=24)

_shared_items = st.one_of(
    _scalar_leaves, st.tuples(_scalar_leaves, _scalar_leaves),
    st.dictionaries(_texts, _scalar_leaves, max_size=2))


@st.composite
def _documents_sharing_lists(draw):
    """Documents that hold the same list objects several times, at one
    indent and at several.  A shared list holds scalars, floats, tuples,
    dicts, ``[]`` and earlier shared lists."""
    pool = [draw(st.lists(_shared_items, min_size=1, max_size=4))]
    for _ in range(draw(st.integers(0, 3))):
        items = _shared_items | st.sampled_from(pool)
        pool.append(draw(st.lists(items, min_size=1, max_size=4)))
    trees = st.recursive(
        st.sampled_from(pool),
        lambda kids: st.lists(kids, max_size=4)
        | st.dictionaries(_texts, kids, max_size=3),
        max_leaves=12)
    return draw(st.lists(trees, min_size=2, max_size=4))


_twice = [1, ["x", 2.5]]


class TestDump:
    """``_dump`` writes exactly what ``json.dumps`` writes."""

    @settings(max_examples=400, deadline=None)
    @given(_documents)
    def test_matches_json_dumps(self, payload):
        assert _dump(payload) == _stdlib_dump(payload)

    @settings(max_examples=300, deadline=None)
    @given(_documents_sharing_lists())
    def test_shared_lists_match_json_dumps(self, payload):
        assert _dump(payload) == _stdlib_dump(payload)

    # One list met twice at one indent, then at a deeper one (or the
    # other way round): a memo keyed on the list alone would write the
    # text kept at the first indent.
    @pytest.mark.parametrize("payload", [
        [_twice, _twice, {"deeper": [_twice, _twice]}],
        [{"deeper": [_twice, _twice, _twice]}, _twice, _twice],
    ], ids=["shallow-first", "deep-first"])
    def test_one_list_at_two_depths(self, payload):
        assert _dump(payload) == _stdlib_dump(payload)

    @pytest.mark.parametrize("payload", [
        {1: "a", 2: [True, None]},
        {"x": [{3: [1, []]}, {"y": {}}], "z": {True: 1.5, False: []}},
        ("a", [1, ("b",)]),
        {"t": (1, "é"), "u": [True, 1, False, 0]},
        [0.1, math.inf, -math.inf, math.nan, None, "s", 2],
        "é\n", 7, -2**80, True, None, 0.1, float("-inf"), float("nan"),
        [], {},
    ], ids=repr)
    def test_other_keys_and_bare_scalars(self, payload):
        assert _dump(payload) == _stdlib_dump(payload)

    @pytest.mark.parametrize("spec", [
        session_spec(group_instance("symmetric", 3), gradings=[
            [IDENT, IDENT], [inner((1, 0, 2)), inner((0, 2, 1))]]),
        session_spec({"kind": "finite-dim-hopf",
                      "group": {"kind": "symmetric", "n": 3}}),
        {**session_spec({"kind": "drinfeld-double",
                         "group": {"kind": "cyclic", "n": 3}}),
         "scalars": {"prime": 7}},
    ], ids=["s3-group", "s3-finite-dim", "double-z3-f7"])
    def test_export_matches_json_dumps(self, spec):
        out = export_structure(make_session(spec))
        got, want = _dump(out), _stdlib_dump(out)
        # The documents run to megabytes: compare offsets, so a failure
        # names the first differing bytes instead of diffing both strings.
        at, n_got, n_want = _first_difference(got, want), len(got), len(want)
        near = slice(max(at - 40, 0), at + 40)
        assert at == n_got == n_want, (
            f"first difference at offset {at}: "
            f"{got[near]!r} != {want[near]!r}")


class TestEval:
    def ev(self, capsys, spec, op, params):
        rc, out, err = run_cli(capsys, "eval", "--spec", spec,
                               "--op", op, "--args", json.dumps(params))
        return rc, (json.loads(out) if rc == 0 else err)

    def test_dcp_mul(self, capsys, z2_spec):
        rc, data = self.ev(capsys, z2_spec, "dcp-mul",
                           {"grading": 0,
                            "x": [[0, 1]], "y": [[0, 1, "2"]]})
        assert rc == 0
        assert data == {"op": "dcp-mul", "result": [[0, 0, "2"]]}

    def test_counit_and_pair(self, capsys, z2_spec):
        rc, data = self.ev(capsys, z2_spec, "counit", {"x": [[0, 0], [0, 1]]})
        assert rc == 0 and data["result"] == "2"
        rc, data = self.ev(capsys, z2_spec, "pair", {"a": [[1]], "b": [[1]]})
        assert rc == 0 and data["result"] == "1"

    def test_antipode_inverse_roundtrip(self, capsys, z2_spec):
        rc, fwd = self.ev(capsys, z2_spec, "antipode",
                          {"grading": 0, "x": [[0, 1]]})
        assert rc == 0
        rc, back = self.ev(capsys, z2_spec, "antipode",
                           {"grading": 0, "x": fwd["result"],
                            "inverse": True})
        assert rc == 0
        assert back["result"] == [[0, 1, "1"]]

    @pytest.mark.parametrize("inverse", ["false", 1])
    def test_inverse_must_be_a_boolean(self, capsys, tmp_path, inverse):
        # On H4 the antipode is not an involution, so reading "false" as
        # true would answer with S^-1: the term ["gx", "1", "1"].
        spec = write_spec(tmp_path, session_spec(hopf_instance(H4_HOPF)))
        params = {"grading": 0, "x": [[2, 0]]}
        rc, plain = self.ev(capsys, spec, "antipode", params)
        assert rc == 0 and plain["result"] == [["gx", "1", "-1"]]
        rc, data = self.ev(capsys, spec, "antipode",
                           {**params, "inverse": False})
        assert rc == 0 and data == plain
        rc, err = self.ev(capsys, spec, "antipode",
                          {**params, "inverse": inverse})
        assert rc == 2 and "'inverse'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("coeff, result", [
        ("1/2", [[0, 1, "1/2"]]), (3, [[0, 1, "3"]]),
        (0.5, None), (True, None)])
    def test_coefficient_is_an_integer_or_a_string(self, capsys, z2_spec,
                                                   coeff, result):
        """A JSON float or boolean is refused, as in session files."""
        rc, data = self.ev(capsys, z2_spec, "counit", {"x": [[0, 1, coeff]]})
        if result is None:
            assert rc == 2 and data.startswith("error: ")
            assert data.count("\n") == 1
            return
        assert rc == 0
        rc, data = self.ev(capsys, z2_spec, "dcp-mul",
                           {"grading": 0, "x": [[0, 0]],
                            "y": [[0, 1, coeff]]})
        assert rc == 0 and data["result"] == result

    def test_twist_both_directions(self, capsys, z2_spec):
        rc, fwd = self.ev(capsys, z2_spec, "twist", {"grading": 0,
                                                     "ba": [[1, 0]]})
        assert rc == 0
        rc, back = self.ev(capsys, z2_spec, "twist",
                           {"grading": 0, "ab": fwd["result"]})
        assert rc == 0
        assert back["result"] == [[1, 0, "1"]]

    def test_comul_covered_and_r_apply(self, capsys, z2_spec):
        rc, data = self.ev(capsys, z2_spec, "comul-covered",
                           {"left": 0, "right": 0, "x": [[0, 1]],
                            "cover": [[0, 0]]})
        assert rc == 0 and data["result"]
        rc, data = self.ev(capsys, z2_spec, "r-apply",
                           {"left": 0, "right": 0,
                            "uv": [[0, 0, 1, 0]], "side": "left"})
        assert rc == 0 and isinstance(data["result"], list)

    def test_crossing_reports_target(self, capsys, tmp_path):
        spec = write_spec(tmp_path, session_spec(
            group_instance("symmetric", 3),
            gradings=[[IDENT, IDENT],
                      [inner((1, 2, 0)), inner((1, 2, 0))]]))
        rc, data = self.ev(capsys, spec, "crossing",
                           {"actor": 1, "source": 0,
                            "x": [[[0, 1, 2], [1, 2, 0]]]})
        assert rc == 0
        assert set(data) == {"op", "target", "result"}

    def test_commutation_residual_sides_match(self, capsys, z2_spec):
        rc, data = self.ev(capsys, z2_spec, "commutation-residual",
                           {"grading": 0, "a": [[1]], "b": [[1]],
                            "cover": [[0, 0]]})
        assert rc == 0
        assert data["lhs"] == data["rhs"]

    S3_X = [[1, 2, 0], [1, 0, 2]]
    S3_COVER = [[0, 1, 2], [2, 1, 0]]

    @pytest.mark.parametrize("corrupt, op, params", [
        ("antipode-sign", "antipode", {"grading": 1, "x": [S3_X]}),
        ("swap-delta-legs", "comul-covered",
         {"left": 1, "right": 1, "x": [S3_X], "cover": [S3_COVER]}),
        ("pair-mul-twist", "comul-covered",
         {"left": 0, "right": 1, "x": [S3_X], "cover": [S3_COVER]}),
        ("xi-composite", "crossing", {"actor": 0, "source": 1, "x": [S3_X]}),
        # The dropped summand of W is the one at the identity point.
        ("drop-r-term", "r-apply",
         {"left": 0, "right": 1, "uv": [S3_X + S3_COVER]}),
    ])
    def test_planted_defect_changes_output(self, capsys, tmp_path, corrupt,
                                           op, params):
        """Every planted defect reaches the structure map that eval
        applies: the output differs from the clean session's."""
        outputs = []
        for name in (None, corrupt):
            spec = write_spec(tmp_path, session_spec(
                group_instance("symmetric", 3),
                gradings=[[IDENT, inner((1, 0, 2))],
                          [inner((1, 2, 0)), inner((1, 2, 0))]],
                corrupt=name), f"{name}.json")
            rc, data = self.ev(capsys, spec, op, params)
            assert rc == 0
            outputs.append(data)
        assert outputs[0] != outputs[1]

    def test_unknown_op(self, capsys, z2_spec):
        rc, err = self.ev(capsys, z2_spec, "hadamard", {})
        assert rc == 2 and "unknown op" in err

    def test_missing_argument_named(self, capsys, z2_spec):
        rc, err = self.ev(capsys, z2_spec, "dcp-mul", {"grading": 0})
        assert rc == 2 and "'x'" in err

    def test_grading_out_of_range(self, capsys, z2_spec):
        rc, err = self.ev(capsys, z2_spec, "antipode",
                          {"grading": 7, "x": [[0, 0]]})
        assert rc == 2 and "grading index" in err

    @pytest.mark.parametrize("params, message", [
        ({"grading": False, "x": [[0, 0]]}, "grading index False"),
        ({"grading": 0, "x": [[[0, {}], 1]]}, "malformed label"),
        ({"grading": 0, "x": [[0, 1, "1/0"]]}, "zero denominator"),
        ({"grading": 0, "x": [[False, True]]}, "element-unknown: False"),
    ])
    def test_malformed_arguments_exit_two(self, capsys, z2_spec, params,
                                          message):
        rc, err = self.ev(capsys, z2_spec, "antipode", params)
        assert rc == 2 and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("label", [True, 1.7, "1", [1]])
    def test_structure_constant_label_must_be_an_integer(self, capsys,
                                                         tmp_path, label):
        spec = write_spec(tmp_path, session_spec(hopf_instance(C2_HOPF)))
        rc, err = self.ev(capsys, spec, "counit", {"x": [[label, label]]})
        assert rc == 2 and err.startswith("error: ")
        assert err.count("\n") == 1
        rc, data = self.ev(capsys, spec, "counit", {"x": [["s", 1]]})
        assert rc == 0 and data["result"] == "0"

    def test_bad_args_json(self, capsys, z2_spec):
        rc, _, err = run_cli(capsys, "eval", "--spec", z2_spec,
                             "--op", "counit", "--args", "{oops")
        assert rc == 2 and "--args" in err


# The arguments each eval op reads.
EVAL_KEYS = {
    "dcp-mul": ["grading", "x", "y"],
    "comul-covered": ["left", "right", "x", "cover", "side"],
    "antipode": ["grading", "x", "inverse"],
    "counit": ["x"],
    "twist": ["grading", "ba", "ab"],
    "crossing": ["actor", "source", "x"],
    "r-apply": ["left", "right", "uv", "side"],
    "pair": ["a", "b"],
    "commutation-residual": ["grading", "a", "b", "cover"],
}
_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                  st.sampled_from(["1/0", "2", "-1/2", "x", "left", "right"]))
_json = st.recursive(
    _leaf, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=2), kids, max_size=2), max_leaves=8)
# Mostly well-formed term lists, so that the ops themselves run too.
_terms = st.lists(st.lists(st.one_of(st.integers(0, 1), _json), min_size=1,
                           max_size=5), max_size=3)


@pytest.fixture(scope="module")
def z2_two_gradings(tmp_path_factory):
    return write_spec(tmp_path_factory.mktemp("eval"), session_spec(
        group_instance("cyclic", 2),
        gradings=[[IDENT, IDENT], [cyc_inv(2), cyc_inv(2)]]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_eval_arguments_exit_zero_or_two(z2_two_gradings, data):
    """Any JSON arguments end in a result or a one-line error, never in a
    traceback or the exit code of a failed axiom."""
    op = data.draw(st.sampled_from(sorted(EVAL_KEYS)))
    params = data.draw(st.fixed_dictionaries(
        {}, optional={k: st.one_of(_terms, _json) for k in EVAL_KEYS[op]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["eval", "--spec", z2_two_gradings, "--op", op,
                   "--args", json.dumps(params)])
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


class TestInputDiagnostics:
    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--spec", "/no/such.json")
        assert rc == 2 and "cannot read spec file" in err

    @pytest.mark.parametrize("command", ["verify", "export"])
    @pytest.mark.parametrize("target,why", [
        ("missing/report.json", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, z2_spec,
                                      command, target, why):
        out = str(tmp_path / target)
        rc, stdout, err = run_cli(capsys, command, "--spec", z2_spec,
                                  "--out", out)
        assert (rc, stdout) == (2, "")
        assert err == f"error: output-file: cannot write {out!r}: {why}\n"
        assert "Traceback" not in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        rc, _, err = run_cli(capsys, "verify", "--spec", str(bad))
        assert rc == 2 and "not valid JSON" in err

    def test_schema_error_names_field(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"instance": {"kind": "group"}})
        rc, _, err = run_cli(capsys, "verify", "--spec", spec)
        assert rc == 2 and "session-instance" in err

    def test_boolean_permutation_exits_two(self, capsys, tmp_path):
        """int() would read [true, false] as the transposition (1, 0)."""
        spec = write_spec(tmp_path, {"instance": {
            "kind": "group", "group": {"kind": "perm", "degree": 2,
                                       "generators": [[True, False]]}}})
        rc, out, err = run_cli(capsys, "export", "--spec", spec)
        assert rc == 2 and out == ""
        assert err.startswith("error: session-instance: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("group, aut, shown", [
        ("symmetric", inner((1.0, 0, 2)), "[1.0, 0, 2]"),
        ("cyclic", {"kind": "inner", "by": 1.0}, "1.0"),
        ("symmetric", {"kind": "map", "images": [
            [0, 1, 2], [0.0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1],
            [2, 1, 0]]}, "[0.0, 2, 1]"),
        ("symmetric", {"kind": "inner", "by": 3}, "3"),
        ("symmetric", {"kind": "inner", "by": True}, "True"),
        ("cyclic", {"kind": "inner", "by": [[1]]}, "[[1]]"),
        ("cyclic", {"kind": "map", "images": [0, [[2]], 1]}, "[[2]]"),
    ], ids=["s3-inner-float", "cyclic-inner-float", "s3-map-float",
            "s3-bare-index", "s3-boolean", "cyclic-inner-nested-list",
            "cyclic-map-nested-list"])
    def test_malformed_group_element_exits_two(self, capsys, tmp_path,
                                               group, aut, shown):
        """A float equals an int and a bool is one, so a lookup alone
        would take either for an element; a bare index names none on a
        permutation group."""
        spec = write_spec(tmp_path, session_spec(
            group_instance(group, 3), gradings=[[IDENT, aut]]))
        rc, out, err = run_cli(capsys, "export", "--spec", spec)
        assert (rc, out) == (2, "")
        assert err == f"error: session-gradings: element-unknown: {shown}\n"

    @pytest.mark.parametrize("instance, n", [
        (group_instance("cyclic", 0), 0),
        (group_instance("cyclic", -2), -2),
        ({"kind": "drinfeld-double", "group": {"kind": "cyclic", "n": 0}}, 0),
    ], ids=["cyclic-zero", "cyclic-negative", "double-over-cyclic-zero"])
    def test_cyclic_order_below_one_exits_two(self, capsys, tmp_path,
                                              instance, n):
        """A cyclic group of order below one is refused by its order, not
        by the identity missing from its empty element list."""
        spec = write_spec(tmp_path, session_spec(instance))
        rc, out, err = run_cli(capsys, "export", "--spec", spec)
        assert (rc, out) == (2, "")
        assert err == ("error: session-instance: cyclic-order: need n >= 1, "
                       f"got {n}\n")

    def test_non_homomorphic_map_names_permutations(self, capsys, tmp_path):
        swapped = {"kind": "map", "images": [
            [0, 1, 2], [1, 0, 2], [0, 2, 1], [1, 2, 0], [2, 0, 1],
            [2, 1, 0]]}
        spec = write_spec(tmp_path, session_spec(
            group_instance("symmetric", 3), gradings=[[IDENT, swapped]]))
        rc, out, err = run_cli(capsys, "export", "--spec", spec)
        assert (rc, out) == (2, "")
        assert err == ("error: session-gradings: automorphism-not-homomorphic"
                       ": fails at ((0, 2, 1), (1, 0, 2))\n")

    @pytest.mark.parametrize("field, value", [
        ("mul", [5]), ("mul", 7), ("antipode", [[0, 0, "1"], 2]),
        ("counit", "1")])
    def test_structure_map_not_a_list_exits_two(self, capsys, tmp_path,
                                                field, value):
        """A structure map or row that is not a JSON list is named."""
        spec = write_spec(tmp_path, session_spec(
            hopf_instance(dict(H4_HOPF, **{field: value}))))
        rc, out, err = run_cli(capsys, "verify", "--spec", spec)
        assert rc == 2 and out == ""
        assert err.startswith(
            f"error: session-instance: instance-json-shape: {field} ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("coeff, why", [
        (None, "cannot parse rational scalar from None"),
        ("1/0", "Fraction(1, 0)")])
    def test_bad_coefficient_exits_two(self, capsys, tmp_path, coeff, why):
        """A coefficient at the end of a mul row that is not a scalar is
        named with its row; a zero denominator is no traceback."""
        mul = H4_HOPF["mul"][:-1] + [[3, 1, 2, coeff]]
        spec = write_spec(tmp_path, session_spec(
            hopf_instance(dict(H4_HOPF, mul=mul))))
        rc, out, err = run_cli(capsys, "verify", "--spec", spec)
        assert rc == 2 and out == ""
        assert err == ("error: session-instance: instance-json-shape: mul "
                       f"row [3, 1, 2, {coeff!r}]: {why}\n")

    @pytest.mark.parametrize("enum, flags, field", [
        ({"count": -5}, (), "count"),
        ({"count": 0}, (), "count"),
        ({"window": -1}, (), "window"),
        ({}, ("--window", "-1"), "window"),
    ])
    def test_vacuous_enumeration_rejected(self, capsys, tmp_path, enum,
                                          flags, field):
        """Without any case a sampled check would report a vacuous pass."""
        spec = write_spec(tmp_path, session_spec(
            group_instance("Z"), enum={**sampled(40, 3), **enum}))
        rc, out, err = run_cli(capsys, "verify", "--spec", spec,
                               "--suite", "hopf", *flags)
        assert rc == 2 and out == ""
        assert err.startswith("error: session-enum: ") and field in err
        assert err.count("\n") == 1 and "Traceback" not in err


    def test_check_with_no_cases_exits_two(self, capsys, monkeypatch,
                                           z2_spec):
        """A check that evaluated zero cases is an error, not a pass."""
        monkeypatch.setattr(mhag.suites, "_cases", lambda *a, **k: [])
        rc, out, err = run_cli(capsys, "verify", "--spec", z2_spec,
                               "--suite", "hopf")
        assert rc == 2 and out == ""
        assert err == "error: check 'coassociativity' evaluated zero cases\n"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _installed_entry_points(name):
    return list(entry_points(group="console_scripts", name=name))


def _console_script_target(name):
    """The ``module:attr`` an installer turns into the ``name`` script.

    Read from ``[project.scripts]`` in the repo's pyproject.toml; without
    tomllib, from the installed distribution's entry-point metadata.
    """
    if tomllib is not None:
        with PYPROJECT.open("rb") as fh:
            return tomllib.load(fh)["project"]["scripts"][name]
    (ep,) = _installed_entry_points(name)
    return ep.value


def _child_env():
    """Environment whose PYTHONPATH puts the imported ``mhag`` first, so
    subprocesses run the same code as the in-process tests."""
    paths = [str(Path(mhag.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _assert_oracle_pass(proc):
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "pass"
    assert [s["name"] for s in report["suites"]] == ["oracle"]


@pytest.mark.skipif(
    tomllib is None and not _installed_entry_points("mhag"),
    reason="no tomllib to read pyproject.toml and no installed mhag "
           "console-script entry point")
def test_installed_script_smoke(tmp_path):
    env = _child_env()
    spec = write_spec(tmp_path, session_spec(group_instance("cyclic", 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "mhag.cli", "verify", "--spec", spec,
         "--suite", "lemma42"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"
    assert "RuntimeWarning" not in proc.stderr

    target = _console_script_target("mhag")
    assert re.fullmatch(r"[\w.]+:\w+", target), target
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    # the wrapper pip writes for a console script, minus the argv[0] fixup
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "oracle-compare", "--spec", spec],
        capture_output=True, text=True, env=env)
    _assert_oracle_pass(proc)


@pytest.mark.skipif(shutil.which("mhag") is None,
                    reason="mhag console script is not installed on PATH")
def test_console_script_on_path(tmp_path):
    spec = write_spec(tmp_path, session_spec(group_instance("cyclic", 2)))
    proc = subprocess.run(["mhag", "oracle-compare", "--spec", spec],
                          capture_output=True, text=True, env=_child_env())
    _assert_oracle_pass(proc)
