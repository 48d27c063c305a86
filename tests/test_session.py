"""Session decoding: instances, gradings, enumeration plans, corruption
switches, and loader diagnostics."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mhag import (DrinfeldPairing, FiniteDimPairing, GroupPairing, Session,
                  SessionError, session_from_json, session_from_path)
from mhag.cli import main
from mhag.linear import BasisTable
from mhag.session import (CORRUPTIONS, INSTANCE_KINDS, DropFirstTermW,
                          _naive_pair_mul)
from mhag.groups import aut_pair_inv, aut_pair_mul

from conftest import (H4_HOPF, IDENT, NEG, cyc_inv, group_instance,
                      hopf_instance, inner, make_session, perm, sampled,
                      session_spec, write_spec)


class TestInstanceKinds:
    def test_group(self):
        S = make_session(session_spec(group_instance("cyclic", 4)))
        assert isinstance(S.P, GroupPairing)
        assert S.group.is_finite and len(S.group.elements()) == 4
        assert S.exhaustive

    def test_symmetric_group(self):
        S = make_session(session_spec(group_instance("symmetric", 3)))
        assert len(S.group.elements()) == 6

    def test_integers_sampled(self):
        S = make_session(session_spec(
            group_instance("Z"),
            gradings=[[IDENT, IDENT], [NEG, NEG]],
            enum=sampled(50, 3, window=4)))
        assert not S.group.is_finite
        assert S.enum.window == 4 and S.enum.max_cases == 50
        assert S.a_labels() == list(range(-4, 5))

    def test_drinfeld_double(self):
        S = make_session(session_spec(
            {"kind": "drinfeld-double", "group": {"kind": "cyclic", "n": 2}}))
        assert isinstance(S.P, DrinfeldPairing)
        assert len(S.crossed_labels()) == 16

    def test_finite_dim_from_group(self):
        S = make_session(session_spec(
            {"kind": "finite-dim-hopf", "group": {"kind": "cyclic", "n": 3}}))
        assert isinstance(S.P, FiniteDimPairing)
        assert len(S.a_labels()) == 3

    def test_finite_dim_from_s4(self):
        S = make_session(session_spec({"kind": "finite-dim-hopf",
                                       "group": {"kind": "symmetric", "n": 4}}))
        assert isinstance(S.P, FiniteDimPairing)
        assert len(S.a_labels()) == 24

    def test_finite_dim_from_tables(self):
        hopf = {
            "dim": 2,
            "unit": ["1", "0"],
            "counit": ["1", "1"],
            "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                    [1, 0, 1, "1"], [1, 1, 0, "1"]],
            "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
            "antipode": [[0, 0, "1"], [1, 1, "1"]],
        }
        S = make_session(session_spec({"kind": "finite-dim-hopf",
                                       "hopf": hopf}))
        assert S.group is None
        assert len(S.crossed_labels()) == 4


class TestGradings:
    def test_default_is_trivial(self):
        S = session_from_json({"instance": group_instance("cyclic", 2)})
        assert len(S.gradings) == 1
        assert S.gradings[0] == S.unit_grading()

    def test_inner_gradings_decode(self):
        S = make_session(session_spec(
            group_instance("symmetric", 3),
            gradings=[[inner((1, 0, 2)), inner((1, 2, 0))]]))
        g = S.gradings[0]
        x = perm((0, 2, 1), S.group)
        assert g.alpha.apply(x) == S.group.conj(perm((1, 0, 2), S.group), x)

    def test_structure_constant_gradings_live_on_trivial_carrier(self):
        # Instances given by bare structure constants carry no symmetry
        # group, so their grading automorphisms act on a one-element
        # carrier: every decodable spec is the identity pair.
        hopf = {
            "dim": 1, "unit": ["1"], "counit": ["1"],
            "mul": [[0, 0, 0, "1"]], "comul": [[0, 0, 0, "1"]],
            "antipode": [[0, 0, "1"]],
        }
        S = make_session(session_spec(
            {"kind": "finite-dim-hopf", "hopf": hopf},
            gradings=[[{"kind": "map", "images": [0]}, "negation"]]))
        (g,) = S.gradings
        assert g.alpha.is_identity() and g.beta.is_identity()


class TestEnumPlans:
    def test_exhaustive_needs_finite(self):
        with pytest.raises(SessionError, match="finite"):
            make_session(session_spec(group_instance("Z")))

    def test_seed_window_overrides(self):
        spec = session_spec(group_instance("Z"), enum=sampled(10, 1, window=2),
                            gradings=[[NEG, NEG]])
        S = session_from_json(spec, seed=99, window=6)
        assert S.enum.seed == 99 and S.enum.window == 6


class TestCorruptionSwitches:
    def base(self, corrupt):
        return make_session(session_spec(group_instance("cyclic", 4),
                                         corrupt=corrupt))

    def test_names_are_validated(self):
        with pytest.raises(SessionError, match="session-corrupt"):
            self.base("flip-everything")
        assert len(CORRUPTIONS) == 5

    def test_honest_defaults(self):
        P = self.base(None).P
        assert P.cop_first_leg and not P.skew
        assert P.pair_mul is aut_pair_mul
        assert not isinstance(P.w, DropFirstTermW)

    def test_session_holds_no_switches(self):
        S = self.base("xi-composite")
        for name in ("cop_first_leg", "skew", "pair_mul", "w"):
            assert not hasattr(S, name)

    def test_swap_delta_legs(self):
        assert self.base("swap-delta-legs").P.cop_first_leg is False

    def test_xi_composite(self):
        assert self.base("xi-composite").P.skew is True

    def test_pair_mul_twist(self):
        assert self.base("pair-mul-twist").P.pair_mul is _naive_pair_mul

    def test_drop_r_term(self):
        w = self.base("drop-r-term").P.w
        assert isinstance(w, DropFirstTermW)
        full = self.base(None).P.w.all_terms()
        dropped = w.all_terms()
        assert len(dropped) == len(full) - 1
        assert set(dropped) < set(full)

    def test_antipode_sign_negates_b_side(self):
        honest = self.base(None)
        ref = honest.P.B.antipode(honest.P.B.lc(1))
        S = self.base("antipode-sign")
        assert S.P.B.antipode(S.P.B.lc(1)) == ref.neg()


# Sessions whose basis tables a planted defect must find empty: the S3
# group pairing, the Drinfeld double of S3 over F_10007 and Sweedler's H4.
_PLANTED_ON = {
    "s3": ("rational", group_instance("symmetric", 3)),
    "double-f10007": ({"prime": 10007}, {"kind": "drinfeld-double",
                                         "group": {"kind": "symmetric",
                                                   "n": 3}}),
    "h4": ("rational", hopf_instance(H4_HOPF)),
}


def _planted(name, corrupt):
    scalars, instance = _PLANTED_ON[name]
    spec = session_spec(instance, corrupt=corrupt)
    spec["scalars"] = scalars
    return session_from_json(spec).P


def _basis_tables(P):
    """Every basis table of a pairing and of its two instances, by name."""
    return {f"{owner}.{name}": table
            for owner, obj in (("P", P), ("P.A", P.A), ("P.B", P.B))
            for name, table in vars(obj).items()
            if isinstance(table, BasisTable)}


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("name", list(_PLANTED_ON))
def test_defects_are_planted_before_any_table_fills(name, corrupt):
    """Decoding plants the defect on a built pairing.  Every basis table it
    could reach is still empty then, so no value computed before planting
    hides the defect, and the antipode table reads the planted antipode.
    The tables are collected, not named, so a table added later is held
    to this too."""
    P = _planted(name, corrupt)
    tables = _basis_tables(P)
    assert {"P._twc", "P._dcp", "P._act", "P._wl", "P._bsp"} <= set(tables)
    # A structure-constant instance checks its axioms when it is built,
    # which fills its product table from its own structure constants; no
    # defect is planted on the product of an instance.
    filled = sorted(n for n, table in tables.items() if table)
    assert filled == (["P.A._mc", "P.B._mc"] if name == "h4" else [])
    if corrupt == "antipode-sign":
        honest = _planted(name, None).B
        for label in P.B.basis_labels(None):
            for inverse in (False, True):
                assert P.B.antipode(P.B.lc(label), inverse) == \
                    honest.antipode(honest.lc(label), inverse).neg()


def test_product_table_reads_the_planted_law():
    """Under ``pair-mul-twist`` the product table holds the naive product,
    and the crossing target is conjugated in it, on a non-commuting S3
    pair where the naive and the honest products differ."""
    spec = session_spec(group_instance("symmetric", 3), gradings=[
        [inner((1, 0, 2)), inner((0, 2, 1))],
        [inner((2, 1, 0)), inner((1, 2, 0))]], corrupt="pair-mul-twist")
    S = session_from_json(spec)
    P = S.P
    p, q = S.gradings
    naive, honest = _naive_pair_mul(p, q), aut_pair_mul(p, q)
    assert naive != honest
    assert P._gmul[p, q] == naive
    assert P._cross[p, q].target == _naive_pair_mul(naive, aut_pair_inv(p))
    clean = session_from_json({**spec, "corrupt": None}).P
    assert clean._gmul[p, q] == honest


# The group algebra of Z/2 as structure constants.
_Z2_HOPF = {
    "dim": 2,
    "unit": ["1", "0"],
    "counit": ["1", "1"],
    "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
    "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
    "antipode": [[0, 0, "1"], [1, 1, "1"]],
}


class TestLoaderDiagnostics:
    def test_top_level_must_be_object(self):
        with pytest.raises(SessionError, match="top level"):
            session_from_json([1, 2])

    def test_unknown_instance_kind(self):
        with pytest.raises(SessionError, match="session-instance-kind"):
            session_from_json({"instance": {"kind": "quantum-torus"}})

    def test_missing_group_field(self):
        with pytest.raises(SessionError, match="missing field"):
            session_from_json({"instance": {"kind": "group"}})

    def test_bad_gradings_shape(self):
        with pytest.raises(SessionError, match="session-gradings"):
            make_session(session_spec(group_instance("cyclic", 2),
                                      gradings=[["identity"]]))

    def test_bad_enum_mode(self):
        with pytest.raises(SessionError, match="session-enum-mode"):
            make_session(session_spec(group_instance("cyclic", 2),
                                      enum={"mode": "clever"}))

    def test_bad_scalars(self):
        with pytest.raises(SessionError, match="session-scalars"):
            session_from_json({"scalars": "real",
                               "instance": group_instance("cyclic", 2)})

    def test_missing_file(self, tmp_path):
        with pytest.raises(SessionError, match="session-file"):
            session_from_path(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SessionError, match="session-json"):
            session_from_path(str(bad))

    @pytest.mark.parametrize("spec, message", [
        ({"instance": {"kind": "group",
                       "group": {"kind": "cyclic", "n": [1]}}},
         "n must be an integer"),
        ({"instance": {"kind": "group",
                       "group": {"kind": "cyclic", "n": True}}},
         "n must be an integer"),
        ({"instance": {"kind": "group",
                       "group": {"kind": "perm", "n": 3, "generators": 5}}},
         "session-instance"),
        ({"instance": {"kind": "group",
                       "group": {"kind": "perm", "degree": 3.0,
                                 "generators": []}}},
         "degree must be an integer"),
        ({"instance": {"kind": "group",
                       "group": {"kind": "table", "elements": 5}}},
         "session-instance"),
        ({"scalars": {"prime": 7.0},
          "instance": group_instance("cyclic", 2)},
         "prime must be an integer"),
        ({"instance": group_instance("Z"),
          "enum": {"mode": "sampled", "window": float("inf")}},
         "window must be an integer"),
        ({"instance": group_instance("cyclic", 2),
          "enum": {"mode": "sampled", "count": True}},
         "count must be an integer"),
        ({"instance": group_instance("cyclic", 2),
          "enum": {"mode": "sampled", "seed": 1.5}},
         "seed must be an integer"),
        ({"instance": group_instance("cyclic", 2),
          "gradings": [[{"kind": "inner", "by": False}, IDENT]]},
         "element-unknown"),
        ({"instance": group_instance("symmetric", 3),
          "gradings": [[{"kind": "inner", "by": [1, True, 2]}, IDENT]]},
         "element-unknown"),
        ({"instance": group_instance("cyclic", 2),
          "gradings": [[{"kind": "inner"}, IDENT]]},
         "missing field"),
        ({"instance": group_instance("cyclic", 2),
          "gradings": [[{"kind": "map", "images": 5}, IDENT]]},
         "aut-images-shape"),
    ])
    def test_malformed_values(self, spec, message):
        with pytest.raises(SessionError, match=message):
            session_from_json(spec)

    @pytest.mark.parametrize("instance, message", [
        ({"kind": "group", "group": {"kind": "perm", "degree": 2,
                                     "generators": [[True, False]]}},
         "generator entry must be an integer"),
        ({"kind": "group",
          "group": {"kind": "table", "elements": [0, 1],
                    "mul": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0.9]]}},
         "table-mul index must be an integer"),
        ({"kind": "group",
          "group": {"kind": "table", "elements": [[0, False], [1, True]],
                    "mul": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]}},
         "table-element"),
        ({"kind": "group",
          "group": {"kind": "table", "elements": [0, 1],
                    "table": [[0, 1], [1, False]], "identity": 0}},
         "table-element"),
        ({"kind": "finite-dim-hopf", "hopf": {**_Z2_HOPF, "dim": 2.0}},
         "dim must be an integer"),
        ({"kind": "finite-dim-hopf",
          "hopf": {**_Z2_HOPF, "antipode": [[0, 0, "1"], ["1", 1, "1"]]}},
         "antipode index must be an integer"),
    ], ids=["perm-generator", "table-mul", "table-element", "table-entry",
            "hopf-dim", "hopf-row-index"])
    def test_structural_integers_refuse_other_json(self, instance, message):
        """int() would read true as 1, 0.9 as 0 and "1" as 1."""
        with pytest.raises(SessionError, match=message):
            session_from_json({"instance": instance})

    @pytest.mark.parametrize("scalars", ["rational", "F7"])
    @pytest.mark.parametrize("field, value", [
        ("unit", [True, "0"]),
        ("counit", [True, True]),
        ("mul", [[0, 0, 0, True], [0, 1, 1, "1"], [1, 0, 1, "1"],
                 [1, 1, 0, "1"]]),
    ], ids=["unit", "counit", "mul-row"])
    def test_boolean_coefficients_refused(self, field, value, scalars):
        """isinstance(True, int) holds, so a scalar parser would read true
        as the coefficient 1."""
        with pytest.raises(SessionError, match="scalar must be a number or "
                                               "a string, got True"):
            session_from_json({"scalars": scalars, "instance": {
                "kind": "finite-dim-hopf",
                "hopf": {**_Z2_HOPF, field: value}}})

    def test_boolean_coefficient_exits_two(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"instance": {
            "kind": "finite-dim-hopf",
            "hopf": {**_Z2_HOPF, "unit": [True, "0"]}}})
        rc = main(["export", "--spec", spec])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: session-instance: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_from_path_happy(self, tmp_path, z2_session):
        import json
        good = tmp_path / "ok.json"
        good.write_text(json.dumps(session_spec(group_instance("cyclic", 2))))
        S = session_from_path(str(good))
        assert S.kind == "group" and S.exhaustive


# Drawn session descriptions: mostly the right keys and kinds, with any
# JSON value (integers in -3..7, booleans, floats, words) beneath them.
_words = st.sampled_from([
    "identity", "negation", "inner", "map", "Z", "int", "cyclic",
    "symmetric", "perm", "table", "rational", "F7", "sampled", "exhaustive",
    *INSTANCE_KINDS])
_keys = st.sampled_from([
    "kind", "n", "degree", "generators", "elements", "mul", "table",
    "identity", "by", "images", "prime", "mode", "count", "seed", "window",
    "group", "hopf", "dim"])
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 7),
              st.floats(allow_nan=False), _words),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_keys, kids, max_size=3), max_leaves=10)


_value = st.one_of(st.integers(-3, 7), _json)


def _shaped(kinds, keys, required=()):
    """Mostly an object whose ``kind`` is one of ``kinds``, with some of
    ``keys`` (all of ``required``), sometimes any JSON value."""
    shaped = st.fixed_dictionaries(
        {"kind": st.sampled_from(kinds), **{k: _value for k in required}},
        optional={k: _value for k in keys})
    return st.one_of(shaped, shaped, _json)


_group = st.one_of(
    st.just("Z"),
    _shaped(["cyclic", "symmetric"], [], required=["n"]),
    _shaped(["perm"], ["n", "degree", "generators"]),
    _shaped(["table"], ["elements", "mul", "table", "identity"]))
_aut = st.one_of(st.sampled_from(["identity", "negation"]),
                 _shaped(["inner", "map"], ["by", "images"]))
_session = st.fixed_dictionaries({
    "instance": st.fixed_dictionaries(
        {"kind": st.sampled_from(INSTANCE_KINDS)},
        optional={"group": _group, "hopf": _json}),
}, optional={
    "scalars": st.one_of(st.just("rational"),
                         st.fixed_dictionaries({"prime": _value}), _json),
    "gradings": st.one_of(_json, st.lists(st.lists(_aut, min_size=2,
                                                   max_size=2), max_size=3)),
    "enum": st.one_of(
        _json, st.fixed_dictionaries(
            {"mode": st.sampled_from(["sampled", "exhaustive"])},
            optional={k: _value for k in ("count", "seed", "window")})),
    "corrupt": st.one_of(_json, st.sampled_from(CORRUPTIONS))})


def _slow_to_decode(spec) -> bool:
    """Structure constants of S5 and larger take seconds to validate."""
    inst = spec["instance"]
    group = inst.get("group")
    return (inst["kind"] == "finite-dim-hopf" and isinstance(group, dict)
            and group.get("kind") == "symmetric"
            and isinstance(group.get("n"), int) and group["n"] >= 5)


@settings(max_examples=300, deadline=None)
@given(spec=_session)
def test_any_description_decodes_or_raises_session_error(spec):
    assume(not _slow_to_decode(spec))
    try:
        S = session_from_json(spec)
    except SessionError:
        return
    assert isinstance(S, Session)
