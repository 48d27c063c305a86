"""Shared helpers for the test suite.

Most tests drive the library through session-spec dictionaries, the same
JSON shape the CLI consumes, so the specs double as integration coverage
of the loader.  A terminal-summary hook prints one PASS/FAIL line per
acceptance criterion at the end of every run.
"""

from __future__ import annotations

import itertools
import json
import re

from fractions import Fraction

import pytest

from mhag import (DrinfeldPairing, FiniteDimHopf, FiniteDimPairing,
                  GroupPairing, IntGroup, LinComb, PrimeField,
                  session_from_json)
from mhag.groups import (AutPair, PermGroup, TableGroup, identity_aut,
                         inner_aut, negation_aut)

# ---------------------------------------------------------------------------
# grading / group spec shorthands (JSON shapes accepted by the loader)

IDENT = "identity"
NEG = "negation"

S3_ELEMENTS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]


def inner(perm):
    return {"kind": "inner", "by": list(perm)}


def cyc_inv(n):
    """The inversion automorphism of Z/n as an explicit map spec."""
    return {"kind": "map", "images": [(-i) % n for i in range(n)]}


def s3_36_gradings():
    """All 36 AutPair specs (inner x inner) over S3."""
    return [[inner(g), inner(h)]
            for g, h in itertools.product(S3_ELEMENTS, S3_ELEMENTS)]


def group_instance(kind, n=None):
    if kind == "Z":
        return {"kind": "group", "group": "Z"}
    return {"kind": "group", "group": {"kind": kind, "n": n}}


def session_spec(instance, gradings=None, enum=None, corrupt=None):
    spec = {
        "scalars": "rational",
        "instance": instance,
        "gradings": gradings if gradings is not None else [[IDENT, IDENT]],
        "enum": enum if enum is not None else {"mode": "exhaustive"},
    }
    if corrupt is not None:
        spec["corrupt"] = corrupt
    return spec


# Structure constants (the "hopf" schema of FiniteDimHopf.from_json) of the
# group algebra of C2, and of Sweedler's four-dimensional Hopf algebra H4
# on the basis 1, g, x, gx: g^2 = 1, x^2 = 0, xg = -gx, Delta(g) = g (x) g,
# Delta(x) = x (x) 1 + g (x) x, S(x) = -gx and S(gx) = x.  The antipode of
# H4 is not an involution: S^2(x) = -x.
C2_HOPF = {
    "dim": 2, "basis": ["e", "s"], "unit": [1, 0], "counit": [1, 1],
    "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
    "comul": [[0, 0, 0, 1], [1, 1, 1, 1]],
    "antipode": [[0, 0, 1], [1, 1, 1]],
}
H4_HOPF = {
    "dim": 4, "basis": ["1", "g", "x", "gx"], "unit": [1, 0, 0, 0],
    "counit": [1, 1, 0, 0],
    "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1],
            [1, 0, 1, 1], [1, 1, 0, 1], [1, 2, 3, 1], [1, 3, 2, 1],
            [2, 0, 2, 1], [2, 1, 3, -1], [3, 0, 3, 1], [3, 1, 2, -1]],
    "comul": [[0, 0, 0, 1], [1, 1, 1, 1], [2, 2, 0, 1], [2, 1, 2, 1],
              [3, 3, 1, 1], [3, 0, 3, 1]],
    "antipode": [[0, 0, 1], [1, 1, 1], [2, 3, -1], [3, 2, 1]],
}


def hopf_instance(hopf):
    return {"kind": "finite-dim-hopf", "hopf": hopf}


def make_session(spec, **kw):
    return session_from_json(spec, **kw)


def sampled(count, seed, window=3):
    return {"mode": "sampled", "count": count, "seed": seed, "window": window}


def write_spec(tmp_path, spec, name="session.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def rescaled_s3(dual=False):
    """The structure constants of the group algebra of S3 (or of its dual)
    on the basis b_i = s_i e_i with unequal scales, so that every product,
    coproduct, antipode and basis twist carries coefficients other than 1."""
    fd = FiniteDimHopf.from_group(PermGroup.symmetric(3))
    if dual:
        fd = fd.dual()
    n = fd.dim
    sc = [Fraction(k + 2, 3) for k in range(n)]

    def rescale(v, factor):
        return LinComb.from_pairs(
            (l, c * factor / (sc[l] if isinstance(l, int)
                              else sc[l[0]] * sc[l[1]]))
            for l, c in v.terms.items())

    return FiniteDimHopf(
        fd.field,
        [[rescale(fd.mul_table[i][j], sc[i] * sc[j]) for j in range(n)]
         for i in range(n)],
        [rescale(fd.comul_table[i], sc[i]) for i in range(n)],
        [fd.counit_vec[i] * sc[i] for i in range(n)],
        rescale(fd.unit_vec, 1),
        [rescale(fd.antipode_tab[i], sc[i]) for i in range(n)])


S3 = PermGroup.symmetric(3)


def perm(image, group=S3):
    """The element of a permutation group with this image tuple: its
    index, as the JSON loader decodes it."""
    return group.parse_element(list(image))


def s3_gradings():
    """Two gradings of S3 by non-commuting inner automorphisms."""
    return [AutPair(inner_aut(S3, perm((1, 0, 2))),
                    inner_aut(S3, perm((1, 2, 0)))),
            AutPair(inner_aut(S3, perm((2, 0, 1))),
                    inner_aut(S3, perm((0, 2, 1))))]


def memo_cases():
    """(name, pairing factory, gradings, coefficients) covering S3 under
    inner gradings, Z under the sign gradings and the double of S3 over a
    prime field."""
    Z = IntGroup()
    i, neg = identity_aut(Z), negation_aut(Z)
    F = PrimeField(10007)
    return [
        ("s3-inner", lambda: GroupPairing(S3), s3_gradings(),
         [Fraction(3, 2), -2, 5, Fraction(-1, 7)]),
        ("z-sign", lambda: GroupPairing(Z),
         [AutPair(a, b) for a in (i, neg) for b in (i, neg)],
         [Fraction(3, 2), -2, 5, Fraction(-1, 7)]),
        ("double-f10007", lambda: DrinfeldPairing(S3, F),
         [AutPair(identity_aut(S3), identity_aut(S3)), s3_gradings()[0]],
         [F.from_int(3), F.from_int(-2), F.parse("1/2"), F.one()]),
    ]


def engine_cases():
    """memo_cases, an S3 session whose B-antipode is negated, the
    structure-constant pairing of a rescaled S3 group algebra, whose basis
    twists and products carry coefficients other than 1, and the pairing of
    Sweedler's H4, whose antipode is not an involution (both at the
    identity grading only: their bases are not permuted by
    automorphisms)."""
    s3 = group_instance("symmetric", 3)
    coeffs = [Fraction(3, 2), -2, 5, Fraction(-1, 7)]
    trivial = identity_aut(TableGroup.cyclic(1))
    ident = AutPair(trivial, trivial)
    return memo_cases() + [
        ("s3-antipode-sign",
         lambda: make_session(session_spec(s3, corrupt="antipode-sign")).P,
         s3_gradings(), coeffs),
        ("s3-rescaled-structure-constants",
         lambda: FiniteDimPairing.from_instance(rescaled_s3()), [ident],
         coeffs),
        ("h4-sweedler",
         lambda: FiniteDimPairing.from_instance(
             FiniteDimHopf.from_json(H4_HOPF)), [ident], coeffs),
    ]


@pytest.fixture
def z2_session():
    return make_session(session_spec(group_instance("cyclic", 2)))


@pytest.fixture
def z3_session_graded():
    inv = cyc_inv(3)
    return make_session(session_spec(
        group_instance("cyclic", 3),
        gradings=[[IDENT, IDENT], [IDENT, inv], [inv, IDENT], [inv, inv]]))


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion


def _criterion_no(nodeid):
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
    return int(m.group(1)) if m else None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"),
                          ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            num = _criterion_no(getattr(rep, "nodeid", ""))
            if num is not None and getattr(rep, "when", "call") == "call":
                results[num] = label
        if status == "error":
            for rep in terminalreporter.stats.get(status, []):
                num = _criterion_no(getattr(rep, "nodeid", ""))
                if num is not None:
                    results.setdefault(num, "FAIL")
    if results:
        terminalreporter.section("acceptance criteria")
        for num in sorted(results):
            terminalreporter.write_line(
                f"criterion {num}: {results[num]}")
