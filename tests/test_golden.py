"""Golden report digests: the SHA-256 of the rendered `verify` report or
`export` document for a few small fixed sessions and for the benchmark's
four workloads at one seed, plus two digests of what
passing reports do not show: every check's counterexample rendering, and
the case schedule (pool sizes and budgets) of an exhaustive session.

A refactor or speed-up of the engine must leave every digest unchanged:
the reports are byte-identical by contract, so a moved digest means the
change altered what is checked, how many cases run, or how a
counterexample is chosen.  Re-pin a digest only with a change that is
meant to alter reports, and say so where that change is recorded.
"""

import hashlib
import math

import pytest

from mhag import SUITE_NAMES, LinComb, export_structure, run_verify, suites
from mhag.cli import _dump
from mhag.session import CORRUPTIONS

from conftest import (H4_HOPF, IDENT, NEG, group_instance, hopf_instance,
                      inner, make_session, sampled, session_spec)

S3_GRADINGS = [[IDENT, IDENT], [inner((1, 0, 2)), inner((0, 2, 1))]]
Z_GRADINGS = [[a, b] for a in (IDENT, NEG) for b in (IDENT, NEG)]

S3_VERIFY = {
    None: "9bf705c6f3ef14130fab8fe45cf50c97a9f6820caf1c23164a2562a838c6af67",
    "antipode-sign":
        "cab37b61725df09376c070439db85d93982b1433624b391ae8b9becfed7fb967",
    "drop-r-term":
        "68bf61667b5dfc41066c123cb29feaba776f70a49c3bfa8dc3de6fa4e768c520",
    "swap-delta-legs":
        "879a50a4b11e264c22da5aadedbcfd5228eedf6fe586530417252c98127a25fc",
    "pair-mul-twist":
        "73a51f5f6ccc10eddad67de52fbd45f964f81d39ae4e0fc5c0d687b213c9a4e2",
    "xi-composite":
        "4beb49b9cf9ef3b4af973f0b08b9433c08f350ec69cb1f27b5382e9671e38caa",
}

# The integer carrier hides `pair-mul-twist` and `xi-composite` (its
# grading group commutes), so those two reports equal the clean one.
Z_VERIFY = {
    None: "e710df09a4206e0078699f3c4fe54e630e45d89e04ada8bf5ee5ed2fa9f6ddc1",
    "antipode-sign":
        "ef5847efee340b1979c4f0ebd6322f2e7afe803cfc2ce12dd8323bc378e6fc10",
    "drop-r-term":
        "1b5a4adf319cf4677ebc0e47dddbcb554df8fcb51ba59e7aa7a5fc5fd8a9cbc7",
    "swap-delta-legs":
        "472c1a388dcdac342c58c9098d2d6b21e616c79e50f86bca9b043c0d80bcfaf1",
    "pair-mul-twist":
        "e710df09a4206e0078699f3c4fe54e630e45d89e04ada8bf5ee5ed2fa9f6ddc1",
    "xi-composite":
        "e710df09a4206e0078699f3c4fe54e630e45d89e04ada8bf5ee5ed2fa9f6ddc1",
}

# A structure-constant instance is the only kind whose oracle suite reads
# the canonical multiplier (the dual-basis closed form of the R-multiplier).
FINITE_DIM_S3_VERIFY = {
    None: "d9838ea409a85a9d9fc216630afd4d6dbc51b38cfd9d2c8022fdf7af55a7c4a3",
    "antipode-sign":
        "4f05794ec5f55028457576472675a97dc5f8e3ad0678451e4b221fc54c446cc4",
    "drop-r-term":
        "2e8086c4b6dc544ec25ace6ce2bed103a105e4d7b3fd13fa960379bed3fb1152",
    "swap-delta-legs":
        "961a21ac0f2c905ea9d23204266f26faa241d157fa28c1d42cdd62203efc1b21",
    "pair-mul-twist":
        "e4508087cb7080125291e654ebde7bfcfab1a209001c8a9ce3cf5982a7328dad",
    "xi-composite":
        "180371a8bc62333929089a50ad3f5591c94334f6dc4e54f35851e69ad069eac6",
}

DOUBLE_F10007_VERIFY = (
    "f2a059e37fc41712651afb958812ee4f79e2ea95533fd5d3ee5411886c66210a")
# Sweedler's H4 as structure constants, exhaustive: the one pinned instance
# whose antipode is not an involution, so S and S^-1 differ.
H4_VERIFY = (
    "276a84232e84eb1e2c17bafec22a934478105becfaa61c37ed13303b8f73164b")
# S3 with four non-commuting inner gradings, sampled, through the four
# suites that compose gradings: the product, inverse and crossing target of
# many distinct grading pairs, and the automorphisms derived from them.
# Each of the two grading-law defects fails some of its checks.
S3_FOUR_GRADINGS = [[inner((1, 0, 2)), inner((0, 2, 1))],
                    [inner((2, 1, 0)), inner((1, 2, 0))],
                    [inner((1, 2, 0)), inner((1, 0, 2))],
                    [inner((0, 2, 1)), inner((2, 0, 1))]]
S3_FOUR_GRADINGS_SUITES = ["hopf", "cograded", "crossing", "quasitriangular"]
S3_FOUR_GRADINGS_VERIFY = {
    None: "850dd81c7bc0cd06d080f872ed023a9a75c9b1373fc4b460a7adbf5903e0f472",
    "pair-mul-twist":
        "44d56b301c460daf1acb6c8bd8d80954b399fa7d2608793e1e4174ee7a919f7d",
    "xi-composite":
        "80f7fc8cea62421b9a533faeb4b91337ef84e43815bf258f37901fe91ad804ff",
}
S3_EXPORT = "f743d69c610801f60f4bf69a421b008e77e3c5805ac81c5870502bc4f6dd8e7e"

# With every value comparison forced false, each check that compares
# values fails at its first case and renders a counterexample, so these
# digests pin the rendering of almost every check.
RENDER = {
    "symmetric-3":
        "39aed1c5cb27c131dda33cab6d5054bdd23fe1f893d9d4f84dc60ded45a469ef",
    "integers":
        "23a460c176b428863cd7a133e9bcd00f948ca402fa4d8a11935084b24c88c542",
    "finite-dim-symmetric-3":
        "4e8bfe5197f93304775bdb6ca73aa2620f284d99d08158865cef68aa16a72bf2",
    "double-f10007":
        "b95a8fdf2003e85f85449a66716ee845dfb46e3ea384ecb3d5f68468fb556cf8",
}

# (tag, primary pool sizes, secondary pool sizes, budget) of every
# scheduled enumeration of an exhaustive S3 session with two gradings.
S3_SCHEDULE = (
    "8714a8971c0ef10487996b0b3ff0ad0e4df4e846af1d62609402564c870c5760")


# The benchmark's four workloads at seed 101, as the session files that
# perfbench/workloads.py writes for that seed: (session, suites run, or
# None for an export, digest).
_S3 = {"kind": "symmetric", "n": 3}
WORKLOADS_SEED_101 = {
    "finite-exhaustive": (
        {"scalars": "rational",
         "instance": {"kind": "group", "group": _S3},
         "gradings": [["identity", "identity"],
                      [inner((1, 0, 2)), inner((2, 0, 1))]],
         "enum": {"mode": "exhaustive"}},
        ["cograded", "lemma42", "oracle"],
        "a7f3df475fd9dcd1e6bad05163b0e6455eccda759b631daa7fb3c83af251e08c"),
    "integers-sampled": (
        {"scalars": "rational",
         "instance": {"kind": "group", "group": "Z"},
         "gradings": [["identity", "identity"], ["identity", "negation"],
                      ["negation", "identity"], ["negation", "negation"]],
         "enum": {"mode": "sampled", "count": 400, "seed": 2496029389,
                  "window": 12}},
        list(SUITE_NAMES),
        "161678f78f022edb48e4a99ac6cc5b93444abcf97fae27caf3ca1d18da31b1cc"),
    "double-sampled-prime": (
        {"scalars": {"prime": 10007},
         "instance": {"kind": "drinfeld-double", "group": _S3},
         "gradings": [["identity", "identity"]],
         "enum": {"mode": "sampled", "count": 40, "seed": 2496029389}},
        list(SUITE_NAMES),
        "dd7283d000226a1ba473f433bfefb8374088921eb6f693938b356fcb4dbd6885"),
    "finite-export": (
        {"scalars": "rational",
         "instance": {"kind": "group", "group": _S3},
         "gradings": [["identity", "identity"],
                      [inner((1, 0, 2)), inner((0, 2, 1))],
                      [inner((2, 1, 0)), inner((2, 1, 0))]],
         "enum": {"mode": "exhaustive"}},
        None,
        "b2c017eaf64b7b7ca148fff0a25dbceed92aadf01e819aedd82f34b8fbf7a229"),
}


def _digest(payload) -> str:
    return hashlib.sha256(_dump(payload).encode("utf-8")).hexdigest()


def _verify_digest(spec) -> str:
    return _digest(run_verify(make_session(spec), list(SUITE_NAMES)))


def test_digest_tables_cover_every_corruption():
    assert (set(S3_VERIFY) == set(Z_VERIFY) == set(FINITE_DIM_S3_VERIFY)
            == {None, *CORRUPTIONS})


@pytest.mark.parametrize("corrupt", [None, *CORRUPTIONS])
def test_s3_sampled_all_suites(corrupt):
    spec = session_spec(group_instance("symmetric", 3), gradings=S3_GRADINGS,
                        enum={"mode": "sampled", "count": 15, "seed": 7},
                        corrupt=corrupt)
    assert _verify_digest(spec) == S3_VERIFY[corrupt]


@pytest.mark.parametrize("corrupt", [None, *CORRUPTIONS])
def test_integers_sampled_all_suites(corrupt):
    spec = session_spec(group_instance("Z"), gradings=Z_GRADINGS,
                        enum=sampled(100, 11, window=5), corrupt=corrupt)
    assert _verify_digest(spec) == Z_VERIFY[corrupt]


@pytest.mark.parametrize("corrupt", [None, *CORRUPTIONS])
def test_finite_dim_s3_sampled_all_suites(corrupt):
    spec = session_spec({"kind": "finite-dim-hopf", "group": _S3},
                        gradings=S3_GRADINGS,
                        enum={"mode": "sampled", "count": 15, "seed": 7},
                        corrupt=corrupt)
    assert _verify_digest(spec) == FINITE_DIM_S3_VERIFY[corrupt]


@pytest.mark.parametrize("corrupt", list(S3_FOUR_GRADINGS_VERIFY))
def test_s3_four_gradings_sampled(corrupt):
    spec = session_spec(group_instance("symmetric", 3),
                        gradings=S3_FOUR_GRADINGS,
                        enum={"mode": "sampled", "count": 15, "seed": 7},
                        corrupt=corrupt)
    report = run_verify(make_session(spec), S3_FOUR_GRADINGS_SUITES)
    assert _digest(report) == S3_FOUR_GRADINGS_VERIFY[corrupt]


@pytest.mark.parametrize("name", sorted(WORKLOADS_SEED_101))
def test_benchmark_workload(name):
    spec, suite_names, digest = WORKLOADS_SEED_101[name]
    S = make_session(spec)
    out = (export_structure(S) if suite_names is None
           else run_verify(S, suite_names))
    assert _digest(out) == digest


def test_drinfeld_double_prime_field_sampled():
    spec = session_spec({"kind": "drinfeld-double",
                         "group": {"kind": "symmetric", "n": 3}},
                        enum={"mode": "sampled", "count": 8, "seed": 5})
    spec["scalars"] = {"prime": 10007}
    assert _verify_digest(spec) == DOUBLE_F10007_VERIFY


def test_h4_exhaustive_all_suites():
    assert _verify_digest(session_spec(hopf_instance(H4_HOPF))) == H4_VERIFY


def test_s3_export():
    spec = session_spec(group_instance("symmetric", 3), gradings=S3_GRADINGS)
    assert _digest(export_structure(make_session(spec))) == S3_EXPORT


def _render_specs():
    double = session_spec({"kind": "drinfeld-double",
                           "group": {"kind": "symmetric", "n": 3}},
                          enum={"mode": "sampled", "count": 8, "seed": 5})
    double["scalars"] = {"prime": 10007}
    return {
        "symmetric-3": session_spec(
            group_instance("symmetric", 3), gradings=S3_GRADINGS,
            enum={"mode": "sampled", "count": 15, "seed": 7}),
        "integers": session_spec(group_instance("Z"), gradings=Z_GRADINGS,
                                 enum=sampled(100, 11, window=5)),
        "finite-dim-symmetric-3": session_spec(
            {"kind": "finite-dim-hopf",
             "group": {"kind": "symmetric", "n": 3}},
            gradings=S3_GRADINGS,
            enum={"mode": "sampled", "count": 15, "seed": 7}),
        "double-f10007": double,
    }


@pytest.mark.parametrize("name", sorted(RENDER))
def test_counterexample_rendering(name, monkeypatch):
    S = make_session(_render_specs()[name])
    monkeypatch.setattr(LinComb, "__eq__", lambda self, other: False)
    monkeypatch.setattr(LinComb, "__ne__", lambda self, other: True)
    assert _digest(run_verify(S, list(SUITE_NAMES))) == RENDER[name]


def test_exhaustive_schedule(monkeypatch):
    S = make_session(session_spec(group_instance("symmetric", 3),
                                  gradings=S3_GRADINGS))
    calls = []

    def record(S, tag, primary, secondary=None, budget=suites.BUDGET):
        calls.append([tag, [len(p) for p in primary],
                      [len(p) for p in secondary or []], budget])
        return []

    monkeypatch.setattr(suites, "_cases", record)
    # A scheduled check now sees zero cases, which raises instead of
    # passing; the checks that schedule nothing run as in a report.
    for suite in SUITE_NAMES:
        for _, run in suites.suite_axioms(S, suite):
            try:
                run()
            except suites.NoCasesError:
                pass
    capped = [c for c in calls
              if c[2] and math.prod(c[1] + c[2]) > c[3]]
    assert (len(calls), len(capped)) == (45, 6)
    assert _digest(calls) == S3_SCHEDULE
