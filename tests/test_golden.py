"""Golden report digests: the SHA-256 of the rendered `verify` report or
`export` document for a few small fixed sessions.

A refactor or speed-up of the engine must leave every digest unchanged:
the reports are byte-identical by contract, so a moved digest means the
change altered what is checked, how many cases run, or how a
counterexample is chosen.  Re-pin a digest only with a change that is
meant to alter reports, and say so where that change is recorded.
"""

import hashlib

import pytest

from mhag import SUITE_NAMES, export_structure, run_verify
from mhag.cli import _dump
from mhag.session import CORRUPTIONS

from conftest import (IDENT, NEG, group_instance, inner, make_session,
                      sampled, session_spec)

S3_GRADINGS = [[IDENT, IDENT], [inner((1, 0, 2)), inner((0, 2, 1))]]
Z_GRADINGS = [[a, b] for a in (IDENT, NEG) for b in (IDENT, NEG)]

S3_VERIFY = {
    None: "9bf705c6f3ef14130fab8fe45cf50c97a9f6820caf1c23164a2562a838c6af67",
    "antipode-sign":
        "cab37b61725df09376c070439db85d93982b1433624b391ae8b9becfed7fb967",
    "drop-r-term":
        "68bf61667b5dfc41066c123cb29feaba776f70a49c3bfa8dc3de6fa4e768c520",
    "swap-delta-legs":
        "9756f4ac0578604999a5342892f0ac8f25f9c212659e60b87e2f1896a4242922",
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
        "5e318e72b09397893f49de2aa1bb9160ef1ad94b05c064643189fe7006b501c0",
    "pair-mul-twist":
        "e710df09a4206e0078699f3c4fe54e630e45d89e04ada8bf5ee5ed2fa9f6ddc1",
    "xi-composite":
        "e710df09a4206e0078699f3c4fe54e630e45d89e04ada8bf5ee5ed2fa9f6ddc1",
}

DOUBLE_F10007_VERIFY = (
    "f2a059e37fc41712651afb958812ee4f79e2ea95533fd5d3ee5411886c66210a")
S3_EXPORT = "f743d69c610801f60f4bf69a421b008e77e3c5805ac81c5870502bc4f6dd8e7e"


def _digest(payload) -> str:
    return hashlib.sha256(_dump(payload).encode("utf-8")).hexdigest()


def _verify_digest(spec) -> str:
    return _digest(run_verify(make_session(spec), list(SUITE_NAMES)))


def test_digest_tables_cover_every_corruption():
    assert set(S3_VERIFY) == set(Z_VERIFY) == {None, *CORRUPTIONS}


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


def test_drinfeld_double_prime_field_sampled():
    spec = session_spec({"kind": "drinfeld-double",
                         "group": {"kind": "symmetric", "n": 3}},
                        enum={"mode": "sampled", "count": 8, "seed": 5})
    spec["scalars"] = {"prime": 10007}
    assert _verify_digest(spec) == DOUBLE_F10007_VERIFY


def test_s3_export():
    spec = session_spec(group_instance("symmetric", 3), gradings=S3_GRADINGS)
    assert _digest(export_structure(make_session(spec))) == S3_EXPORT
