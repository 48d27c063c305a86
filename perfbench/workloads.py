"""The four benchmark workloads: session files generated from a seed.

This module imports nothing from ``mhag``; it only writes the JSON session
descriptions that the program decodes.  The same seed always gives the
same session.  See README.md for why each workload exists.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, List, Optional, Tuple

from checks import S3_LAW

ALL_SUITES = ["hopf", "cograded", "crossing", "quasitriangular", "lemma42",
              "oracle"]

S3 = {"kind": "symmetric", "n": 3}
IDENTITY = ["identity", "identity"]
INTEGER_WINDOW = 12


def _inner(g: Tuple, h: Tuple) -> List[Dict]:
    return [{"kind": "inner", "by": list(g)}, {"kind": "inner", "by": list(h)}]


def _finite_exhaustive(rng: random.Random) -> Dict:
    """The identity grading plus one pair of non-commuting inner
    automorphisms (18 of the 36 ordered pairs of S3)."""
    non_commuting = [(g, h) for g, h in itertools.product(S3_LAW.elements,
                                                          repeat=2)
                     if S3_LAW.mul(g, h) != S3_LAW.mul(h, g)]
    return {"scalars": "rational",
            "instance": {"kind": "group", "group": S3},
            "gradings": [IDENTITY, _inner(*rng.choice(non_commuting))],
            "enum": {"mode": "exhaustive"}}


def _integers_sampled(rng: random.Random) -> Dict:
    return {"scalars": "rational",
            "instance": {"kind": "group", "group": "Z"},
            "gradings": [[a, b] for a in ("identity", "negation")
                         for b in ("identity", "negation")],
            "enum": {"mode": "sampled", "count": 400,
                     "seed": rng.getrandbits(32), "window": INTEGER_WINDOW}}


def _double_sampled_prime(rng: random.Random) -> Dict:
    return {"scalars": {"prime": 10007},
            "instance": {"kind": "drinfeld-double", "group": S3},
            "gradings": [IDENTITY],
            "enum": {"mode": "sampled", "count": 40,
                     "seed": rng.getrandbits(32)}}


def _finite_export(rng: random.Random) -> Dict:
    """The identity grading plus two other inner pairs, distinct."""
    pairs = list(itertools.product(S3_LAW.elements, repeat=2))[1:]
    return {"scalars": "rational",
            "instance": {"kind": "group", "group": S3},
            "gradings": [IDENTITY] + [_inner(g, h)
                                      for g, h in rng.sample(pairs, 2)],
            "enum": {"mode": "exhaustive"}}


class Workload:
    """One workload: how to build its session and what to run on it."""

    def __init__(self, name: str, make: Callable[[random.Random], Dict],
                 op: str, suites: Optional[List[str]] = None,
                 planted: Optional[Tuple[str, List[str]]] = None,
                 closed_forms: Optional[str] = None):
        self.name = name
        self.make = make
        self.op = op                        # "verify" | "export"
        self.suites = suites or []
        # (corruption, suites run on the corrupted session); it must fail.
        self.planted = planted
        # Which closed forms the untimed probe compares eval calls against.
        self.closed_forms = closed_forms    # "s3" | "z" | None

    def session(self, seed: int) -> Dict:
        return self.make(random.Random(seed))


WORKLOADS = {w.name: w for w in [
    Workload("finite-exhaustive", _finite_exhaustive, "verify",
             suites=["cograded", "lemma42", "oracle"],
             planted=("drop-r-term", ["lemma42", "oracle"]),
             closed_forms="s3"),
    Workload("integers-sampled", _integers_sampled, "verify",
             suites=ALL_SUITES, planted=("antipode-sign", ["hopf"]),
             closed_forms="z"),
    Workload("double-sampled-prime", _double_sampled_prime, "verify",
             suites=ALL_SUITES, planted=("swap-delta-legs", ["hopf"])),
    Workload("finite-export", _finite_export, "export"),
]}
