"""Exact-arithmetic construction and verification of group-cograded
crossed products built from a dual pairing of multiplier Hopf algebras.

The package builds, from a pairing of two (possibly non-unital) Hopf-type
algebras with bijective coproduct composites, the family of diagonal
crossed-product components indexed by pairs of automorphisms, together
with its graded comultiplication, counit, antipode, conjugation action,
and generalized R-multiplier — and machine-checks every axiom on concrete
instances with exact scalars.
"""

from .cograded import (comul_covered, crossing_apply, graded_antipode,
                       graded_counit)
from .crossed import (EngineError, b_embed_left, commutation_residual, dcp_mul,
                      twist_inv, twist_map)
from .groups import (AutPair, Automorphism, GroupError, IntGroup, TableGroup,
                     aut_pair_identity, aut_pair_inv, aut_pair_mul,
                     group_from_json, identity_aut, inner_aut)
from .linear import LinComb, label_key
from .mha import (DrinfeldDouble, DualDrinfeld, FiniteDimHopf, FunctionAlgebra,
                  GroupAlgebra, StructureError)
from .pairing import (CanonicalW, DrinfeldPairing, FiniteDimPairing,
                      GroupPairing, PairingError)
from .quasitri import (qt_conjugation_residual, qt_coproduct_first_residual,
                       qt_coproduct_second_residual, qt_intertwine_residual,
                       r_apply, w_intertwiner_residual_a,
                       w_intertwiner_residual_b)
from .sampling import EnumSpec, SplitMix64
from .scalars import PrimeField, RationalField, field_from_json
from .session import (Session, SessionError, session_from_json,
                      session_from_path)
from .suites import SUITE_NAMES, AxiomReport, run_suite, suite_axioms

__version__ = "0.1.0"

__all__ = [
    "AutPair", "Automorphism", "AxiomReport", "CanonicalW", "DrinfeldDouble",
    "DrinfeldPairing", "DualDrinfeld", "EngineError", "EnumSpec",
    "FiniteDimHopf", "FiniteDimPairing", "FunctionAlgebra",
    "GroupAlgebra", "GroupError", "GroupPairing", "IntGroup", "LinComb",
    "PairingError", "PrimeField", "RationalField", "SUITE_NAMES", "Session",
    "SessionError", "SplitMix64", "StructureError", "TableGroup",
    "aut_pair_identity", "aut_pair_inv", "aut_pair_mul", "b_embed_left",
    "commutation_residual",
    "comul_covered", "crossing_apply", "dcp_mul", "eval_op",
    "export_structure", "field_from_json", "graded_antipode", "graded_counit",
    "group_from_json", "identity_aut", "inner_aut", "label_key",
    "qt_conjugation_residual", "qt_coproduct_first_residual",
    "qt_coproduct_second_residual", "qt_intertwine_residual", "r_apply",
    "run_suite", "run_verify", "session_from_json", "session_from_path",
    "suite_axioms",
    "twist_inv", "twist_map", "w_intertwiner_residual_a",
    "w_intertwiner_residual_b",
]


def __getattr__(name):
    # The CLI entry points load on first use: importing ``mhag.cli`` here
    # would make ``python -m mhag.cli`` warn that runpy found the module
    # already imported.
    if name in ("eval_op", "export_structure", "run_verify"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
