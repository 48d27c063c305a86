"""Verification sessions.

A session bundles everything a verification run needs: the pairing (with
its two instances), the grading set under test, the enumeration plan
(exhaustive or seeded sampling with an integer window), and an optional
named corruption used for mutation testing.  Sessions are decoded from a
JSON description; every malformed input raises :class:`SessionError` with
a diagnostic message (the CLI maps these to exit code 2).

Corruptions deliberately break one structure map each, so the axiom
suites can demonstrate sensitivity.  This module is the only one that
knows their names: a :class:`Session` plants its defect on its own
pairing, whose attributes the engine reads (see :mod:`mhag.pairing`).

* ``antipode-sign`` — negates the B-instance antipode (both directions).
* ``drop-r-term`` — removes one fixed summand of the canonical duality
  multiplier ``P.w``, and hence of every R-multiplier application.
* ``swap-delta-legs`` — emits the co-opposite coproduct legs of the
  A-part on the wrong slots of the graded comultiplication
  (``P.cop_first_leg``).
* ``pair-mul-twist`` — replaces the grading-group product ``P.pair_mul``
  with the naive componentwise composition (dropping the conjugation).
* ``xi-composite`` — drops the source-conjugation from the B-leg of the
  crossing action (``P.skew``).
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .groups import (AutPair, Automorphism, Group, TableGroup, aut_from_json,
                     aut_pair_identity, group_from_json)
from .linear import label_key
from .mha import FiniteDimHopf, MhaInstance
from .pairing import (CanonicalW, DrinfeldPairing, FiniteDimPairing,
                      GroupPairing, Pairing, PairingError)
from .sampling import EnumSpec
from .scalars import field_from_json, json_int

CORRUPTIONS = ("antipode-sign", "drop-r-term", "swap-delta-legs",
               "pair-mul-twist", "xi-composite")

INSTANCE_KINDS = ("group", "finite-dim-hopf", "drinfeld-double")


class SessionError(ValueError):
    """Malformed session input (maps to CLI exit code 2)."""


class DropFirstTermW(CanonicalW):
    """Wrapper around a canonical multiplier that removes one fixed term
    from every enumeration and candidate set (a deliberate corruption)."""

    def __init__(self, inner: CanonicalW):
        super().__init__(inner.P)
        self.inner = inner
        self._dropped: Optional[Tuple] = None

    def _drop_key(self) -> Tuple:
        if self._dropped is None:
            try:
                terms = self.inner.all_terms()
            except PairingError:
                terms = self.inner.window_terms(1)
            if not terms:
                raise PairingError("w-empty: nothing to drop")
            self._dropped = min(
                ((t[0], t[1]) for t in terms),
                key=label_key)
        return self._dropped

    def _filter(self, terms):
        key = self._drop_key()
        return [t for t in terms if (t[0], t[1]) != key]

    def all_terms(self):
        return self._filter(self.inner.all_terms())

    def window_terms(self, window):
        return self._filter(self.inner.window_terms(window))

    def candidates_left(self, a_labels):
        return self._filter(self.inner.candidates_left(a_labels))

    def candidates_right(self, grading, a_label, b_label):
        return self._filter(
            self.inner.candidates_right(grading, a_label, b_label))

    def candidates_pairs(self, labels1, labels2):
        return self._filter(self.inner.candidates_pairs(labels1, labels2))


def _negate_antipode(instance: MhaInstance) -> None:
    orig = instance._antipode_basis

    def negated(label, inverse=False):
        return orig(label, inverse).neg()

    instance._antipode_basis = negated


def _naive_pair_mul(p: AutPair, q: AutPair) -> AutPair:
    return AutPair(p.alpha.compose(q.alpha), q.beta.compose(p.beta))


def _plant(P: Pairing, corrupt: Optional[str]) -> None:
    """Plant the named corruption on a freshly built pairing (none for
    ``None``)."""
    if corrupt == "antipode-sign":
        _negate_antipode(P.B)
    elif corrupt == "drop-r-term":
        P.w = DropFirstTermW(P.w)
    elif corrupt == "swap-delta-legs":
        P.cop_first_leg = False
    elif corrupt == "pair-mul-twist":
        P.pair_mul = _naive_pair_mul
    elif corrupt == "xi-composite":
        P.skew = True


def aut_to_json(phi: Automorphism):
    """A readable JSON form of an automorphism (identity, negation, or an
    explicit image map over the group elements)."""
    if phi.is_identity():
        return "identity"
    group = phi.group
    if not group.is_finite:
        return "negation" if phi(1) == -1 else {"kind": "int-aut"}
    return {"kind": "map",
            "images": [[group.element_to_json(x),
                        group.element_to_json(phi(x))]
                       for x in group.elements()]}


def grading_to_json(g: AutPair):
    return [aut_to_json(g.alpha), aut_to_json(g.beta)]


class Session:
    """A fully decoded verification context."""

    def __init__(self, pairing: Pairing, gradings: List[AutPair],
                 enum: EnumSpec, mode: str, kind: str,
                 corrupt: Optional[str] = None,
                 group: Optional[Group] = None,
                 carrier: Optional[Group] = None):
        self.P = pairing
        self.field = pairing.field
        self.gradings = gradings
        self.enum = enum
        self.mode = mode                      # "exhaustive" | "sampled"
        self.kind = kind
        self.corrupt = corrupt
        self.group = group
        # The group the gradings' automorphisms act on: the instance's group,
        # or the trivial group the decoder builds for a structure-constant
        # instance.  Automorphisms over two distinct carriers do not compose.
        self.carrier = carrier if carrier is not None else group
        _plant(pairing, corrupt)

    # -- enumeration helpers ------------------------------------------------
    @property
    def exhaustive(self) -> bool:
        return self.mode == "exhaustive"

    @property
    def finite(self) -> bool:
        return self.group.is_finite if self.group is not None else True

    def unit_grading(self) -> AutPair:
        return aut_pair_identity(self.carrier)

    def a_labels(self) -> List:
        return list(self.P.A.basis_labels(self.enum.window))

    def b_labels(self) -> List:
        return list(self.P.B.basis_labels(self.enum.window))

    def crossed_labels(self) -> List[Tuple]:
        return [(la, lb) for la in self.a_labels() for lb in self.b_labels()]


def session_from_json(data, seed: Optional[int] = None,
                      window: Optional[int] = None) -> Session:
    """Decode a session description.

    Schema: ``{"scalars": "rational" | {"prime": p}, "instance": {...},
    "gradings": [[aut, aut], ...], "enum": {"mode": "exhaustive"} |
    {"mode": "sampled", "count": n, "seed": s, "window": w},
    "corrupt": null | name}``.

    The instance payload is ``{"kind": "group" | "drinfeld-double",
    "group": <group spec>}`` or ``{"kind": "finite-dim-hopf",
    "group": <group spec>}`` / ``{"kind": "finite-dim-hopf",
    "hopf": <structure constants>}``.  ``seed``/``window`` arguments
    override the enumeration plan (CLI flags).
    """
    if not isinstance(data, dict):
        raise SessionError("session-spec: top level must be a JSON object")
    try:
        field = field_from_json(data.get("scalars"))
    except ValueError as exc:
        raise SessionError(f"session-scalars: {exc}") from exc

    inst = data.get("instance")
    if not isinstance(inst, dict) or "kind" not in inst:
        raise SessionError("session-instance: need an object with a 'kind'")
    kind = inst["kind"]
    if kind not in INSTANCE_KINDS:
        raise SessionError(
            f"session-instance-kind: {kind!r} not one of {INSTANCE_KINDS}")

    group: Optional[Group] = None
    try:
        if kind == "group":
            group = group_from_json(inst["group"])
            pairing: Pairing = GroupPairing(group, field)
        elif kind == "drinfeld-double":
            group = group_from_json(inst["group"])
            pairing = DrinfeldPairing(group, field)
        else:
            if "group" in inst:
                group = group_from_json(inst["group"])
                if not group.is_finite:
                    raise SessionError(
                        "session-instance: finite-dim-hopf needs a finite group")
                B = FiniteDimHopf.from_group(group, field)
            elif "hopf" in inst:
                B = FiniteDimHopf.from_json(inst["hopf"], field)
            else:
                raise SessionError(
                    "session-instance: finite-dim-hopf needs 'group' or 'hopf'")
            pairing = FiniteDimPairing.from_instance(B)
    except KeyError as exc:
        raise SessionError(f"session-instance: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        # The decoders raise GroupError, StructureError and PairingError,
        # all ValueErrors; a TypeError is a value of the wrong JSON type.
        raise SessionError(f"session-instance: {exc}") from exc

    aut_carrier = group if group is not None else TableGroup.cyclic(1)
    raw_gradings = data.get("gradings")
    if raw_gradings is None:
        raw_gradings = [["identity", "identity"]]
    if not isinstance(raw_gradings, list) or not raw_gradings:
        raise SessionError("session-gradings: need a non-empty list of pairs")
    gradings: List[AutPair] = []
    for entry in raw_gradings:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SessionError(
                f"session-gradings: entry {entry!r} is not an [aut, aut] pair")
        try:
            alpha = aut_from_json(aut_carrier, entry[0])
            beta = aut_from_json(aut_carrier, entry[1])
        except KeyError as exc:
            raise SessionError(
                f"session-gradings: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SessionError(f"session-gradings: {exc}") from exc
        if group is None and not (alpha.is_identity() and beta.is_identity()):
            raise SessionError(
                "session-gradings: structure-constant instances support "
                "only identity gradings")
        gradings.append(AutPair(alpha, beta))

    enum_data = data.get("enum") or {"mode": "exhaustive"}
    if not isinstance(enum_data, dict) or "mode" not in enum_data:
        raise SessionError("session-enum: need an object with a 'mode'")
    mode = enum_data["mode"]
    if mode not in ("exhaustive", "sampled"):
        raise SessionError(f"session-enum-mode: {mode!r}")
    finite = group.is_finite if group is not None else True
    if mode == "exhaustive" and not finite:
        raise SessionError(
            "session-enum: exhaustive enumeration needs a finite instance")
    try:
        enum = EnumSpec(
            seed=(seed if seed is not None
                  else json_int(enum_data.get("seed", 0), "seed")),
            window=(window if window is not None
                    else json_int(enum_data.get("window", 3), "window")),
            max_cases=json_int(enum_data.get("count", 200), "count"))
    except ValueError as exc:
        raise SessionError(f"session-enum: {exc}") from exc
    # A check with no cases would report a vacuous pass.
    if enum.max_cases < 1:
        raise SessionError(
            f"session-enum: count must be at least 1, got {enum.max_cases}")
    if enum.window < 0:
        raise SessionError(
            f"session-enum: window must be at least 0, got {enum.window}")

    corrupt = data.get("corrupt")
    if corrupt is not None and corrupt not in CORRUPTIONS:
        raise SessionError(
            f"session-corrupt: {corrupt!r} not one of {CORRUPTIONS}")

    return Session(pairing, gradings, enum, mode, kind, corrupt=corrupt,
                   group=group, carrier=aut_carrier)


def session_from_path(path: str, seed: Optional[int] = None,
                      window: Optional[int] = None) -> Session:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SessionError(
            f"session-file: cannot read spec file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SessionError(f"session-json: spec file {path!r} is not valid "
                           f"JSON: {exc}") from exc
    return session_from_json(data, seed=seed, window=window)
