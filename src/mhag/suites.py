"""Axiom verification suites.

Each suite is an ordered list of named checks.  A check enumerates a
deterministic family of test cases and evaluates one identity with exact
scalar arithmetic; it stops at its first failing case and reports the
inputs together with both evaluated sides.  A report serializes to
``{"axiom": name, "status": "pass"|"fail", "cases": n,
"counterexample": {...}|null}``.

Almost every check is one :class:`_Identity` row of data (pools, budget,
a residual giving both sides on a case, and how a counterexample renders)
run by :func:`_identity_check`.  Only the checks that are not one identity
(exact ranks, the pairing duality diagnostic and the closed form of the
R-multiplier) keep their own code.

Enumeration is driven by the session: exhaustive sessions take the full
product of the relevant label pools, sampled sessions draw seeded tuples.
When an exhaustive product exceeds a per-check budget, a deterministic
rotation schedule replaces it: every combination of the leading
("primary") pools — usually the grading tuples — is exercised against a
striding selection of the remaining pools, plus a full sweep of the
remaining pools over a prefix of primary combinations when that fits the
budget.  The schedule depends only on pool sizes, never on clocks or
process state, so reports are byte-stable.

Checks that require a unital B-instance (those built on left covers) or a
finite instance (rank computations) are omitted from the suite when the
instance does not qualify, rather than reported as vacuous passes.  A
check that still evaluates zero cases raises :class:`NoCasesError`: a
pass must mean that cases were evaluated.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .cograded import (comul_covered, crossing_apply, graded_antipode,
                       graded_counit, xi_on_legs)
from .crossed import (b_embed_left, commutation_residual, dcp_assoc_residual,
                      dcp_mul, twist_inv, twist_map)
from .groups import AutPair, aut_pair_inv
from .linear import BasisTable, LinComb, add_scaled, add_term, label_key
from .mha import sdiv
from .oracle import (double_antipode, double_comul_covered_brute, double_mul,
                     dual_basis_r_terms, group_antipode, group_comul_covered,
                     group_counit, group_mul, group_r_apply_left)
from .pairing import GroupPairing
from .quasitri import (qt_conjugation_residual, qt_coproduct_first_residual,
                       qt_coproduct_second_residual, qt_intertwine_residual,
                       r_apply, w_coproduct_a_residual, w_coproduct_b_residual,
                       w_intertwiner_residual_a, w_intertwiner_residual_b,
                       w_inverse_residual)
from .session import Session, grading_to_json

SUITE_NAMES = ("hopf", "cograded", "crossing", "quasitriangular", "lemma42",
               "oracle")

# Per-check budgets for exhaustive products (see module docstring).
BUDGET = 120_000
BUDGET_HEAVY = 60_000
RANK_DIM_CAP = 10_000
# Length cap of one product list of adjacent secondary pools that a capped
# schedule reads its tuples from (see :func:`_runs`).
RUN_CAP = 4096


class NoCasesError(ValueError):
    """Raised when a check evaluated zero cases, which is not a pass."""


class AxiomReport(NamedTuple):
    """Outcome of a single named check."""

    axiom: str
    status: str                      # "pass" | "fail"
    cases: int
    counterexample: Optional[Dict]

    def to_json(self) -> Dict:
        return {"axiom": self.axiom, "status": self.status,
                "cases": self.cases, "counterexample": self.counterexample}


def _passed(name: str, cases: int) -> AxiomReport:
    """The passing report of a check, which needs at least one case."""
    if cases < 1:
        raise NoCasesError(f"check {name!r} evaluated zero cases")
    return AxiomReport(name, "pass", cases, None)


# ---------------------------------------------------------------------------
# Deterministic case scheduling
# ---------------------------------------------------------------------------

def _stride(n: int) -> int:
    """A fixed stride coprime to ``n`` (golden-ratio fraction, adjusted)."""
    if n <= 2:
        return 1
    s = max(1, int(n * 0.6180339887498949))
    while math.gcd(s, n) != 1:
        s += 1
    return s


def _runs(pools: List[List], cap: int = RUN_CAP
          ) -> List[Tuple[List[Tuple], int, int]]:
    """The pools as runs of adjacent pools, each read from one product list
    of at most ``cap`` tuples (a longer pool is a run of its own), left to
    right: ``(product list, place, size)``.  The tuple of mixed-radix index
    k over the pools is the sum of ``table[k // place % size]``."""
    runs = []
    place, end = 1, len(pools)
    while end:
        start, size = end - 1, len(pools[end - 1])
        while start and size * len(pools[start - 1]) <= cap:
            start -= 1
            size *= len(pools[start])
        runs.append((list(itertools.product(*pools[start:end])), place, size))
        place *= size
        end = start
    return runs[::-1]


def _cases(S: Session, tag: str, primary: List[List],
           secondary: Optional[List[List]] = None,
           budget: int = BUDGET):
    """Deterministic case tuples over ``primary + secondary`` pools, yielded
    one at a time."""
    secondary = secondary or []
    pools = list(primary) + list(secondary)
    if not all(pools):
        return
    total = math.prod(map(len, pools))
    if not S.exhaustive:
        if total <= S.enum.max_cases:
            yield from itertools.product(*pools)
            return
        # The draws run in one loop before the cases: interleaved with the
        # checks they made integers-sampled about 3 % slower.
        rng = S.enum.rng(tag)
        yield from [tuple(rng.choice(pool) for pool in pools)
                    for _ in range(S.enum.max_cases)]
        return
    if total <= budget or not secondary:
        yield from itertools.product(*pools)
        return
    n_sec = math.prod(map(len, secondary))
    n_prim = total // n_sec
    picks = max(1, (budget // 2) // n_prim)
    st = _stride(n_sec)
    runs = _runs(secondary)
    for i, prim in enumerate(itertools.product(*primary)):
        for j in range(i * picks, (i + 1) * picks):
            k = (j * st + i) % n_sec
            case = prim
            for table, place, size in runs:
                case += table[k // place % size]
            yield case
    if 2 * n_sec <= budget:
        sweeps = min(n_prim, max(1, (budget - n_prim * picks) // n_sec))
        for prim in itertools.islice(itertools.product(*primary), sweeps):
            for sec in itertools.product(*secondary):
                yield prim + sec


def _check(name: str, cases_fn: Callable[[], object],
           eval_fn: Callable[..., Optional[Dict]]
           ) -> Tuple[str, Callable[[], AxiomReport]]:
    """Wrap an enumerator and a per-case evaluator into a named check."""

    def run() -> AxiomReport:
        n = 0
        for case in cases_fn():
            n += 1
            ce = eval_fn(*case)
            if ce is not None:
                return AxiomReport(name, "fail", n, ce)
        return _passed(name, n)

    return name, run


# ---------------------------------------------------------------------------
# Identity checks as data, and their one runner
# ---------------------------------------------------------------------------

class _Identity(NamedTuple):
    """One identity check.

    ``residual(*case)`` returns ``(lhs, rhs)``, or ``(lhs, rhs, targets)``
    with computed gradings to show among the inputs.  A side is a value or
    a list of values compared term by term (a single rhs against each).
    With ``budget`` None every tuple of the pools is a case; otherwise
    :func:`_cases` schedules them.  ``inputs`` names the case slots, one
    ``key:kind`` word each: n letters ``g`` take n gradings, a label
    pattern ('a', 'ab', ...) one label, an empty kind a raw value, and
    ``-`` hides a slot.  ``out`` is the pattern of both sides or a pair
    (see :func:`_show`).  With ``split`` the lhs is a pair shown as the two
    sides of the counterexample, and the rhs is what both must equal.
    """

    name: str
    primary: List[List]
    secondary: List[List]
    budget: Optional[int]
    residual: Callable
    inputs: str
    out: object
    split: bool = False


class _With:
    """A side shown as ``value`` whose ``also`` parts (target gradings, for
    instance) must agree as well but are not rendered."""

    __slots__ = ("value", "also")

    def __init__(self, value, *also):
        self.value = value
        self.also = also

    def __eq__(self, other):
        return (all(a == b for a, b in zip(self.also, other.also))
                and self.value == other.value)


def _holds(lhs, rhs) -> bool:
    if isinstance(lhs, list):
        rhs = rhs if isinstance(rhs, list) else [rhs] * len(lhs)
        return all(l == r for l, r in zip(lhs, rhs))
    return lhs == rhs


def _fmt(S: Session, pattern: str, value: LinComb) -> List:
    """Render a value whose labels follow ``pattern`` ('a'/'b' per slot)."""
    to_str = S.field.to_str
    return [_lab(S, pattern, label) + [to_str(c)]
            for label, c in value.sorted_items()]


def _lab(S: Session, pattern: str, label) -> List:
    """Render one label whose slots follow ``pattern``."""
    A, B = S.P.A, S.P.B
    if len(pattern) == 1:
        label = (label,)
    return [A.label_to_json(x) if ch == "a" else B.label_to_json(x)
            for ch, x in zip(pattern, label)]


def _gj(*gradings: AutPair) -> List:
    return [grading_to_json(g) for g in gradings]


def _ce(inputs: Dict, lhs, rhs) -> Dict:
    return {"inputs": inputs, "lhs": lhs, "rhs": rhs}


def _show(S: Session, pattern: str, side):
    """Render one side: pattern 'g' a grading, 'k' a scalar, '=ab' the
    label of a one-term value, and a label pattern a value."""
    if isinstance(side, list):
        return [_show(S, pattern, part) for part in side]
    if isinstance(side, _With):
        side = side.value
    if pattern == "g":
        return _gj(side)
    if pattern == "k":
        return S.field.to_str(side)
    if pattern[0] == "=":
        return _fmt(S, pattern[1:], side)[0][:-1]
    return _fmt(S, pattern, side)


def _show_inputs(S: Session, spec: str, case: Tuple) -> Dict:
    shown: Dict = {}
    i = 0
    for word in spec.split():
        key, _, kind = word.partition(":")
        width = len(kind) if kind.startswith("g") else 1
        part = case[i:i + width]
        i += width
        if key == "-":
            continue
        if not kind:
            shown[key] = part[0]
        elif kind.startswith("g"):
            shown[key] = _gj(*part)
        else:
            shown[key] = _lab(S, kind, part[0])
    return shown


def _identity_check(S: Session, row: _Identity
                    ) -> Tuple[str, Callable[[], AxiomReport]]:
    """The named check of one row: enumerate, test ``lhs == rhs`` and
    render the first failing case."""

    def cases():
        if row.budget is None:
            return itertools.product(*row.primary, *row.secondary)
        return _cases(S, row.name, row.primary, row.secondary, row.budget)

    def ev(*case):
        lhs, rhs, *targets = row.residual(*case)
        if _holds(lhs, rhs):
            return None
        inputs = _show_inputs(S, row.inputs, case)
        for key, gradings in (targets[0] if targets else {}).items():
            inputs[key] = _gj(*gradings)
        if row.split:
            lhs, rhs = lhs
        pats = (row.out, row.out) if isinstance(row.out, str) else row.out
        return _ce(inputs, _show(S, pats[0], lhs), _show(S, pats[1], rhs))

    return _check(row.name, cases, ev)


class _Rank:
    """Incremental exact rank over the session field (sparse Gaussian)."""

    def __init__(self, field, rows=()):
        self.field = field
        self.pivots: Dict = {}          # pivot label -> reduced row dict
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: LinComb) -> None:
        work = dict(row.terms)
        while work:
            lead = min(work, key=label_key)
            piv = self.pivots.get(lead)
            if piv is None:
                inv = sdiv(self.field.one(), work[lead])
                self.pivots[lead] = {l: c * inv for l, c in work.items()}
                return
            add_scaled(work, piv.items(), -work[lead])


# Input specs shared by several rows.
_GX = "grading:g x:ab"
_GXY = _GX + " y:ab"
_GGUV = "gradings:gg u:ab v:ab"
_GGGUVZ = "gradings:ggg u:ab v:ab z:ab"


# ---------------------------------------------------------------------------
# hopf suite: the graded Hopf axioms of the crossed construction
# ---------------------------------------------------------------------------

def _hopf_suite(S: Session) -> List:
    P = S.P
    A, B = P.A, P.B
    mul, gaut = P._gmul, P._gaut
    unit = LinComb.unit
    e = S.unit_grading()
    G = list(S.gradings)
    crossed = S.crossed_labels()
    unital = B.is_unital
    checks: List = []

    def comul(x, p, q, cover, side):
        return comul_covered(P, x, p, q, cover, side=side)

    # Covered coproducts of basis terms, one table per cover side, keyed
    # (label, left grading, right grading, cover label).
    def covered(side):
        return BasisTable(lambda xl, p, q, vl: comul(unit(xl), p, q,
                                                     unit(vl), side))

    covered_l, covered_r = covered("left"), covered("right")

    # Covered coassociativity: both re-splittings of a double coproduct
    # agree on every (left, middle, right) cover assignment.
    if unital:
        def coassoc(p, q, r, xl, yl, zl):
            pq, qr = mul[p, q], mul[q, r]
            lhs: Dict = {}
            outer = comul(unit(xl), pq, r, unit(zl), "right")
            for (a1, b1, a2, b2), c in outer.terms.items():
                inner = covered_l[(a1, b1), p, q, yl]
                for lab, c2 in inner.terms.items():
                    add_term(lhs, lab + (a2, b2), c * c2)
            rhs: Dict = {}
            outer2 = comul(unit(xl), p, qr, unit(yl), "left")
            for (a1, b1, a2, b2), c in outer2.terms.items():
                inner = covered_r[(a2, b2), q, r, zl]
                for lab, c2 in inner.terms.items():
                    add_term(rhs, (a1, b1) + lab, c * c2)
            return LinComb(lhs), LinComb(rhs)

        checks.append(_Identity(
            "coassociativity", [G, G, G], [crossed, crossed, crossed],
            80_000, coassoc,
            "gradings:ggg x:ab left-cover:ab right-cover:ab", "ababab"))

    # Counit laws: the counit of the leg split off through the unit
    # grading collapses the coproduct to a product.  The left-covered law
    # needs a unital B-instance.
    def counit_right(q, xl, yl):
        x, y = unit(xl), unit(yl)
        out: Dict = {}
        for (a1, b1, a2, b2), c in comul(x, e, q, y, "right").terms.items():
            add_term(out, (a2, b2), c * A.counit(A.lc(a1)) * B.counit(B.lc(b1)))
        return LinComb(out), dcp_mul(P, q, x, y)

    def counit_left(q, xl, yl):
        x, y = unit(xl), unit(yl)
        out: Dict = {}
        for (a1, b1, a2, b2), c in comul(x, q, e, y, "left").terms.items():
            add_term(out, (a1, b1), c * A.counit(A.lc(a2)) * B.counit(B.lc(b2)))
        return LinComb(out), dcp_mul(P, q, y, x)

    # Antipode laws: multiply the antipode of one leg against the other;
    # the unit-grading input collapses to its counit.  The second display
    # uses a left cover, so it needs a unital B-instance.
    def antipode_left(g, xl, yl):
        gi = gaut[g].inv
        x, y = unit(xl), unit(yl)
        acc: Dict = {}
        for (a1, b1, a2, b2), c in comul(x, gi, g, y, "right").terms.items():
            sv = graded_antipode(P, gi, unit((a1, b1)))
            add_scaled(acc, dcp_mul(P, g, sv, unit((a2, b2))).terms.items(), c)
        return LinComb(acc), y.scale(graded_counit(P, x))

    def antipode_right(g, xl, yl):
        gi = gaut[g].inv
        x, y = unit(xl), unit(yl)
        acc: Dict = {}
        for (a1, b1, a2, b2), c in comul(x, g, gi, y, "left").terms.items():
            sv = graded_antipode(P, gi, unit((a2, b2)))
            add_scaled(acc, dcp_mul(P, g, unit((a1, b1)), sv).terms.items(), c)
        return LinComb(acc), y.scale(graded_counit(P, x))

    for name, residual, needs_unital in (
            ("counit-right", counit_right, False),
            ("counit-left", counit_left, True),
            ("antipode-left", antipode_left, False),
            ("antipode-right", antipode_right, True)):
        if unital or not needs_unital:
            checks.append(_Identity(name, [G], [crossed, crossed],
                                    BUDGET_HEAVY, residual,
                                    "grading:g x:ab cover:ab", "ab"))

    # Multiplicativity of the graded comultiplication.
    def delta_mult(p, q, xl, yl, vl):
        pq = mul[p, q]
        lhs: Dict = {}
        for lab, c in dcp_mul(P, pq, unit(xl), unit(yl)).terms.items():
            half = comul(unit(lab), p, q, unit(vl), "right")
            add_scaled(lhs, half.terms.items(), c)
        rhs: Dict = {}
        sy = comul(unit(yl), p, q, unit(vl), "right")
        for (s1a, s1b, s2a, s2b), c in sy.terms.items():
            half = covered_r[xl, p, q, (s2a, s2b)]
            for (u1a, u1b, u2a, u2b), c2 in half.terms.items():
                m1 = dcp_mul(P, p, unit((u1a, u1b)), unit((s1a, s1b)))
                for lab1, c3 in m1.terms.items():
                    add_term(rhs, lab1 + (u2a, u2b), c * c2 * c3)
        return LinComb(lhs), LinComb(rhs)

    checks.append(_Identity(
        "delta-multiplicative", [G, G], [crossed, crossed, crossed],
        BUDGET_HEAVY, delta_mult, "gradings:gg x:ab y:ab cover:ab", "abab"))

    # The antipode reverses componentwise products into the inverse
    # grading, and it and its inverse are mutually inverse bijections.
    def antihom(g, xl, yl):
        return (graded_antipode(P, g, dcp_mul(P, g, unit(xl), unit(yl))),
                dcp_mul(P, gaut[g].inv, graded_antipode(P, g, unit(yl)),
                        graded_antipode(P, g, unit(xl))))

    def roundtrip(g, xl):
        gi = gaut[g].inv
        x = unit(xl)
        back = graded_antipode(P, gi, graded_antipode(P, g, x), inverse=True)
        again = graded_antipode(P, gi, graded_antipode(P, g, x, inverse=True))
        return [back, again], x

    checks += [
        _Identity("antipode-antihom", [G], [crossed, crossed], BUDGET,
                  antihom, _GXY, "ab"),
        _Identity("antipode-roundtrip", [G], [crossed], BUDGET, roundtrip,
                  _GX, "ab", split=True)]

    # Covered coproduct images span the full component tensor square
    # (finite instances; both cover sides when B is unital).
    dim2 = len(crossed) ** 2
    if S.finite and dim2 <= RANK_DIM_CAP:
        pair_budget = max(1, BUDGET // max(dim2, 1))
        gps = [(p, q) for p in G for q in G][:pair_budget]

        def ev_surjective(p, q):
            for side in ("right", "left") if unital else ("right",):
                rank = _Rank(S.field, (comul(unit(xl), p, q, unit(yl), side)
                                       for xl in crossed
                                       for yl in crossed)).rank
                if rank != dim2:
                    return {"inputs": {"gradings": _gj(p, q), "side": side},
                            "rank": rank, "dimension": dim2}
            return None

        checks.append(_check("axiom-ii-surjectivity", lambda: list(gps),
                             ev_surjective))

    return checks


# ---------------------------------------------------------------------------
# cograded suite: grading group, base instances, pairing, crossed product
# ---------------------------------------------------------------------------

def _t_roundtrip(inst, i, x, y):
    u = LinComb.unit((x, y))
    return [inst.t_map_inv(i, inst.t_map(i, u)),
            inst.t_map(i, inst.t_map_inv(i, u))], u


def _base_coassoc(inst, x, y, z):
    lhs: Dict = {}
    for (u, w), c in inst.t_map(1, LinComb.unit((y, z))).terms.items():
        for (s, t), c2 in inst.t_map(2, LinComb.unit((x, u))).terms.items():
            add_term(lhs, (s, t, w), c * c2)
    rhs: Dict = {}
    for (s, t), c in inst.t_map(2, LinComb.unit((x, y))).terms.items():
        for (u, w), c2 in inst.t_map(1, LinComb.unit((t, z))).terms.items():
            add_term(rhs, (s, u, w), c * c2)
    return LinComb(lhs), LinComb(rhs)


def _base_counit(inst, x, y):
    l1: Dict = {}
    for (u, w), c in inst.t_map(1, LinComb.unit((x, y))).terms.items():
        add_term(l1, w, c * inst.counit(inst.lc(u)))
    l2: Dict = {}
    for (u, w), c in inst.t_map(2, LinComb.unit((x, y))).terms.items():
        add_term(l2, u, c * inst.counit(inst.lc(w)))
    return [LinComb(l1), LinComb(l2)], inst.mul(inst.lc(x), inst.lc(y))


def _base_antipode(inst, x, y):
    l1: Dict = {}
    for (u, w), c in inst.t_map(1, LinComb.unit((x, y))).terms.items():
        prod = inst.mul(inst.antipode(inst.lc(u)), inst.lc(w))
        add_scaled(l1, prod.terms.items(), c)
    r1 = inst.lc(y).scale(inst.counit(inst.lc(x)))
    l2: Dict = {}
    for (u, w), c in inst.t_map(2, LinComb.unit((x, y))).terms.items():
        prod = inst.mul(inst.lc(u), inst.antipode(inst.lc(w)))
        add_scaled(l2, prod.terms.items(), c)
    r2 = inst.lc(x).scale(inst.counit(inst.lc(y)))
    return [LinComb(l1), LinComb(l2)], [r1, r2]


def _base_aut_compat(inst, phi, x, y):
    px, py = inst.aut_basis(phi, x), inst.aut_basis(phi, y)
    t1 = inst.t_map(1, LinComb.unit((px, py)))
    t1ref = inst.t_map(1, LinComb.unit((x, y))).map_labels(
        lambda lab: (inst.aut_basis(phi, lab[0]),
                     inst.aut_basis(phi, lab[1])))
    return (_With(t1, inst.counit(inst.lc(px)), inst.antipode(inst.lc(px))),
            _With(t1ref, inst.counit(inst.lc(x)),
                  inst.apply_aut(phi, inst.antipode(inst.lc(x)))))


def _cograded_suite(S: Session) -> List:
    P = S.P
    A, B = P.A, P.B
    mul = P.pair_mul
    inv = aut_pair_inv
    unit = LinComb.unit
    e = S.unit_grading()
    G = list(S.gradings)
    crossed = S.crossed_labels()
    a_labels = S.a_labels()
    b_labels = S.b_labels()
    bases = ((A, a_labels, "a"), (B, b_labels, "b"))

    # The grading automorphisms that the base instances must respect.
    auts = []
    for g in G:
        for phi in (g.alpha, g.beta):
            if all(phi is not psi and phi != psi for psi in auts):
                auts.append(phi)

    # Grading-group laws for the configured pair product, then the Hopf
    # laws of both base instances through their covered composites.
    checks: List = [
        _Identity("grading-group-associative", [G, G, G], [], BUDGET,
                  lambda p, q, r: (mul(mul(p, q), r), mul(p, mul(q, r))),
                  "gradings:ggg", "g"),
        _Identity("grading-group-identity", [G], [], None,
                  lambda p: ([mul(e, p), mul(p, e)], p),
                  "grading:g", "g", split=True),
        _Identity("grading-group-inverse", [G], [], None,
                  lambda p: ([mul(p, inv(p)), mul(inv(p), p)], e),
                  "grading:g", "g", split=True)]
    checks += [_Identity(f"base-t-roundtrip-{c}", [[1, 2, 3, 4]], [ls, ls],
                         BUDGET, partial(_t_roundtrip, inst),
                         f"map: x:{c} y:{c}", c + c, split=True)
               for inst, ls, c in bases]
    checks += [_Identity(f"base-coassociativity-{c}", [ls], [ls, ls], BUDGET,
                         partial(_base_coassoc, inst), f"x:{c} y:{c} z:{c}",
                         c * 3)
               for inst, ls, c in bases]
    checks += [_Identity(f"base-{law}-{c}", [ls], [ls], BUDGET,
                         partial(residual, inst), f"x:{c} y:{c}", c)
               for law, residual in (("counit", _base_counit),
                                     ("antipode", _base_antipode))
               for inst, ls, c in bases]
    checks += [_Identity(f"base-aut-compat-{c}", [auts], [ls, ls], BUDGET,
                         partial(_base_aut_compat, inst), f"- x:{c} y:{c}",
                         c + c)
               for inst, ls, c in bases]

    # Duality laws of the pairing on the enumerated label families.
    def run_duality() -> AxiomReport:
        diag = P.check_duality(a_labels, b_labels)
        n = len(a_labels) * len(b_labels)
        if diag is None:
            return _passed("pairing-duality", n)
        return AxiomReport("pairing-duality", "fail", n,
                           {"diagnostic": diag})

    checks.append(("pairing-duality", run_duality))

    # Module laws of the pairing actions ``left`` and ``right`` of the
    # instance X on the instance Y (B on A, then A on B).
    def module_laws(X, Y, left, right, m1, m2, yl):
        v = Y.lc(yl)
        mm = X.mul(X.lc(m1), X.lc(m2))
        return ([P.act(left, mm, v), P.act(right, mm, v),
                 P.act(right, X.lc(m2), P.act(left, X.lc(m1), v))],
                [P.act(left, X.lc(m1), P.act(left, X.lc(m2), v)),
                 P.act(right, X.lc(m2), P.act(right, X.lc(m1), v)),
                 P.act(left, X.lc(m1), P.act(right, X.lc(m2), v))])

    checks += [
        _Identity("pairing-module-a", [b_labels], [b_labels, a_labels],
                  BUDGET, partial(module_laws, B, A, "b>>a", "a<<b"),
                  "b1:b b2:b a:a", "a"),
        _Identity("pairing-module-b", [a_labels], [a_labels, b_labels],
                  BUDGET, partial(module_laws, A, B, "a>>b", "b<<a"),
                  "a1:a a2:a b:b", "b")]

    # Non-degeneracy of the pairing on the enumerated square of labels.
    def run_nondegenerate() -> AxiomReport:
        rows = ({lb: P.pair_basis(la, lb) for lb in b_labels}
                for la in a_labels)
        rank = _Rank(S.field, (LinComb({l: c for l, c in row.items() if c})
                               for row in rows)).rank
        n = len(a_labels)
        if rank == n:
            return _passed("pairing-nondegenerate", n)
        return AxiomReport("pairing-nondegenerate", "fail", n,
                           {"rank": rank, "dimension": n})

    checks.append(("pairing-nondegenerate", run_nondegenerate))

    # Componentwise associativity of the crossed product, the commutation
    # rule between the two embedded factors, and the factor-exchange twist
    # against its inverse.
    def twist_roundtrip(g, la, lb):
        ba, ab = unit((lb, la)), unit((la, lb))
        return ([twist_inv(P, g, twist_map(P, g, ba)),
                 twist_map(P, g, twist_inv(P, g, ab))], [ba, ab])

    checks += [
        _Identity("dcp-associativity", [G], [crossed, crossed, crossed],
                  BUDGET_HEAVY, partial(dcp_assoc_residual, P),
                  _GXY + " z:ab", "ab"),
        _Identity("commutation-rule", [G], [a_labels, b_labels, crossed],
                  BUDGET,
                  lambda g, al, bl, yl: commutation_residual(
                      P, g, A.lc(al), B.lc(bl), unit(yl)),
                  "grading:g a:a b:b cover:ab", "ab"),
        _Identity("twist-roundtrip", [G], [a_labels, b_labels], BUDGET,
                  twist_roundtrip, "grading:g a:a b:b", ("ba", "ab"),
                  split=True)]

    # The crossed component algebras carry no one-sided annihilators
    # (exact rank of the product tables; finite instances only — window
    # truncation is not sound for this check).
    dim = len(crossed)
    if S.finite and dim ** 2 <= RANK_DIM_CAP * 4:
        n_gradings = max(1, min(len(G), BUDGET // max(dim * dim, 1)))
        rank_gradings = G[:n_gradings]

        def ev_crossed_nondeg(g):
            for orient in ("left", "right"):
                tracker = _Rank(S.field)
                for xi in crossed:
                    row: Dict = {}
                    for j, xj in enumerate(crossed):
                        x, y = (xi, xj) if orient == "left" else (xj, xi)
                        for lab, c in dcp_mul(P, g, unit(x),
                                              unit(y)).terms.items():
                            add_term(row, (j,) + lab, c)
                    tracker.add(LinComb(row))
                if tracker.rank != dim:
                    return {"inputs": {"grading": _gj(g), "side": orient},
                            "rank": tracker.rank, "dimension": dim}
            return None

        checks.append(_check("crossed-nondegenerate",
                             lambda: [(g,) for g in rank_gradings],
                             ev_crossed_nondeg))

    # The finite right cover produced for a value really acts as a unit.
    def right_unit(g, yl):
        y = unit(yl)
        return b_embed_left(P, g, P.crossed_right_unit(g, y), y), y

    checks.append(_Identity("crossed-right-unit", [G], [crossed], BUDGET,
                            right_unit, "grading:g value:ab",
                            "ab"))
    return checks


# ---------------------------------------------------------------------------
# crossing suite: the componentwise conjugation action
# ---------------------------------------------------------------------------

def _crossing_suite(S: Session) -> List:
    P = S.P
    mul, gaut, cross = P._gmul, P._gaut, P._cross
    unit = LinComb.unit
    e = S.unit_grading()
    G = list(S.gradings)
    crossed = S.crossed_labels()

    def xi(actor, source, value):
        return crossing_apply(P, actor, source, value)

    # Componentwise algebra morphism onto the conjugated component.
    def morphism(t, q, xl, yl):
        x, y = unit(xl), unit(yl)
        tgt1, xv = xi(t, q, x)
        tgt2, yv = xi(t, q, y)
        tgt3, pv = xi(t, q, dcp_mul(P, q, x, y))
        return _With(pv, tgt2, tgt3), _With(dcp_mul(P, tgt1, xv, yv),
                                             tgt1, tgt1)

    # Group action: composing two conjugations equals the composite actor.
    def composition(t, s, q, xl):
        x = unit(xl)
        g1, v1 = xi(s, q, x)
        g2, v2 = xi(t, g1, v1)
        g3, v3 = xi(mul[t, s], q, x)
        return _With(v2, g2), _With(v3, g3), {"targets": (g2, g3)}

    # The unit grading acts as the identity; the inverse actor undoes the
    # action.
    def unit_acts(q, xl):
        x = unit(xl)
        tgt, v = xi(e, q, x)
        return _With(v, tgt), _With(x, q)

    def inverse(t, q, xl):
        x = unit(xl)
        g1, v1 = xi(t, q, x)
        g2, v2 = xi(gaut[t].inv, g1, v1)
        return _With(v2, g2), _With(x, q), {"target": (g2,)}

    # Compatibility with the graded comultiplication.
    def comul_compat(t, p, q, xl, yl):
        tp, tq = cross[t, p].target, cross[t, q].target
        _, xv = xi(t, mul[p, q], unit(xl))
        _, yv = xi(t, q, unit(yl))
        lhs = comul_covered(P, xv, tp, tq, yv, side="right")
        base = comul_covered(P, unit(xl), p, q, unit(yl), side="right")
        rhs = xi_on_legs(P, t, p, base, 0, 1)
        return lhs, xi_on_legs(P, t, q, rhs, 2, 3)

    # Compatibility with the counit on the unit component.
    def counit_compat(t, xl):
        x = unit(xl)
        return graded_counit(P, xi(t, e, x)[1]), graded_counit(P, x)

    return [
        _Identity("xi-algebra-morphism", [G, G], [crossed, crossed],
                  BUDGET_HEAVY, morphism, "actor:g source:g x:ab y:ab", "ab"),
        _Identity("xi-composition", [G, G, G], [crossed], BUDGET_HEAVY,
                  composition, "outer:g inner:g source:g x:ab", "ab"),
        _Identity("xi-unit", [G], [crossed], BUDGET, unit_acts,
                  "source:g x:ab", ("ab", "=ab")),
        _Identity("xi-inverse-roundtrip", [G, G], [crossed], BUDGET, inverse,
                  "actor:g source:g x:ab", ("ab", "=ab")),
        _Identity("xi-comul-compat", [G, G, G], [crossed, crossed],
                  BUDGET_HEAVY, comul_compat,
                  "actor:g gradings:gg x:ab cover:ab", "abab"),
        _Identity("xi-counit-compat", [G], [crossed], BUDGET, counit_compat,
                  "actor:g x:ab", "k")]


# ---------------------------------------------------------------------------
# quasitriangular suite: the R-multiplier axioms and the canonical multiplier
# ---------------------------------------------------------------------------

def _quasitriangular_suite(S: Session) -> List:
    P = S.P
    A, B = P.A, P.B
    unit = LinComb.unit
    G = list(S.gradings)
    crossed = S.crossed_labels()
    a_labels = S.a_labels()
    b_labels = S.b_labels()

    def w_invertible(m, n):
        left, right, expected = w_inverse_residual(P, B.lc(m), A.lc(n))
        return [left, right], expected

    return [
        # Crossing-conjugation moves the R-multiplier between grading pairs.
        _Identity("qt-conjugation", [G, G, G], [crossed, crossed],
                  BUDGET_HEAVY,
                  lambda t, p, q, ul, vl: qt_conjugation_residual(
                      P, t, p, q, unit(ul + vl)),
                  "actor:g " + _GGUV, "abab"),
        # The coproduct on the first leg factors through 13-23, on the
        # second leg through 13-12.
        _Identity("qt-coproduct-first", [G, G, G],
                  [crossed, crossed, crossed], BUDGET_HEAVY,
                  lambda p, q, r, ul, vl, zl: qt_coproduct_first_residual(
                      P, p, q, r, unit(ul + vl + zl)),
                  _GGGUVZ, "ababab"),
        _Identity("qt-coproduct-second", [G, G, G],
                  [crossed, crossed, crossed], BUDGET_HEAVY,
                  lambda p, q, r, ul, vl, zl: qt_coproduct_second_residual(
                      P, p, q, r, unit(ul + vl + zl)),
                  _GGGUVZ, "ababab"),
        # The R-multiplier intertwines the coproduct with its twisted
        # co-opposite.
        _Identity("qt-intertwine", [G, G], [crossed, crossed, crossed],
                  BUDGET_HEAVY,
                  lambda p, q, xl, ul, vl: qt_intertwine_residual(
                      P, p, q, unit(xl), unit(ul), unit(vl)),
                  "gradings:gg x:ab u:ab v:ab", "abab"),
        # The canonical multiplier reproduces the pairing, satisfies the
        # coproduct identities on both legs, and its antipode twist is a
        # two-sided inverse.
        _Identity("w-pairing", [a_labels], [b_labels], BUDGET,
                  lambda la, lb: (P.w.pair_against(A.lc(la), B.lc(lb)),
                                  P.pair(A.lc(la), B.lc(lb))),
                  "a:a b:b", "k"),
        _Identity("w-coproduct-b", [b_labels], [b_labels, a_labels],
                  BUDGET_HEAVY,
                  lambda m, m2, n: w_coproduct_b_residual(
                      P, B.lc(m), B.lc(m2), A.lc(n)),
                  "m:b m2:b n:a", "bba"),
        _Identity("w-coproduct-a", [b_labels], [a_labels, a_labels],
                  BUDGET_HEAVY,
                  lambda m, n1, n2: w_coproduct_a_residual(
                      P, B.lc(m), A.lc(n1), A.lc(n2)),
                  "m:b n1:a n2:a", "baa"),
        _Identity("w-invertible", [b_labels], [a_labels], BUDGET,
                  w_invertible, "m:b n:a", "ba")]


# ---------------------------------------------------------------------------
# lemma42 suite: the canonical-multiplier intertwiner identities
# ---------------------------------------------------------------------------

def _lemma42_suite(S: Session) -> List:
    P = S.P
    A, B = P.A, P.B
    G = list(S.gradings)
    crossed = S.crossed_labels()
    a_labels = S.a_labels()
    b_labels = S.b_labels()
    return [
        _Identity("w-intertwiner-a", [G], [a_labels, crossed, a_labels],
                  BUDGET_HEAVY,
                  lambda p, al, ul, ml: w_intertwiner_residual_a(
                      P, p, A.lc(al), LinComb.unit(ul), A.lc(ml)),
                  "grading:g a:a cover:ab m:a", "aba"),
        _Identity("w-intertwiner-b", [G, G], [b_labels, b_labels, crossed],
                  BUDGET_HEAVY,
                  lambda p, q, bl, ml, ul: w_intertwiner_residual_b(
                      P, p, q, B.lc(bl), B.lc(ml), LinComb.unit(ul)),
                  "gradings:gg b:b m:b cover:ab", "bab")]


# ---------------------------------------------------------------------------
# oracle suite: closed forms against the generic engine
# ---------------------------------------------------------------------------

def _oracle_suite(S: Session) -> List:
    """The engine against closed forms.

    ``oracle-mul``, ``oracle-comul`` and ``oracle-antipode`` are the same
    rows on the Drinfeld double and on a group pairing; only the closed
    form differs.  For a structure-constant instance built from a finite
    group, ``els`` lists the group elements that the basis indices stand
    for: the closed forms run on the group pairing of those elements, and
    their values are translated back to indices.
    """
    P = S.P
    unit = LinComb.unit
    G = list(S.gradings)
    crossed = S.crossed_labels()

    def shared(mul_cf, comul_cf, antipode_cf, comul_budget):
        return (
            _Identity("oracle-mul", [G], [crossed, crossed], BUDGET,
                      lambda g, x, y: (dcp_mul(P, g, unit(x), unit(y)),
                                       mul_cf(g, x, y)), _GXY, "ab"),
            _Identity("oracle-comul", [G, G], [crossed, crossed],
                      comul_budget,
                      lambda p, q, x, c: (
                          comul_covered(P, unit(x), p, q, unit(c),
                                        side="right"),
                          comul_cf(p, q, x, c)),
                      "gradings:gg x:ab cover:ab", "abab"),
            _Identity("oracle-antipode", [G], [crossed], BUDGET,
                      lambda g, x: (graded_antipode(P, g, unit(x)),
                                    antipode_cf(g, x)), _GX, "ab"))

    if S.kind == "drinfeld-double":
        mul_row, comul_row, antipode_row = shared(
            lambda g, x, y: double_mul(P, g, x, y),
            lambda p, q, x, c: double_comul_covered_brute(
                P, p, q, unit(x), unit(c)),
            lambda g, x: double_antipode(P, g, x), 20_000)
        return [mul_row, antipode_row] + ([comul_row] if S.finite else [])
    if S.kind == "group":
        Q, els = P, None
    elif S.kind == "finite-dim-hopf" and S.group is not None:
        Q, els = GroupPairing(S.group, S.field), S.group.elements()
        idx = {g: i for i, g in enumerate(els)}
    else:
        return []

    def on(*labels):             # engine crossed labels as labels of Q
        if els is None:
            return labels
        return [(els[a], els[b]) for a, b in labels]

    def back(value: LinComb) -> LinComb:    # a value of Q in engine labels
        if els is None:
            return value
        return value.map_labels(lambda lab: tuple(idx[g] for g in lab))

    mul_row, comul_row, antipode_row = shared(
        lambda g, x, y: back(group_mul(Q, g, *on(x, y))),
        lambda p, q, x, c: back(group_comul_covered(Q, p, q, *on(x, c))),
        lambda g, x: back(group_antipode(Q, g, *on(x))[1]), BUDGET_HEAVY)
    checks = [
        mul_row, comul_row,
        _Identity("oracle-counit", [crossed], [], None,
                  lambda x: (graded_counit(P, unit(x)),
                             group_counit(Q, *on(x))), "x:ab", "k"),
        antipode_row,
        _Identity("oracle-r", [G, G], [crossed, crossed], BUDGET_HEAVY,
                  lambda p, q, u, v: (
                      r_apply(P, p, q, unit(u + v), "left"),
                      back(group_r_apply_left(Q, p, q, *on(u, v)))),
                  _GGUV, "abab")]
    if els is None:
        return checks

    # The dual-basis form of the R-multiplier (structure constants only).
    def ev_r_closed(p):
        engine = []
        for b_val, a_lab, coeff in dual_basis_r_terms(P, p):
            for lb, c in b_val.sorted_items():
                engine.append((lb, a_lab, c * coeff))
        binv = p.beta.inverse()
        expected = sorted(
            ((idx[binv(g)], idx[g], S.field.one()) for g in els),
            key=lambda t: (t[0], t[1]))
        engine = sorted(engine, key=lambda t: (t[0], t[1]))
        if engine == expected:
            return None
        fmt = lambda terms: [[P.B.label_to_json(lb), P.A.label_to_json(la),
                              S.field.to_str(c)] for lb, la, c in terms]
        return _ce({"grading": _gj(p)}, fmt(engine), fmt(expected))

    checks.append(_check("oracle-r-closed-form", lambda: [(p,) for p in G],
                         ev_r_closed))
    return checks


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

_SUITE_BUILDERS = {
    "hopf": _hopf_suite,
    "cograded": _cograded_suite,
    "crossing": _crossing_suite,
    "quasitriangular": _quasitriangular_suite,
    "lemma42": _lemma42_suite,
    "oracle": _oracle_suite,
}


def suite_axioms(S: Session, suite: str,
                 only: Optional[List[str]] = None
                 ) -> List[Tuple[str, Callable[[], AxiomReport]]]:
    """The ordered (name, runner) checks of a named suite; ``only`` filters
    by axiom name."""
    if suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"expected one of {SUITE_NAMES}")
    checks = [_identity_check(S, c) if isinstance(c, _Identity) else c
              for c in _SUITE_BUILDERS[suite](S)]
    if only is not None:
        wanted = set(only)
        checks = [c for c in checks if c[0] in wanted]
    return checks


def run_suite(S: Session, suite: str,
              only: Optional[List[str]] = None) -> List[AxiomReport]:
    """Run one suite sequentially and return its reports in order."""
    return [run() for _, run in suite_axioms(S, suite, only)]
