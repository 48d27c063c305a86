"""Output checks made apart from the program.

Nothing here imports ``mhag``.  The closed forms of the group pairing's
component product and right-covered coproduct are derived from the group
law and the grading automorphisms alone:

* product at the grading (alpha, beta), on crossed basis terms
  ``(p, x)`` (a point mass on the function side, a group element on the
  algebra side)::

      (p, x) * (q, y) = (p, x y)   if p == beta(x) q alpha(x)^-1,  else 0

* right-covered coproduct for the split ((alpha, beta), (gamma, delta)),
  of ``t = (p, h)`` against the cover ``(m, l)``, with
  ``h' = gamma^-1 beta gamma (h)`` and ``z = delta(h') m gamma(h')^-1``::

      (z^-1 p, gamma(h)) (x) (z, h' l)

Every checker returns a list of problems; an empty list means the output
passed.  ``test_checks.py`` shows that each checker rejects a perturbed
output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Label = Tuple
Value = Dict[Tuple, Fraction]


# ---------------------------------------------------------------------------
# Groups and automorphisms
# ---------------------------------------------------------------------------

class GroupLaw:
    """A group given by its law: product, inverse, identity and the JSON
    form of its elements."""

    def __init__(self, mul: Callable, inv: Callable, identity,
                 elements: Sequence = ()):
        self.mul = mul
        self.inv = inv
        self.e = identity
        self.elements = list(elements)

    def element(self, data):
        return tuple(data) if isinstance(data, list) else data

    def conj(self, g, x):
        return self.mul(self.mul(g, x), self.inv(g))


def _perm_mul(x, y):
    return tuple(x[y[i]] for i in range(len(y)))


def _perm_inv(x):
    out = [0] * len(x)
    for i, xi in enumerate(x):
        out[xi] = i
    return tuple(out)


S3_LAW = GroupLaw(_perm_mul, _perm_inv, (0, 1, 2),
                  [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                   (2, 1, 0)])
Z_LAW = GroupLaw(lambda x, y: x + y, lambda x: -x, 0)


class Aut:
    """A group automorphism with its inverse, as two plain functions."""

    def __init__(self, fwd: Callable, back: Callable):
        self.fwd = fwd
        self.back = back

    def __call__(self, x):
        return self.fwd(x)

    def inverse(self) -> "Aut":
        return Aut(self.back, self.fwd)

    def then(self, outer: "Aut") -> "Aut":
        """outer after self."""
        return Aut(lambda x: outer.fwd(self.fwd(x)),
                   lambda x: self.back(outer.back(x)))


def aut_from_json(G: GroupLaw, spec) -> Aut:
    """Read the automorphism forms used by session files and exports:
    ``"identity"``, ``"negation"``, ``{"kind": "inner", "by": g}`` and
    ``{"kind": "map", "images": [[x, phi(x)], ...]}``."""
    if spec == "identity":
        return Aut(lambda x: x, lambda x: x)
    if spec == "negation":
        return Aut(G.inv, G.inv)
    if isinstance(spec, dict) and spec.get("kind") == "inner":
        g = G.element(spec["by"])
        gi = G.inv(g)
        return Aut(lambda x: G.conj(g, x), lambda x: G.conj(gi, x))
    if isinstance(spec, dict) and spec.get("kind") == "map":
        fwd = {G.element(x): G.element(y) for x, y in spec["images"]}
        back = {y: x for x, y in fwd.items()}
        return Aut(fwd.__getitem__, back.__getitem__)
    raise ValueError(f"unreadable automorphism {spec!r}")


def grading_from_json(G: GroupLaw, pair) -> Tuple[Aut, Aut]:
    return aut_from_json(G, pair[0]), aut_from_json(G, pair[1])


def same_grading(G: GroupLaw, a: Tuple[Aut, Aut], b: Tuple[Aut, Aut]) -> bool:
    return all(a[i](x) == b[i](x) for i in (0, 1) for x in G.elements)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def product(G: GroupLaw, grading: Tuple[Aut, Aut], x: Label, y: Label
            ) -> Value:
    alpha, beta = grading
    (p, g), (q, h) = x, y
    if p != G.mul(G.mul(beta(g), q), G.inv(alpha(g))):
        return {}
    return {(p, G.mul(g, h)): Fraction(1)}


def coproduct(G: GroupLaw, left: Tuple[Aut, Aut], right: Tuple[Aut, Aut],
              t: Label, cover: Label) -> Value:
    gamma, delta = right
    gamma_p = gamma.then(left[1]).then(gamma.inverse())
    (p, h), (m, l) = t, cover
    hp = gamma_p(h)
    z = G.mul(G.mul(delta(hp), m), G.inv(gamma(hp)))
    return {(G.mul(G.inv(z), p), gamma(h), z, G.mul(hp, l)): Fraction(1)}


def unit(G: GroupLaw) -> Value:
    """The unit of every component of a finite group pairing: the sum of
    all point masses tensored with the group identity."""
    return {(p, G.e): Fraction(1) for p in G.elements}


# ---------------------------------------------------------------------------
# Reading program output
# ---------------------------------------------------------------------------

def rows_to_value(G: GroupLaw, rows: Iterable[List]) -> Value:
    """``[[label..., "coeff"], ...]`` as a dict; repeated labels are a
    problem the caller sees as a mismatch."""
    out: Value = {}
    for row in rows:
        lab = tuple(G.element(x) for x in row[:-1])
        if lab in out:
            out[lab] = Fraction(0)      # never equal to a closed form term
            continue
        out[lab] = Fraction(row[-1])
    return out


def _compare(what: str, got: Value, want: Value) -> List[str]:
    if got == want:
        return []
    return [f"{what}: got {sorted(got.items())!r}, want "
            f"{sorted(want.items())!r}"]


def check_eval_product(G, grading, x, y, rows) -> List[str]:
    return _compare(f"dcp-mul {x}*{y}", rows_to_value(G, rows),
                    product(G, grading, x, y))


def check_eval_coproduct(G, left, right, t, cover, rows) -> List[str]:
    return _compare(f"comul-covered {t} cover {cover}",
                    rows_to_value(G, rows), coproduct(G, left, right, t, cover))


# ---------------------------------------------------------------------------
# Export: closed forms on every entry, associativity and a two-sided unit
# ---------------------------------------------------------------------------

def _mul_values(table: Dict, u: Value, v: Value) -> Value:
    out: Value = {}
    for x, cx in u.items():
        for y, cy in v.items():
            for z, cz in table.get((x, y), {}).items():
                acc = out.get(z, 0) + cx * cy * cz
                if acc:
                    out[z] = acc
                else:
                    out.pop(z, None)
    return out


def check_algebra(G: GroupLaw, table: Dict) -> List[str]:
    """The product table ``{(x, y): value}`` of one finite component is
    associative, and the sum of all point masses at the identity is its
    two-sided unit."""
    basis = [(p, h) for p in G.elements for h in G.elements]
    for x in basis:
        for y in basis:
            xy = table.get((x, y), {})
            for z in basis:
                lhs = _mul_values(table, xy, {z: Fraction(1)})
                rhs = _mul_values(table, {x: Fraction(1)},
                                  table.get((y, z), {}))
                if lhs != rhs:
                    return [f"not associative at {x}, {y}, {z}"]
    one = unit(G)
    for x in basis:
        xv = {x: Fraction(1)}
        if _mul_values(table, one, xv) != xv or \
                _mul_values(table, xv, one) != xv:
            return [f"no two-sided unit: fails at {x}"]
    return []


def check_component(G: GroupLaw, grading, entries: List[List]) -> List[str]:
    """Every product entry of an exported component equals the closed
    form, and the component is an associative unital algebra."""
    basis = [(p, h) for p in G.elements for h in G.elements]
    table: Dict = {}
    problems: List[str] = []
    for x_j, y_j, z_j, c in entries:
        x, y, z = (tuple(G.element(a) for a in lab) for lab in (x_j, y_j, z_j))
        term = table.setdefault((x, y), {})
        if z in term:
            problems.append(f"repeated product entry {x}*{y} -> {z}")
        term[z] = Fraction(c)
    for x in basis:
        for y in basis:
            problems += _compare(f"product {x}*{y}", table.get((x, y), {}),
                                 product(G, grading, x, y))
    return problems[:5] + check_algebra(G, table)


def check_export(G: GroupLaw, gradings_spec: List, export: Dict) -> List[str]:
    """The whole export of a finite group pairing session."""
    want = [grading_from_json(G, g) for g in gradings_spec]
    comps = export.get("components", [])
    splits = export.get("splits", [])
    problems: List[str] = []
    if len(comps) != len(want) or len(splits) != len(want) ** 2:
        return [f"export has {len(comps)} components and {len(splits)} "
                f"splits for {len(want)} gradings"]
    for comp, g in zip(comps, want):
        if not same_grading(G, grading_from_json(G, comp["grading"]), g):
            problems.append(f"component grading {comp['grading']!r}")
            continue
        problems += check_component(G, g, comp["mul"])
    basis = [(p, h) for p in G.elements for h in G.elements]
    pairs = [(p, q) for p in want for q in want]
    for split, (p, q) in zip(splits, pairs):
        if not (same_grading(G, grading_from_json(G, split["left"]), p)
                and same_grading(G, grading_from_json(G, split["right"]), q)
                and split.get("side") == "right"):
            problems.append("split gradings out of order")
            continue
        seen = set()
        for x_j, c_j, rows in split["images"]:
            x = tuple(G.element(a) for a in x_j)
            cover = tuple(G.element(a) for a in c_j)
            seen.add((x, cover))
            problems += _compare(f"coproduct {x} cover {cover}",
                                 rows_to_value(G, rows),
                                 coproduct(G, p, q, x, cover))
        if seen != {(x, c) for x in basis for c in basis}:
            problems.append("split does not list every basis pair once")
    return problems[:10]


# ---------------------------------------------------------------------------
# Verify reports
# ---------------------------------------------------------------------------

def check_report(report: Dict, suites: List[str]) -> List[str]:
    """A passing report over exactly the requested suites, in which every
    axiom evaluated at least one case."""
    problems: List[str] = []
    if report.get("status") != "pass":
        problems.append(f"report status {report.get('status')!r}")
    names = [s.get("name") for s in report.get("suites", [])]
    if names != list(suites):
        problems.append(f"report suites {names}, asked for {suites}")
    for suite in report.get("suites", []):
        if not suite.get("axioms"):
            problems.append(f"suite {suite.get('name')} has no axioms")
        for ax in suite.get("axioms", []):
            if ax.get("status") != "pass" or not ax.get("cases", 0) >= 1:
                problems.append(f"{ax.get('axiom')}: status "
                                f"{ax.get('status')!r}, cases "
                                f"{ax.get('cases')!r}")
    return problems


def check_planted(report: Dict) -> List[str]:
    """A report on a corrupted session must fail with a counterexample."""
    if report.get("status") != "fail":
        return ["planted defect not caught: report status "
                f"{report.get('status')!r}"]
    caught = [ax for s in report.get("suites", []) for ax in s["axioms"]
              if ax.get("status") == "fail"
              and isinstance(ax.get("counterexample"), dict)
              and ax["counterexample"]]
    if not caught:
        return ["planted defect: no failing axiom has a counterexample"]
    return []


def check_identical(digests: Iterable[str]) -> List[str]:
    """All outputs of one seed are byte-identical."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"outputs of one seed differ: {distinct}"]
    return []
