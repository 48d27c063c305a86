"""Multiplier Hopf algebra instances.

An instance packages a (possibly non-unital) associative algebra with basis,
its counit and (bijective) antipode, and — crucially — the four canonical
bijections of tensor square induced by the comultiplication:

    T1(x ⊗ y) = Delta(x)(1 ⊗ y)        T2(x ⊗ y) = (x ⊗ 1)Delta(y)
    T3(x ⊗ y) = Delta(x)(y ⊗ 1)        T4(x ⊗ y) = (1 ⊗ x)Delta(y)

For every instance here these maps (and their inverses) carry basis tensors to
*finite* linear combinations, even when the comultiplication itself lands in a
completed tensor product.  Every higher-level algorithm in the package is
written against the T-maps only, never against a raw comultiplication, which
is what lets the same code run over infinite-dimensional instances.

Provided instances: group algebras, function algebras of groups (finite
support), the double crossed pair built from both (in two mirrored versions),
and generic finite-dimensional instances from structure constants (with full
axiom validation and exact dualisation).

The function algebra and the mirrored double are the function sides of
pairings that match equal labels, so their T-maps and antipode are the
transposes of the group side's: T_i is the inverse of the group side's
T_sigma(i), where sigma swaps 1 and 2, and S is the inverse of the group
side's S.  They read both from the group side's closed forms (see
``_Transposed``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .groups import Automorphism, Group, json_text
from .linear import BasisTable, LinComb, add_scaled, add_term, lc_combine
from .scalars import Field, FpElement, RationalField, field_from_json, json_int


class StructureError(ValueError):
    """Raised for malformed instance data, with a named diagnostic prefix."""


def sdiv(a, b):
    """Exact scalar division across the supported coefficient types."""
    if isinstance(a, FpElement) or isinstance(b, FpElement):
        return a / b
    f = Fraction(a) / Fraction(b)
    return int(f) if f.denominator == 1 else f


def invert_matrix(rows: List[List], field: Field) -> Optional[List[List]]:
    """The exact inverse of a square matrix by Gauss-Jordan elimination, or
    ``None`` when it is singular."""
    n = len(rows)
    aug = [list(r) + [field.one() if i == j else field.zero()
                      for j in range(n)] for i, r in enumerate(rows)]
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [sdiv(v, pv) for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [vr - factor * vp for vr, vp in zip(aug[r], aug[row])]
        row += 1
    return [r[n:] for r in aug]


class MhaInstance:
    """Base class: exact linear wrappers over per-basis structure maps."""

    field: Field
    name: str
    is_unital: bool

    def __init__(self):
        # Basis products keyed (x, y), basis T-map images and their
        # inverses keyed (i, x, y), and basis antipodes keyed (x, inverse).
        # The antipode fill looks ``_antipode_basis`` up when it runs, so a
        # defect planted on the instance after construction is seen.
        self._mc = BasisTable(self._mul_basis)
        self._tc = BasisTable(self._t_basis)
        self._tic = BasisTable(self._t_inv_basis)
        self._sc = BasisTable(
            lambda x, inverse: self._antipode_basis(x, inverse))
        # One-label local units keyed (x,): see local_unit_for.
        self._luc = BasisTable(lambda x: self._local_unit([x]))

    # -- per-basis primitives (subclasses implement) -------------------------
    def _mul_basis(self, x, y) -> LinComb:
        raise NotImplementedError

    def counit_basis(self, x):
        """The counit of one basis label."""
        raise NotImplementedError

    def _antipode_basis(self, x, inverse: bool = False) -> LinComb:
        raise NotImplementedError

    def _t_basis(self, i: int, x, y) -> LinComb:
        raise NotImplementedError

    def _t_inv_basis(self, i: int, x, y) -> LinComb:
        raise NotImplementedError

    def _comul_basis(self, x) -> LinComb:
        raise StructureError(
            f"{self.name}: eager comultiplication unavailable (infinite support); "
            "use the T-maps"
        )

    def _local_unit(self, labels) -> LinComb:
        raise NotImplementedError

    def local_unit_for(self, labels) -> LinComb:
        """An element e with e*x = x*e = x for every x spanned by the list
        ``labels``; the local unit of one label is read from its table."""
        if len(labels) == 1:
            return self._luc[labels[0],]
        return self._local_unit(labels)

    def unit(self) -> LinComb:
        raise StructureError(f"{self.name}: not unital")

    def aut_label(self, phi: Automorphism, label):
        raise StructureError(f"{self.name}: automorphism action unsupported")

    def basis_labels(self, window: Optional[int]) -> List:
        """The basis labels a run enumerates; ``window`` bounds the labels
        of an instance over an infinite group."""
        raise NotImplementedError

    def parse_label(self, data):
        raise NotImplementedError

    def label_to_json(self, label):
        raise NotImplementedError

    def label_text(self, label) -> str:
        """How a diagnostic names one basis label."""
        return repr(label)

    # -- linear wrappers ------------------------------------------------------
    def lc(self, label, coeff=None) -> LinComb:
        return LinComb.unit(label, self.field.one() if coeff is None else coeff)

    def mul_basis(self, lx, ly) -> LinComb:
        """The product of two basis labels, read from the product table."""
        return self._mc[lx, ly]

    def mul(self, x: LinComb, y: LinComb) -> LinComb:
        out: Dict = {}
        mc = self._mc
        for lx, cx in x.terms.items():
            for ly, cy in y.terms.items():
                base = mc[lx, ly].terms
                if base:
                    add_scaled(out, base.items(), cx * cy)
        return LinComb(out)

    def t_map(self, i: int, xy: LinComb) -> LinComb:
        """T_i on a tensor-square value (labels are 2-tuples)."""
        tc = self._tc
        return xy.map_terms(lambda l: tc[i, l[0], l[1]])

    def t_map_inv(self, i: int, xy: LinComb) -> LinComb:
        tic = self._tic
        return xy.map_terms(lambda l: tic[i, l[0], l[1]])

    def t_image(self, i: int, lx, ly) -> LinComb:
        """T_i on the basis tensor lx (x) ly, read from the T-map table."""
        return self._tc[i, lx, ly]

    def t_pair(self, i: int, x: LinComb, y: LinComb) -> LinComb:
        """T_i on x (x) y, read term by term from the T-map table."""
        out: Dict = {}
        tc = self._tc
        for lx, cx in x.terms.items():
            for ly, cy in y.terms.items():
                add_scaled(out, tc[i, lx, ly].terms.items(), cx * cy)
        return LinComb(out)

    def counit(self, x: LinComb):
        total = self.field.zero()
        for label, c in x.terms.items():
            total = total + c * self.counit_basis(label)
        return total

    def antipode_basis(self, lx, inverse: bool = False) -> LinComb:
        """S or S^-1 of one basis label, read from the antipode table."""
        return self._sc[lx, inverse]

    def antipode(self, x: LinComb, inverse: bool = False) -> LinComb:
        sc = self._sc
        return x.map_terms(lambda l: sc[l, inverse])

    def comul_eager(self, x: LinComb) -> LinComb:
        """Full comultiplication as a tensor value — finite instances only."""
        return x.map_terms(self._comul_basis)

    def aut_basis(self, phi: Automorphism, label):
        """The image of one basis label under ``phi``; the identity needs no
        automorphism action, which a structure-constant instance may lack."""
        if phi.is_identity():
            return label
        return self.aut_label(phi, label)

    def apply_aut(self, phi: Automorphism, x: LinComb) -> LinComb:
        if phi.is_identity():
            return x
        if len(x.terms) == 1:
            (label, c), = x.terms.items()
            return LinComb({self.aut_basis(phi, label): c})
        return x.map_labels(lambda l: self.aut_label(phi, l))


# ---------------------------------------------------------------------------
# Group-backed instances
# ---------------------------------------------------------------------------

class _OnGroup(MhaInstance):
    """An instance whose basis labels are the elements of a group; it is
    unital when the group is finite."""

    def __init__(self, group: Group, field: Optional[Field] = None):
        super().__init__()
        self.group = group
        self.field = field or RationalField()
        self.is_unital = group.is_finite

    def aut_label(self, phi, label):
        return phi(label)

    def basis_labels(self, window):
        return self.group.ball(window)

    def parse_label(self, data):
        return self.group.parse_element(data)

    def label_to_json(self, label):
        return self.group.element_to_json(label)

    def label_text(self, label):
        return json_text(self.label_to_json(label))


class _OnPairs(_OnGroup):
    """An instance whose basis labels are pairs of group elements."""

    def aut_label(self, phi, label):
        x, y = label
        return (phi(x), phi(y))

    def basis_labels(self, window):
        ball = self.group.ball(window)
        return [(x, y) for x in ball for y in ball]

    def parse_label(self, data):
        x, y = data
        return (self.group.parse_element(x), self.group.parse_element(y))

    def label_to_json(self, label):
        x, y = label
        return [self.group.element_to_json(x), self.group.element_to_json(y)]


_SIGMA = {1: 2, 2: 1}           # sigma; T3 and T4 keep their index


class _Transposed:
    """The function side A of a pairing that matches equal labels, with its
    T-maps and antipode read from the closed forms of its group side B
    (the class ``_group_side``, whose labels are A's).

    The pairing laws make T_i of A the transpose of T_sigma(i) of B and the
    antipode of A the transpose of that of B (Van Daele 1994).  Equal labels
    pair to 1 and B permutes basis labels, so each transpose is the inverse
    permutation: T_i = B's T_sigma(i)^-1, T_i^-1 = B's T_sigma(i), and
    S^(+-1) = B's S^(-+1).  The closed forms are read from the class, never
    from an instance of B, where a session may plant a defect.  They are
    called with A as ``self``, so B's ``_t_basis``, ``_t_inv_basis`` and
    ``_antipode_basis`` may read only ``self.group``, ``self.field`` and
    ``self.lc``, which A and B share.
    """

    _group_side: type

    def _t_basis(self, i, x, y):
        return self._group_side._t_inv_basis(self, _SIGMA.get(i, i), x, y)

    def _t_inv_basis(self, i, x, y):
        return self._group_side._t_basis(self, _SIGMA.get(i, i), x, y)

    def _antipode_basis(self, x, inverse=False):
        return self._group_side._antipode_basis(self, x, not inverse)


class GroupAlgebra(_OnGroup):
    """The group algebra: basis = group elements, grouplike coproduct."""

    name = "group-algebra"

    def __init__(self, group: Group, field: Optional[Field] = None):
        super().__init__(group, field)
        self.is_unital = True
        self._unit = self.lc(group.identity)

    def _mul_basis(self, x, y):
        return self.lc(self.group.op(x, y))

    def counit_basis(self, x):
        return self.field.one()

    def _antipode_basis(self, x, inverse=False):
        return self.lc(self.group.inv(x))

    def _comul_basis(self, x):
        return self.lc((x, x))

    def _t_basis(self, i, x, y):
        g = self.group
        if i == 1:
            return self.lc((x, g.op(x, y)))
        if i == 2:
            return self.lc((g.op(x, y), y))
        if i == 3:
            return self.lc((g.op(x, y), x))
        if i == 4:
            return self.lc((y, g.op(x, y)))
        raise ValueError(f"t-map index out of range: {i}")

    def _t_inv_basis(self, i, x, y):
        g = self.group
        if i == 1:
            return self.lc((x, g.op(g.inv(x), y)))
        if i == 2:
            return self.lc((g.op(x, g.inv(y)), y))
        if i == 3:
            return self.lc((y, g.op(g.inv(y), x)))
        if i == 4:
            return self.lc((g.op(y, g.inv(x)), x))
        raise ValueError(f"t-map index out of range: {i}")

    def unit(self):
        return self._unit

    def _local_unit(self, labels):
        return self._unit


class FunctionAlgebra(_Transposed, _OnGroup):
    """Finitely supported functions on a group: basis of point masses.

    The product is pointwise (idempotents), the coproduct is dual to the group
    law; for infinite groups the instance is non-unital and the coproduct has
    infinite support — but all four T-maps are label bijections, so everything
    downstream still works exactly.
    """

    name = "function-algebra"
    _group_side = GroupAlgebra

    def _mul_basis(self, x, y):
        if x == y:
            return self.lc(x)
        return LinComb.zero()

    def counit_basis(self, x):
        return self.field.one() if x == self.group.identity else self.field.zero()

    def _comul_basis(self, x):
        if not self.group.is_finite:
            return super()._comul_basis(x)
        g = self.group
        return lc_combine(self.lc((u, g.op(g.inv(u), x))) for u in g.elements())

    def unit(self):
        if not self.is_unital:
            return super().unit()
        return LinComb(dict.fromkeys(self.group.elements(), self.field.one()))

    def _local_unit(self, labels):
        return LinComb(dict.fromkeys(labels, self.field.one()))


class DrinfeldDouble(_OnPairs):
    """The double built on (point mass) x (group element) labels ``(p, h)``.

    Product: (p, h)(q, l) = [p = h q h^-1] (p, h l); the coproduct splits the
    point mass over all factorizations and duplicates the group leg.  The
    antipode is (p, h) -> (h^-1 p^-1 h, h^-1), an involution.
    """

    name = "double"

    def _mul_basis(self, a, b):
        g = self.group
        p, h = a
        q, l = b
        if p == g.conj(h, q):
            return self.lc((p, g.op(h, l)))
        return LinComb.zero()

    def counit_basis(self, a):
        return self.field.one() if a[0] == self.group.identity else self.field.zero()

    def _antipode_basis(self, a, inverse=False):
        g = self.group
        p, h = a
        hi = g.inv(h)
        return self.lc((g.conj(hi, g.inv(p)), hi))

    def _comul_basis(self, a):
        if not self.group.is_finite:
            return super()._comul_basis(a)
        g = self.group
        p, h = a
        return lc_combine(self.lc(((g.op(g.inv(s), p), h), (s, h)))
                          for s in g.elements())

    def _t_basis(self, i, a, b):
        g = self.group
        p, h = a
        q, l = b
        hi = g.inv(h)
        if i == 1:
            return self.lc((
                (g.op(g.conj(h, g.inv(q)), p), h),
                (g.conj(h, q), g.op(h, l)),
            ))
        if i == 2:
            return self.lc((
                (p, g.op(h, l)),
                (g.op(q, g.conj(hi, g.inv(p))), l),
            ))
        if i == 3:
            return self.lc((
                (g.conj(h, q), g.op(h, l)),
                (g.op(p, g.conj(h, g.inv(q))), h),
            ))
        if i == 4:
            return self.lc((
                (g.op(g.conj(hi, g.inv(p)), q), l),
                (p, g.op(h, l)),
            ))
        raise ValueError(f"t-map index out of range: {i}")

    def _t_inv_basis(self, i, a, b):
        g = self.group
        if i == 1:
            m, h = a
            qt, lt = b
            hi = g.inv(h)
            return self.lc(((g.op(qt, m), h), (g.conj(hi, qt), g.op(hi, lt))))
        if i == 2:
            pt, m = a
            st, l = b
            h = g.op(m, g.inv(l))
            hi = g.inv(h)
            return self.lc(((pt, h), (g.op(st, g.conj(hi, pt)), l)))
        if i == 3:
            ut, m = a
            st, h = b
            hi = g.inv(h)
            return self.lc(((g.op(st, ut), h), (g.conj(hi, ut), g.op(hi, m))))
        if i == 4:
            vt, l = a
            p, m = b
            h = g.op(m, g.inv(l))
            hi = g.inv(h)
            return self.lc(((p, h), (g.op(g.conj(hi, p), vt), l)))
        raise ValueError(f"t-map index out of range: {i}")

    def unit(self):
        if not self.is_unital:
            return super().unit()
        e = self.group.identity
        return LinComb(dict.fromkeys(((q, e) for q in self.group.elements()),
                                     self.field.one()))

    def _local_unit(self, labels):
        g = self.group
        e = g.identity
        closure = []
        for p, h in labels:
            closure.append(p)
            closure.append(g.conj(g.inv(h), p))
        return LinComb(dict.fromkeys(((w, e) for w in closure),
                                     self.field.one()))


class DualDrinfeld(_Transposed, _OnPairs):
    """The mirrored double on (group element) x (point mass) labels ``(h, p)``.

    Product: (h, p)(l, q) = [p = q] (l h, p) — note the reversed group product;
    the coproduct conjugates the group leg along the point-mass splitting.
    This instance is in exact duality with :class:`DrinfeldDouble` under the
    label-matching pairing.
    """

    name = "double-dual"
    _group_side = DrinfeldDouble

    def _mul_basis(self, a, b):
        g = self.group
        h, p = a
        l, q = b
        if p == q:
            return self.lc((g.op(l, h), p))
        return LinComb.zero()

    def counit_basis(self, a):
        return self.field.one() if a[1] == self.group.identity else self.field.zero()

    def _comul_basis(self, a):
        if not self.group.is_finite:
            return super()._comul_basis(a)
        g = self.group
        h, p = a
        return lc_combine(
            self.lc(((h, t), (g.conj(g.inv(t), h), g.op(g.inv(t), p))))
            for t in g.elements())

    def unit(self):
        if not self.is_unital:
            return super().unit()
        e = self.group.identity
        return LinComb(dict.fromkeys(((e, p) for p in self.group.elements()),
                                     self.field.one()))

    def _local_unit(self, labels):
        e = self.group.identity
        return LinComb(dict.fromkeys(((e, p) for _, p in labels),
                                     self.field.one()))


# ---------------------------------------------------------------------------
# Generic finite-dimensional instances from structure constants
# ---------------------------------------------------------------------------

# The T-maps of a structure-constant instance and their unital Sweedler
# inverses, one row per (i, inverse): the factor whose coproduct is split
# (0 for x, 1 for y), the leg of that coproduct that is multiplied, the
# power of the antipode applied to that leg (0 for none, 1 for S, -1 for
# S^-1), whether the other factor multiplies from the left, and the slot of
# the product in the image (the other leg is kept in the other slot).
_T_ROWS = {
    (1, False): (0, 1, 0, False, 1),        # x1 (x) x2 y
    (2, False): (1, 0, 0, True, 0),         # x y1 (x) y2
    (3, False): (0, 0, 0, False, 0),        # x1 y (x) x2
    (4, False): (1, 1, 0, True, 1),         # y1 (x) x y2
    (1, True): (0, 1, 1, False, 1),         # x1 (x) S(x2) y
    (2, True): (1, 0, 1, True, 0),          # x S(y1) (x) y2
    (3, True): (1, 0, -1, False, 1),        # y2 (x) S^-1(y1) x
    (4, True): (0, 1, -1, True, 0),         # y S^-1(x2) (x) x1
}


class FiniteDimHopf(MhaInstance):
    """A finite-dimensional instance given by explicit structure constants.

    Labels are ``0..dim-1``.  Construction validates every axiom exhaustively
    (associativity, unit, coassociativity, counit, multiplicativity of the
    coproduct and counit, both antipode identities) and reports failures with
    named diagnostics.  The antipode inverse is computed by exact matrix
    inversion.  ``dual()`` transposes all structure maps.
    """

    def __init__(self, field: Field, mul_table: List[List[LinComb]],
                 comul_table: List[LinComb], counit_vec: List,
                 unit_vec: LinComb, antipode_tab: List[LinComb],
                 name: str = "finite-dim",
                 aut_label_fn: Optional[Callable] = None,
                 basis_names: Optional[List[str]] = None):
        super().__init__()
        self.field = field
        self.dim = len(mul_table)
        self.mul_table = mul_table
        self.comul_table = comul_table
        self.counit_vec = counit_vec
        self.unit_vec = unit_vec
        self.antipode_tab = antipode_tab
        self.is_unital = True
        self.name = name
        self.basis_names = basis_names
        self._name_index = ({nm: i for i, nm in enumerate(basis_names)}
                            if basis_names else None)
        self._aut_label_fn = aut_label_fn
        self._antipode_inv_tab: Optional[List[LinComb]] = None
        self._validate()

    # -- construction ---------------------------------------------------------
    @staticmethod
    def from_json(data, field: Optional[Field] = None) -> "FiniteDimHopf":
        """Decode structure constants from a JSON object.

        Schema: ``{"dim": n, "basis": [names], "unit": [coeff x n],
        "mul": [[i, j, k, coeff], ...], "comul": [[i, j, k, coeff], ...],
        "counit": [coeff x n], "antipode": [[i, j, coeff], ...]}``.

        Entries are sparse: a mul row ``[i, j, k, q]`` contributes
        ``q e_k`` to ``e_i e_j``; a comul row ``[i, j, k, q]`` contributes
        ``q e_j (x) e_k`` to the coproduct of ``e_i``; an antipode row
        ``[i, j, q]`` contributes ``q e_j`` to the antipode of ``e_i``.
        Coefficients are exact rational strings like ``"2"`` or ``"-1/3"``
        (plain integers are also accepted).
        """
        f = field if field is not None else field_from_json(data.get("scalars"))
        try:
            n = json_int(data["dim"], "dim")
            mul_rows = data["mul"]
            comul_rows = data["comul"]
            counit_row = data["counit"]
            unit_row = data["unit"]
            anti_rows = data["antipode"]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"instance-json-missing-field: {exc}") from exc
        basis_names = data.get("basis")
        for what, value in (("mul", mul_rows), ("comul", comul_rows),
                            ("counit", counit_row), ("unit", unit_row),
                            ("antipode", anti_rows),
                            ("basis", [] if basis_names is None
                             else basis_names)):
            if not isinstance(value, list):
                raise StructureError(
                    f"instance-json-shape: {what} must be a list")
        if basis_names is not None:
            basis_names = [str(x) for x in basis_names]
            if len(basis_names) != n:
                raise StructureError(
                    "instance-json-shape: basis names must be sized by dim")
        if len(counit_row) != n or len(unit_row) != n:
            raise StructureError(
                "instance-json-shape: unit/counit vectors must be sized by dim")

        def scalar(v, where):
            try:
                return f.parse(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise StructureError(
                    f"instance-json-shape: {where}: {exc}") from None

        def index(v, what):
            i = json_int(v, f"{what} index")
            if not 0 <= i < n:
                raise StructureError(
                    f"instance-json-index: {what} index {v!r} out of range")
            return i

        def decode(rows, what, fields, inputs):
            """Sum the sparse rows of one structure map, each giving the
            indices ``fields`` then a coefficient, into one term dict per
            input (the first ``inputs`` indices), in row order.  The indices
            left over name the term: one a basis label, two a tensor label."""
            cells: Dict = {}
            for row in rows:
                if not isinstance(row, list) or len(row) != len(fields) + 1:
                    raise StructureError(
                        f"instance-json-shape: {what} row {row!r} needs "
                        f"[{','.join(fields)},coeff]")
                ix = tuple(index(v, what) for v in row[:-1])
                term = ix[inputs:] if len(ix) > inputs + 1 else ix[inputs]
                cell = cells.setdefault(ix[:inputs], {})
                cell[term] = (cell.get(term, f.zero())
                              + scalar(row[-1], f"{what} row {row!r}"))
            return cells

        def table(cells, *key):
            return LinComb.from_pairs(cells.get(key, {}).items())

        mul = decode(mul_rows, "mul", "ijk", 2)
        comul = decode(comul_rows, "comul", "ijk", 1)
        anti = decode(anti_rows, "antipode", "ij", 1)
        mul_table = [[table(mul, i, j) for j in range(n)] for i in range(n)]
        comul_table = [table(comul, i) for i in range(n)]
        antipode_tab = [table(anti, i) for i in range(n)]
        counit_vec = [scalar(c, f"counit entry {i}")
                      for i, c in enumerate(counit_row)]
        unit_vec = LinComb.from_pairs(
            (i, scalar(c, f"unit entry {i}")) for i, c in enumerate(unit_row))
        return FiniteDimHopf(f, mul_table, comul_table, counit_vec, unit_vec,
                             antipode_tab, basis_names=basis_names)

    @staticmethod
    def from_group(group: Group, field: Optional[Field] = None
                   ) -> "FiniteDimHopf":
        """Structure constants of a finite group algebra; ``dual()`` gives
        the function algebra."""
        f = field or RationalField()
        els = group.elements()
        idx = {g: i for i, g in enumerate(els)}
        n = len(els)
        one = f.one()

        def relabel(phi, i):
            return idx[phi(els[i])]

        return FiniteDimHopf(
            f,
            [[LinComb.unit(idx[group.op(x, y)], one) for y in els]
             for x in els],
            [LinComb.unit((i, i), one) for i in range(n)],
            [one] * n,
            LinComb.unit(idx[group.identity], one),
            [LinComb.unit(idx[group.inv(x)], one) for x in els],
            name="finite-dim(group)", aut_label_fn=relabel)

    def dual(self) -> "FiniteDimHopf":
        """The dual instance: all structure maps transposed."""
        n = self.dim
        mul_table = [[
            LinComb.from_pairs(
                (k, self.comul_table[k].coeff((i, j))) for k in range(n))
            for j in range(n)] for i in range(n)]
        comul_table = [
            LinComb.from_pairs(
                ((i, j), self.mul_table[i][j].coeff(k))
                for i in range(n) for j in range(n))
            for k in range(n)]
        counit_vec = [self.unit_vec.coeff(i) for i in range(n)]
        unit_vec = LinComb.from_pairs(
            (i, self.counit_vec[i]) for i in range(n))
        antipode_tab = [
            LinComb.from_pairs((j, self.antipode_tab[j].coeff(i))
                               for j in range(n))
            for i in range(n)]
        # A basis-permuting automorphism keeps the same index action on the
        # transposed structure, so the relabel function carries over.
        return FiniteDimHopf(self.field, mul_table, comul_table, counit_vec,
                             unit_vec, antipode_tab, name=self.name + "-dual",
                             aut_label_fn=self._aut_label_fn,
                             basis_names=self.basis_names)

    # -- validation -------------------------------------------------------------
    def _validate(self):
        n = self.dim
        basis = [self.lc(i) for i in range(n)]
        u = self.unit_vec
        for i in range(n):
            if self.mul(u, basis[i]) != basis[i] or self.mul(basis[i], u) != basis[i]:
                raise StructureError(f"unit-fails: at basis index {i}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mul(self.mul(basis[i], basis[j]), basis[k])
                    rhs = self.mul(basis[i], self.mul(basis[j], basis[k]))
                    if lhs != rhs:
                        raise StructureError(
                            f"associativity-fails: at ({i}, {j}, {k})")
        for k in range(n):
            lhs = self._comul_leg(self.comul_table[k], left=True)
            rhs = self._comul_leg(self.comul_table[k], left=False)
            if lhs != rhs:
                raise StructureError(f"coassociativity-fails: at basis index {k}")
        for k in range(n):
            left = LinComb.from_pairs(
                (j, self.counit_vec[i] * c)
                for (i, j), c in self.comul_table[k].terms.items())
            right = LinComb.from_pairs(
                (i, c * self.counit_vec[j])
                for (i, j), c in self.comul_table[k].terms.items())
            if left != basis[k] or right != basis[k]:
                raise StructureError(f"counit-fails: at basis index {k}")
        # coproduct of the unit and multiplicativity
        unit_cc = self.comul_eager(u)
        if unit_cc != u.map_labels(lambda l: (l,)).tensor(
                u.map_labels(lambda l: (l,))):
            raise StructureError("comul-unit-fails: coproduct of unit is not unit x unit")
        for i in range(n):
            for j in range(n):
                lhs = self.comul_eager(self.mul(basis[i], basis[j]))
                rhs = self._tensor_mul(self.comul_table[i], self.comul_table[j])
                if lhs != rhs:
                    raise StructureError(
                        f"comul-not-multiplicative: at ({i}, {j})")
                el = self.counit(self.mul(basis[i], basis[j]))
                er = self.counit_vec[i] * self.counit_vec[j]
                if el != er:
                    raise StructureError(
                        f"counit-not-multiplicative: at ({i}, {j})")
        for k in range(n):
            conv_l = lc_combine(
                self.mul(self.antipode_tab[i].scale(c), basis[j])
                for (i, j), c in self.comul_table[k].terms.items())
            conv_r = lc_combine(
                self.mul(basis[i].scale(c), self.antipode_tab[j])
                for (i, j), c in self.comul_table[k].terms.items())
            target = u.scale(self.counit_vec[k])
            if conv_l != target or conv_r != target:
                raise StructureError(f"antipode-fails: at basis index {k}")
        # antipode bijectivity (computes the inverse as a side effect)
        self._antipode_inverse_table()

    def _comul_leg(self, cc: LinComb, left: bool) -> LinComb:
        out: Dict = {}
        for (i, j), c in cc.terms.items():
            inner = self.comul_table[i] if left else self.comul_table[j]
            for (s, t), c2 in inner.terms.items():
                add_term(out, (s, t, j) if left else (i, s, t), c * c2)
        return LinComb(out)

    def _tensor_mul(self, xx: LinComb, yy: LinComb) -> LinComb:
        mul_basis = self.mul_basis
        out: Dict = {}
        for (a1, a2), c1 in xx.terms.items():
            for (b1, b2), c2 in yy.terms.items():
                right = mul_basis(a2, b2).terms
                for l1, d1 in mul_basis(a1, b1).terms.items():
                    for l2, d2 in right.items():
                        add_term(out, (l1, l2), c1 * c2 * d1 * d2)
        return LinComb(out)

    def _antipode_inverse_table(self) -> List[LinComb]:
        if self._antipode_inv_tab is not None:
            return self._antipode_inv_tab
        n = self.dim
        # rows: S(e_i) = sum_j M[i][j] e_j; find N with N M = I so that
        # S^-1(e_k) = sum_j N[k][j] e_j  (then S^-1 S = S S^-1 = id).
        inv_rows = invert_matrix(
            [[self.antipode_tab[i].coeff(j) for j in range(n)]
             for i in range(n)], self.field)
        if inv_rows is None:
            raise StructureError("antipode-not-bijective: singular matrix")
        self._antipode_inv_tab = [
            LinComb.from_pairs((j, inv_rows[k][j]) for j in range(n))
            for k in range(n)]
        return self._antipode_inv_tab

    # -- primitives ---------------------------------------------------------------
    def _mul_basis(self, x, y):
        return self.mul_table[x][y]

    def counit_basis(self, x):
        return self.counit_vec[x]

    def _antipode_basis(self, x, inverse=False):
        if inverse:
            return self._antipode_inverse_table()[x]
        return self.antipode_tab[x]

    def _comul_basis(self, x):
        return self.comul_table[x]

    def _t_basis(self, i, x, y):
        return self._t_row(i, False, x, y)

    def _t_inv_basis(self, i, x, y):
        return self._t_row(i, True, x, y)

    def _t_row(self, i, inverse, x, y):
        """T_i or T_i^-1 on the basis tensor x (x) y, read from ``_T_ROWS``.
        The antipode is read from the antipode table, whose fill reads
        ``self._antipode_basis``, where a session may plant a defect."""
        try:
            split, leg, power, other_left, slot = _T_ROWS[i, inverse]
        except KeyError:
            raise ValueError(f"t-map index out of range: {i}") from None
        mul_basis, antipode = self.mul_basis, self.antipode_basis
        factors = (x, y)
        other = factors[1 - split]
        out: Dict = {}
        for legs, c in self.comul_table[factors[split]].terms.items():
            used, kept = legs[leg], legs[1 - leg]
            images = ([(s, c * d) for s, d in
                       antipode(used, power < 0).terms.items()]
                      if power else ((used, c),))
            for s, cs in images:
                prod = (mul_basis(other, s) if other_left
                        else mul_basis(s, other))
                for l, e in prod.terms.items():
                    add_term(out, (kept, l) if slot else (l, kept), cs * e)
        return LinComb(out)

    def unit(self):
        return self.unit_vec

    def _local_unit(self, labels):
        return self.unit_vec

    def aut_label(self, phi, label):
        if self._aut_label_fn is None:
            return super().aut_label(phi, label)
        return self._aut_label_fn(phi, label)

    def basis_labels(self, window):
        return list(range(self.dim))

    def parse_label(self, data):
        if self._name_index is not None and isinstance(data, str):
            try:
                return self._name_index[data]
            except KeyError:
                raise StructureError(f"unknown-basis-name: {data!r}") from None
        i = json_int(data, "label")
        if not 0 <= i < self.dim:
            raise StructureError(f"label-out-of-range: {data!r}")
        return i

    def label_to_json(self, label):
        if self.basis_names is not None:
            return self.basis_names[label]
        return label
