"""Group backends, group automorphisms, and the indexing group of
automorphism pairs.

Three element backends are provided:

* :class:`TableGroup` — finite groups by multiplication table (validated);
* :class:`PermGroup` — finite permutation groups closed from generators,
  whose elements are ``int`` indices in sorted image order (the JSON form
  of an element is still its image list);
* :class:`IntGroup` — the additive integers (the one infinite backend).

Element labels are what every table of the engine is keyed by, so a
permutation group keeps them flat: an index hashes as itself, where an
image tuple is hashed afresh on every read.  Diagnostics name an element
by :func:`json_text` of its JSON form, whatever it is in memory.

An :class:`Automorphism` is stored extensionally (image map) for finite
groups and as a sign for the integers.  Each group interns its
automorphisms: however one is built (decoded, composed, inverted or
constructed directly), the same map of the same group is the same object.
So equality and hashing are by identity, and a table keyed by gradings
compares and hashes them without a Python call.  Automorphisms of two
group objects are never equal, even when the groups are.
:class:`AutPair` carries two commuting-datum automorphisms ``(alpha, beta)``;
the pair set forms a group under

    ``(alpha, beta) * (gamma, delta) = (alpha gamma, delta gamma^-1 beta gamma)``

with inverse ``(alpha^-1, alpha beta^-1 alpha^-1)``; composition is
right-to-left throughout (``(f g)(x) = f(g(x))``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .linear import BasisTable
from .scalars import json_int


class GroupError(ValueError):
    """Raised for malformed group data (with a named diagnostic)."""


class Group:
    """Common interface: hashable element labels with exact operations."""

    is_finite: bool

    def __init__(self):
        # The automorphisms of this group built so far, by their key (see
        # Automorphism).  It only grows, and it is bounded: a finite group
        # has finitely many automorphisms and the integers have two; a group
        # with infinitely many would hold only those a session builds.
        self._auts: Dict = {}

    def op(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def elements(self) -> List:
        """All elements (finite backends only)."""
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def ball(self, window: Optional[int]) -> List:
        """The elements a run enumerates: every element of a finite group.
        An infinite backend keeps those within ``window`` of the identity,
        and refuses ``None``, which asks for all of them."""
        return self.elements()

    def conj(self, g, x):
        """g x g^-1."""
        return self.op(self.op(g, x), self.inv(g))

    # -- JSON element codec -------------------------------------------------
    def parse_element(self, data):
        raise NotImplementedError

    def element_to_json(self, x):
        raise NotImplementedError


class TableGroup(Group):
    """A finite group given by its full multiplication table.

    The table is validated on construction: totality, identity, inverses and
    associativity (cubic in the order, fine for the sizes used here).
    """

    is_finite = True

    def __init__(self, labels: Sequence, table: Dict[Tuple, object], identity):
        super().__init__()
        self._labels = list(labels)
        if len(set(self._labels)) != len(self._labels):
            raise GroupError("duplicate-labels: group labels must be distinct")
        self._set = set(self._labels)
        self._table = dict(table)
        self._identity = identity
        self._validate()
        self._inv = {}
        e = self._identity
        for x in self._labels:
            for y in self._labels:
                if self._table[(x, y)] == e:
                    self._inv[x] = y
                    break

    def _validate(self):
        labs = self._labels
        if self._identity not in self._set:
            raise GroupError("identity-missing: identity label not in element list")
        for x in labs:
            for y in labs:
                z = self._table.get((x, y))
                if z is None:
                    raise GroupError(f"table-incomplete: no product for ({x!r}, {y!r})")
                if z not in self._set:
                    raise GroupError(f"table-escapes: ({x!r}, {y!r}) -> {z!r} not an element")
        e = self._identity
        for x in labs:
            if self._table[(e, x)] != x or self._table[(x, e)] != x:
                raise GroupError(f"identity-fails: {e!r} is not neutral at {x!r}")
        for x in labs:
            if not any(self._table[(x, y)] == e for y in labs):
                raise GroupError(f"inverse-missing: {x!r} has no right inverse")
        for x in labs:
            for y in labs:
                xy = self._table[(x, y)]
                for z in labs:
                    if self._table[(xy, z)] != self._table[(x, self._table[(y, z)])]:
                        raise GroupError(
                            f"associativity-fails: at ({x!r}, {y!r}, {z!r})"
                        )

    def op(self, x, y):
        return self._table[(x, y)]

    def inv(self, x):
        return self._inv[x]

    @property
    def identity(self):
        return self._identity

    def elements(self):
        return list(self._labels)

    def contains(self, x):
        return x in self._set

    def parse_element(self, data):
        if isinstance(data, list):
            data = tuple(data)
        if _holds_bool_or_float(data) or data not in self._set:
            raise GroupError(f"element-unknown: {data!r}")
        return data

    def element_to_json(self, x):
        return list(x) if isinstance(x, tuple) else x

    @staticmethod
    def cyclic(n: int) -> "TableGroup":
        if n < 1:
            raise GroupError(f"cyclic-order: need n >= 1, got {n}")
        labels = list(range(n))
        table = {(a, b): (a + b) % n for a in labels for b in labels}
        return TableGroup(labels, table, 0)

    def __repr__(self):
        return f"TableGroup(order={len(self._labels)})"


class PermGroup(Group):
    """A permutation group on ``{0, ..., n-1}``.

    Each element is an ``int`` index: the position of its image tuple in
    sorted order, so the identity is 0 and index order is image order.
    Image lists appear only at the JSON boundary: :meth:`parse_element`
    takes one and :meth:`element_to_json` gives one back, so the JSON a
    session reads and writes is the same as with image tuples.  Every
    table keyed by elements then hashes flat ints.

    The element set is the BFS closure of the generators (bounded at 20000
    elements to catch runaway input).  Inverses are read from a list filled
    with the closure; products from a table filled on first use, since a
    full Cayley table of 20000 elements would hold 4 * 10**8 entries.
    """

    is_finite = True
    identity = 0
    _CLOSURE_BOUND = 20000

    def __init__(self, n: int, generators: Iterable[Tuple[int, ...]]):
        super().__init__()
        self.n = n
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(n)):
                raise GroupError(f"not-a-permutation: {g!r} on {n} points")
            gens.append(g)
        ident = tuple(range(n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = tuple(g[x[i]] for i in range(n))  # g after x
                    if y not in seen:
                        if len(seen) >= self._CLOSURE_BOUND:
                            raise GroupError(
                                "closure-overflow: generated group exceeds "
                                f"{self._CLOSURE_BOUND} elements"
                            )
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        # The image tuple of each index, and the index of each image tuple.
        self._images = sorted(seen)
        self._index = {p: i for i, p in enumerate(self._images)}
        self._inv = []
        for x in self._images:
            out = [0] * n
            for i, xi in enumerate(x):
                out[xi] = i
            self._inv.append(self._index[tuple(out)])
        self._mul = BasisTable(self._product)

    def _product(self, x, y):
        """(x y)(i) = x(y(i)): apply y first."""
        images = self._images
        return self._index[tuple(map(images[x].__getitem__, images[y]))]

    def op(self, x, y):
        return self._mul[x, y]

    def inv(self, x):
        return self._inv[x]

    def elements(self):
        return list(range(len(self._images)))

    def contains(self, x):
        return type(x) is int and 0 <= x < len(self._images)

    def parse_element(self, data):
        # Only a list of exact ints names a permutation: a bare index, a
        # boolean or a float is refused.
        if (isinstance(data, (list, tuple))
                and all(type(v) is int for v in data)):
            x = self._index.get(tuple(data))
            if x is not None:
                return x
        raise GroupError(f"element-unknown: {data!r}")

    def element_to_json(self, x):
        return list(self._images[x])

    @staticmethod
    def symmetric(n: int) -> "PermGroup":
        if n < 1:
            raise GroupError("symmetric-degree: need n >= 1")
        if n == 1:
            return PermGroup(1, [(0,)])
        transposition = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        return PermGroup(n, [transposition, cycle])

    def __repr__(self):
        return f"PermGroup(n={self.n}, order={len(self._images)})"


class IntGroup(Group):
    """The integers under addition."""

    is_finite = False

    def op(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    @property
    def identity(self):
        return 0

    def elements(self):
        raise GroupError("infinite-enumeration: the integer group is infinite")

    def ball(self, window):
        if window is None:
            return self.elements()
        return list(range(-window, window + 1))

    def contains(self, x):
        return isinstance(x, int) and not isinstance(x, bool)

    def parse_element(self, data):
        if not self.contains(data):
            raise GroupError(f"element-unknown: {data!r} is not an integer")
        return data

    def element_to_json(self, x):
        return x

    def __repr__(self):
        return "IntGroup()"


def _validate_finite(group: Group, m: Dict, order: List) -> None:
    if set(m.keys()) != set(order) or set(m.values()) != set(order):
        raise GroupError("automorphism-not-bijective: images must permute the group")
    for x in order:
        for y in order:
            if m[group.op(x, y)] != group.op(m[x], m[y]):
                raise GroupError(
                    "automorphism-not-homomorphic: fails at "
                    f"({json_text(group.element_to_json(x))}, "
                    f"{json_text(group.element_to_json(y))})")


class Automorphism:
    """A group automorphism in extensional normal form.

    Finite backends store the full image map, interned by the tuple of
    images in the group's canonical element order; the integer backend
    stores a sign.
    Constructors validate the homomorphism and bijection properties, then
    return the group's existing automorphism with the same key if there is
    one: so equal automorphisms of one group are one object, and equality
    and hashing are the default identity tests.
    """

    __slots__ = ("group", "_map", "_sign", "_id", "_inv", "_comp")

    def __new__(cls, group: Group, mapping: Optional[Dict] = None,
                sign: int = 1, _validated: bool = False):
        if group.is_finite:
            order = group.elements()
            if mapping is None:
                mapping = {x: x for x in order}
            elif not _validated:
                _validate_finite(group, mapping, order)
            key = tuple(mapping[x] for x in order)
            sign, identity_key = 0, tuple(order)
        else:
            # An image map cannot describe an automorphism of the integers;
            # dropping it would read any map as the identity.
            if mapping is not None:
                raise GroupError(
                    "int-automorphism: an automorphism of the integers is "
                    "'identity' or 'negation', not an image map")
            if sign not in (1, -1):
                raise GroupError("int-automorphism: sign must be +1 or -1")
            key, identity_key = sign, 1
        # Only a validated map reaches the registry.
        self = group._auts.get(key)
        if self is None:
            self = object.__new__(cls)
            self.group = group
            self._map = mapping
            self._sign = sign
            # Decided once: read on every MhaInstance.apply_aut.
            self._id = key == identity_key
            # Derived automorphisms, made once each: the inverse, and
            # compositions keyed by the right factor.
            self._inv: Optional[Automorphism] = None
            self._comp: Dict = {}
            group._auts[key] = self
        return self

    def apply(self, x):
        if self._map is not None:
            return self._map[x]
        return x * self._sign

    __call__ = apply

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.group is not other.group:
            raise GroupError("automorphism-group-mismatch")
        out = self._comp.get(other)
        if out is None:
            if self._map is not None:
                m = {x: self._map[y] for x, y in other._map.items()}
                out = Automorphism(self.group, m, _validated=True)
            else:
                out = Automorphism(self.group, sign=self._sign * other._sign)
            self._comp[other] = out
        return out

    def inverse(self) -> "Automorphism":
        if self._inv is None:
            if self._map is not None:
                self._inv = Automorphism(
                    self.group, {v: k for k, v in self._map.items()},
                    _validated=True)
            else:
                self._inv = Automorphism(self.group, sign=self._sign)
        return self._inv

    def is_identity(self) -> bool:
        return self._id

    def __repr__(self):
        if self._map is None:
            return "Aut(x -> -x)" if self._sign == -1 else "Aut(id)"
        if self.is_identity():
            return "Aut(id)"
        to_json = self.group.element_to_json
        moved = ", ".join(f"{json_text(to_json(k))}: {json_text(to_json(v))}"
                          for k, v in self._map.items() if k != v)
        return f"Aut({{{moved}}})"


def identity_aut(group: Group) -> Automorphism:
    if group.is_finite:
        return Automorphism(group, {x: x for x in group.elements()}, _validated=True)
    return Automorphism(group, sign=1)


def inner_aut(group: Group, g) -> Automorphism:
    """Conjugation x -> g x g^-1."""
    if not group.is_finite:
        return identity_aut(group)  # the integers are abelian
    m = {x: group.conj(g, x) for x in group.elements()}
    return Automorphism(group, m, _validated=True)


def negation_aut(group: Group) -> Automorphism:
    """x -> x^-1, an automorphism exactly when the group is abelian."""
    if not group.is_finite:
        return Automorphism(group, sign=-1)
    m = {x: group.inv(x) for x in group.elements()}
    return Automorphism(group, m)  # validated: fails loudly on nonabelian input


def map_aut(group: Group, images: Dict) -> Automorphism:
    """An automorphism from an explicit image map (validated)."""
    return Automorphism(group, dict(images))


class AutPair(NamedTuple):
    """An ordered pair of automorphisms, the grading datum."""

    alpha: Automorphism
    beta: Automorphism

    def __repr__(self):
        return f"AutPair({self.alpha!r}, {self.beta!r})"


def aut_pair_mul(p: AutPair, q: AutPair) -> AutPair:
    """(alpha, beta) * (gamma, delta) = (alpha gamma, delta gamma^-1 beta gamma)."""
    alpha, beta = p
    gamma, delta = q
    gi = gamma.inverse()
    return AutPair(alpha.compose(gamma),
                   delta.compose(gi).compose(beta).compose(gamma))


def aut_pair_inv(p: AutPair) -> AutPair:
    """(alpha, beta)^-1 = (alpha^-1, alpha beta^-1 alpha^-1)."""
    alpha, beta = p
    ai = alpha.inverse()
    return AutPair(ai, alpha.compose(beta.inverse()).compose(ai))


def aut_pair_identity(group: Group) -> AutPair:
    e = identity_aut(group)
    return AutPair(e, e)


# -- JSON parsing -----------------------------------------------------------

def json_text(data) -> str:
    """The repr of a JSON value with its lists shown as tuples: how a
    diagnostic names an element or a basis label, so a permutation reads
    as its image tuple, not as the index it is stored as."""
    def tuples(v):
        return tuple(map(tuples, v)) if isinstance(v, list) else v
    return repr(tuples(data))


def _holds_bool_or_float(data) -> bool:
    """Whether a JSON element holds a boolean or a float, which a set
    lookup would take for an equal integer (``True == 1 == 1.0``)."""
    if isinstance(data, (list, tuple)):
        return any(_holds_bool_or_float(v) for v in data)
    return isinstance(data, (bool, float))


def group_from_json(spec) -> Group:
    """Build a group backend from a JSON fragment.

    Accepted forms: ``{"kind": "cyclic", "n": 6}``,
    ``{"kind": "symmetric", "n": 3}``,
    ``{"kind": "perm", "degree": 4, "generators": [[1,0,2,3], ...]}``
    (``"n"`` also accepted for the degree),
    ``{"kind": "table", "elements": [...], "mul": [[i,j,k], ...]}``
    (index triples: element i times element j equals element k; a dense
    ``"table"`` of element rows plus ``"identity"`` is also accepted),
    and ``"Z"`` / ``{"kind": "int"}`` for the integers.
    """
    if spec == "Z" or spec == {"kind": "int"} or spec == {"kind": "Z"}:
        return IntGroup()
    if not isinstance(spec, dict):
        raise GroupError(f"group-spec-unreadable: {spec!r}")
    kind = spec.get("kind")
    if kind == "cyclic":
        return TableGroup.cyclic(json_int(spec["n"], "n"))
    if kind == "symmetric":
        return PermGroup.symmetric(json_int(spec["n"], "n"))
    if kind == "perm":
        degree = spec.get("degree", spec.get("n"))
        if degree is None:
            raise GroupError("perm-spec: missing degree")
        return PermGroup(json_int(degree, "degree"),
                         [tuple(json_int(v, "generator entry") for v in g)
                          for g in spec["generators"]])
    if kind == "table":
        if any(_holds_bool_or_float(spec.get(k))
               for k in ("elements", "table", "identity")):
            raise GroupError(
                "table-element: the group table holds a boolean or a float")
        elements = [tuple(e) if isinstance(e, list) else e for e in spec["elements"]]
        n = len(elements)
        table = {}
        if "mul" in spec:
            for row in spec["mul"]:
                if len(row) != 3:
                    raise GroupError(f"table-mul-row: {row!r} needs [i,j,k]")
                i, j, k = (json_int(v, "table-mul index") for v in row)
                if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                    raise GroupError(f"table-mul-row: index out of range in {row!r}")
                if (elements[i], elements[j]) in table:
                    raise GroupError(f"table-mul-row: pair ({i}, {j}) given "
                                     f"twice, again in {row!r}")
                table[(elements[i], elements[j])] = elements[k]
            if len(table) != n * n:
                raise GroupError("table-incomplete: mul triples must cover "
                                 "every ordered pair exactly once")
            ident = None
            for e in elements:
                if all(table[(e, x)] == x and table[(x, e)] == x
                       for x in elements):
                    ident = e
                    break
            if ident is None:
                raise GroupError("table-no-identity: no two-sided identity found")
        else:
            rows = spec["table"]
            if len(rows) != n or any(len(r) != n for r in rows):
                raise GroupError("table-shape: table must be square over the element list")
            for i, x in enumerate(elements):
                for j, y in enumerate(elements):
                    z = rows[i][j]
                    table[(x, y)] = tuple(z) if isinstance(z, list) else z
            ident = spec["identity"]
            ident = tuple(ident) if isinstance(ident, list) else ident
        return TableGroup(elements, table, ident)
    raise GroupError(f"group-kind-unknown: {kind!r}")


def aut_from_json(group: Group, spec) -> Automorphism:
    """Build an automorphism from a JSON fragment.

    Accepted forms: ``"identity"``, ``"negation"``,
    ``{"kind": "inner", "by": <element>}``, and
    ``{"kind": "map", "images": {<elem>: <elem>, ...}}`` (or an image list
    aligned with the group's canonical element order; finite groups only).
    """
    if spec == "identity" or spec is None:
        return identity_aut(group)
    if spec == "negation":
        return negation_aut(group)
    if not isinstance(spec, dict):
        raise GroupError(f"aut-spec-unreadable: {spec!r}")
    kind = spec.get("kind")
    if kind == "identity":
        return identity_aut(group)
    if kind == "negation":
        return negation_aut(group)
    if kind == "inner":
        return inner_aut(group, _aut_element(group, spec["by"]))
    if kind == "map":
        images = spec["images"]
        if isinstance(images, list):
            order = group.elements()
            if len(images) != len(order):
                raise GroupError("aut-images-shape: image list length must equal group order")
            m = {x: _aut_element(group, v) for x, v in zip(order, images)}
        elif isinstance(images, dict):
            m = {_aut_element(group, k_parsed): _aut_element(group, v)
                 for k_parsed, v in _iter_map_items(images)}
        else:
            raise GroupError("aut-images-shape: images must be a list or an "
                             "object")
        return map_aut(group, m)
    raise GroupError(f"aut-kind-unknown: {kind!r}")


def _aut_element(group: Group, data):
    """The element an automorphism spec names.  A value that no element
    lookup can hash, such as a nested list, names no element either."""
    try:
        hash(tuple(data) if isinstance(data, list) else data)
    except TypeError:
        raise GroupError(f"element-unknown: {data!r}") from None
    return group.parse_element(data)


def _iter_map_items(images):
    """JSON object keys are strings; decode them leniently (int or list syntax)."""
    for k, v in images.items():
        try:
            yield json.loads(k), v
        except (ValueError, TypeError):
            yield k, v
