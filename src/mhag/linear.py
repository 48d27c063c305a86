"""Finite linear combinations of basis labels, with exact coefficients.

Every algebra element in this package is a :class:`LinComb`: a dictionary from
hashable basis labels to nonzero exact scalars.  Tensors are linear
combinations over tuple labels.  Zero coefficients are dropped eagerly, so
equality of values is plain dictionary equality.  :class:`BasisTable` is
the one memo of every map fixed by its values on basis keys.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Tuple


def label_key(label):
    """A total order on heterogeneous basis labels, for deterministic output.

    Integers sort first (by value), then everything non-tuple by its repr,
    then tuples recursively componentwise (shorter first).  Deterministic
    reports, exports and counterexample selection all sort by this key.
    """
    # Exact ``int`` labels, the most common, skip the ``isinstance`` tests.
    if type(label) is int:
        return (0, label)
    if isinstance(label, tuple):
        return (2, len(label), tuple(map(label_key, label)))
    if isinstance(label, int) and not isinstance(label, bool):
        return (0, label)
    return (1, repr(label))


# Entries a :class:`BasisTable` may hold.  A full table stops growing and
# later misses are computed afresh.  The cap holds every basis product of a
# finite S3 session with all 36 inner gradings (36 * 36**2 = 46 656), and
# bounds every table over infinite carriers and every product table of a
# large permutation group.  It bounds the pairing's tables of W on a basis
# tensor (``_wl``, read on finite group and structure-constant pairings)
# and of split legs (``_bsp``, read whenever B is unital, Z included) too.
MEMO_CAP = 1 << 16


class BasisTable(dict):
    """A memo of a map fixed by its values on basis keys: a miss computes
    ``fill(*key)`` and keeps it while the table holds fewer than
    ``MEMO_CAP`` entries.  A hit is a plain dict read.

    Every basis table is one: the product, T-map, antipode and local-unit
    tables of an instance, the twist, product and action tables of a
    pairing, its tables of W applied to one basis tensor (``_wl``) and of
    the legs of one covered B-split (``_bsp``), its grading tables (the
    grading product, the inverse and derived automorphisms of a grading,
    the second-leg automorphism of a split, the crossing action and the
    second intertwiner law's automorphisms), the covered-coproduct tables
    of the ``hopf`` suite, and the product table of a permutation group.
    It lives here, below :mod:`mhag.groups`, so that a group can keep one
    too."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self.fill(*key)
        if len(self) < MEMO_CAP:
            self[key] = value
        return value


class LinComb:
    """An immutable-by-convention finite linear combination of labels."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict = None):
        self.terms = terms if terms is not None else {}

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero() -> "LinComb":
        return LinComb({})

    @staticmethod
    def unit(label, coeff=1) -> "LinComb":
        if not coeff:
            return LinComb({})
        return LinComb({label: coeff})

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple]) -> "LinComb":
        out: Dict = {}
        for label, c in pairs:
            add_term(out, label, c)
        return LinComb(out)

    # -- inspection --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, label):
        return self.terms.get(label, 0)

    def support(self):
        return list(self.terms.keys())

    def sorted_items(self):
        if len(self.terms) < 2:
            return list(self.terms.items())
        return sorted(self.terms.items(), key=lambda kv: label_key(kv[0]))

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        parts = [f"{c}*{lbl!r}" for lbl, c in self.sorted_items()]
        return "LinComb(" + " + ".join(parts) + ")"

    # -- arithmetic ---------------------------------------------------------
    def add(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for label, c in other.terms.items():
            add_term(out, label, c)
        return LinComb(out)

    __add__ = add

    def neg(self) -> "LinComb":
        return LinComb({label: -c for label, c in self.terms.items()})

    __neg__ = neg

    def sub(self, other: "LinComb") -> "LinComb":
        return self.add(other.neg())

    __sub__ = sub

    def scale(self, c) -> "LinComb":
        if not c:
            return LinComb({})
        return LinComb({label: c * v for label, v in self.terms.items()})

    # -- structure maps -----------------------------------------------------
    def tensor(self, other: "LinComb") -> "LinComb":
        """Tensor product: labels are concatenated into flat tuples.

        Both operands must already use tuple labels of fixed arity (the
        package convention: algebra labels are wrapped into 1-tuples before
        entering tensor space).
        """
        out: Dict = {}
        for l1, c1 in self.terms.items():
            for l2, c2 in other.terms.items():
                out[l1 + l2] = c1 * c2
        return LinComb(out)

    def map_labels(self, f: Callable) -> "LinComb":
        """Apply a label bijection term-by-term (no collisions expected,
        but collisions are still accumulated exactly)."""
        return LinComb.from_pairs((f(label), c) for label, c in self.terms.items())

    def map_terms(self, f: Callable) -> "LinComb":
        """Flat-map each term through ``f(label) -> LinComb``, scaling by the
        term's coefficient and summing exactly."""
        out: Dict = {}
        for label, c in self.terms.items():
            add_scaled(out, f(label).terms.items(), c)
        return LinComb(out)


def lc_combine(parts: Iterable[LinComb]) -> LinComb:
    """Exact sum of many linear combinations."""
    out: Dict = {}
    for part in parts:
        for label, c in part.terms.items():
            add_term(out, label, c)
    return LinComb(out)


# -- term accumulation ----------------------------------------------------------
#
# The only code that adds into a term dict.  A zero coefficient is never
# stored, so a sum that cancels removes its label.  Zero is tested by
# truthiness: every scalar type defines ``__bool__``, and it skips the type
# dispatch of ``FpElement.__eq__``.

def add_term(out: Dict, label, coeff) -> None:
    """Add ``coeff`` at ``label`` in the term dict ``out``."""
    acc = out.get(label)
    if acc is None:
        if coeff:
            out[label] = coeff
    else:
        acc = acc + coeff
        if acc:
            out[label] = acc
        else:
            del out[label]


def add_scaled(out: Dict, items: Iterable[Tuple], scale) -> None:
    """Add ``scale * c`` at each ``label`` of the ``(label, c)`` pairs
    ``items``: a scaled copy of one basis image, in one call."""
    get = out.get
    for label, c in items:
        coeff = scale * c
        acc = get(label)
        if acc is None:
            if coeff:
                out[label] = coeff
        else:
            acc = acc + coeff
            if acc:
                out[label] = acc
            else:
                del out[label]
