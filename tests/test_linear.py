"""Sparse exact linear combinations: algebra laws and tensors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhag import LinComb, PrimeField, RationalField, label_key
from mhag.linear import add_scaled, add_term, lc_combine
from mhag.scalars import FpElement

labels = st.sampled_from(["x", "y", "z", 0, 1, (0, "x")])
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
lincombs = st.dictionaries(labels, coeffs, max_size=4).map(
    lambda d: LinComb.from_pairs(d.items()))
# tensor legs concatenate tuple labels, so tensor operands use 1-tuples
tensorables = st.dictionaries(
    st.sampled_from([("x",), ("y",), (0,)]), coeffs, max_size=3).map(
    lambda d: LinComb.from_pairs(d.items()))


@given(lincombs, lincombs, lincombs)
def test_module_laws(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    assert a.sub(a).is_zero()
    assert a.add(LinComb.zero()) == a
    assert a.neg().neg() == a


@given(lincombs, lincombs, coeffs)
def test_scaling(a, b, c):
    assert a.add(b).scale(c) == a.scale(c).add(b.scale(c))
    assert a.scale(Fraction(0)).is_zero()
    assert a.scale(Fraction(1)) == a


def test_zero_coefficients_dropped():
    v = LinComb.from_pairs([("x", Fraction(1)), ("x", Fraction(-1)),
                            ("y", Fraction(2))])
    assert v.support() == ["y"]
    assert v.coeff("x") == 0


@given(tensorables, tensorables, tensorables)
def test_tensor_bilinear(a, b, c):
    assert a.add(b).tensor(c) == a.tensor(c).add(b.tensor(c))
    assert c.tensor(a.add(b)) == c.tensor(a).add(c.tensor(b))


def test_tensor_labels_concatenate():
    a = LinComb.unit(("p",), Fraction(2))
    b = LinComb.unit(("q", "r"), Fraction(3))
    t = a.tensor(b)
    assert t.terms == {("p", "q", "r"): Fraction(6)}
    assert t.tensor(a).support() == [("p", "q", "r", "p")]


def test_map_helpers():
    v = LinComb.from_pairs([("x", Fraction(1)), ("y", Fraction(2))])
    doubled = v.map_terms(lambda lab: LinComb.unit(lab, 2))
    assert doubled.coeff("y") == Fraction(4)
    renamed = v.map_labels(lambda lab: lab.upper())
    assert sorted(renamed.support()) == ["X", "Y"]
    assert lc_combine([v, v.neg()]).is_zero()


def test_sorted_items_uses_label_key():
    v = LinComb.from_pairs([(("b", 1), Fraction(1)), (3, Fraction(1)),
                            ("a", Fraction(1))])
    assert [lab for lab, _ in v.sorted_items()] == [3, "a", ("b", 1)]


def test_label_key_total_order():
    ls = [(1, 2), "z", 5, -3, ("a",), ((0,), 1), "a", 0]
    once = sorted(ls, key=label_key)
    assert sorted(list(reversed(ls)), key=label_key) == once
    assert once[:3] == [-3, 0, 5]  # ints first, by value


def _label_key_reference(label):
    """``label_key`` as written before its ``type`` dispatch: the reference
    its keys must equal."""
    if isinstance(label, tuple):
        return (2, len(label), tuple(_label_key_reference(x) for x in label))
    if isinstance(label, int) and not isinstance(label, bool):
        return (0, label)
    return (1, repr(label))


class _TupleLabel(tuple):
    """A tuple subclass, which ``label_key`` orders like a plain tuple."""


class _IntLabel(int):
    """An int subclass, which ``label_key`` orders like a plain int."""


_label_atoms = st.one_of(st.integers(), st.integers().map(_IntLabel),
                         st.booleans(), st.text(max_size=3), st.none())
_nested_labels = st.recursive(
    _label_atoms, lambda kids: st.lists(kids, max_size=3).flatmap(
        lambda xs: st.sampled_from([tuple(xs), _TupleLabel(xs)])),
    max_leaves=12)


@given(st.lists(_nested_labels, max_size=6))
def test_label_key_matches_reference(ls):
    assert [label_key(l) for l in ls] == [_label_key_reference(l) for l in ls]


# (zero coefficients, non-zero coefficients) per scalar type; the F_7
# zeros include the field's shared zero and a residue built from 7.
_ZERO_CASES = {
    "int": ([0, RationalField().zero()], [1, -3]),
    "fraction": ([Fraction(0)], [Fraction(1, 2), Fraction(-5, 3)]),
    "f7": ([PrimeField(7).zero(), FpElement(7, 7), FpElement(0, 7)],
           [PrimeField(7).one(), FpElement(10, 7)]),
}


@pytest.mark.parametrize("kind", sorted(_ZERO_CASES))
def test_unit_and_scale_drop_zero_coefficients(kind):
    zeros, nonzeros = _ZERO_CASES[kind]
    for z in zeros:
        assert LinComb.unit("x", z).terms == {}
        for c in nonzeros:
            assert LinComb.unit("x", c).scale(z).terms == {}
    for c in nonzeros:
        assert LinComb.unit("x", c).terms == {"x": c}
        for d in nonzeros:
            assert LinComb.unit("x", c).scale(d).terms == {"x": d * c}


# Small label sets and coefficients with zeros, so that sums cancel often.
_ACC_LABELS = ["x", "y", 0, (0, "x")]
_ACC_COEFFS = {
    "int": st.integers(-2, 2),
    "fraction": st.fractions(min_value=-1, max_value=1, max_denominator=2),
    "f7": st.integers(0, 13).map(lambda n: FpElement(n, 7)),
}


def _naive_sum(pairs):
    """Per-label sums with the zero sums left out."""
    sums = {}
    for label, c in pairs:
        sums[label] = sums[label] + c if label in sums else c
    return {label: c for label, c in sums.items() if c != 0}


def _no_zero(terms):
    return all(c != 0 for c in terms.values())


@pytest.mark.parametrize("kind", sorted(_ACC_COEFFS))
@given(data=st.data())
def test_accumulators_match_naive_sums(kind, data):
    coeffs = _ACC_COEFFS[kind]
    term_lists = st.lists(st.tuples(st.sampled_from(_ACC_LABELS), coeffs),
                          max_size=8)
    p1 = data.draw(term_lists)
    p2 = data.draw(term_lists)
    if data.draw(st.booleans()):
        p2 += [(label, -c) for label, c in p1]
    scale = data.draw(coeffs)

    out = {}
    for label, c in p1:
        add_term(out, label, c)
    assert out == _naive_sum(p1) and _no_zero(out)
    add_scaled(out, p2, scale)
    assert out == _naive_sum(p1 + [(l, scale * c) for l, c in p2])
    assert _no_zero(out)

    a, b = LinComb.from_pairs(p1), LinComb.from_pairs(p2)
    assert a.terms == _naive_sum(p1) and _no_zero(a.terms)
    total = a.add(b)
    assert total.terms == _naive_sum(p1 + p2) and _no_zero(total.terms)
    combined = lc_combine([a, b, a.neg()])
    assert combined.terms == _naive_sum(p2) and _no_zero(combined.terms)

    images = {label: LinComb(_naive_sum(data.draw(term_lists)))
              for label in _ACC_LABELS}
    mapped = b.map_terms(images.__getitem__)
    assert mapped.terms == _naive_sum(
        [(l2, c * c2) for l, c in b.terms.items()
         for l2, c2 in images[l].terms.items()])
    assert _no_zero(mapped.terms)
