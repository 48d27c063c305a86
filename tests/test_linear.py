"""Sparse exact linear combinations: algebra laws and tensors."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from mhag import LinComb, label_key
from mhag.linear import lc_combine

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
