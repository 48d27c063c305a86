"""Exact scalar backends: rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhag import (SUITE_NAMES, PrimeField, RationalField, field_from_json,
                  run_verify)
from mhag.scalars import FpElement

from conftest import make_session

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=97)


class TestRationalField:
    F = RationalField()

    def test_constants(self):
        assert self.F.one() == Fraction(1)
        assert self.F.zero() == Fraction(0)
        assert not self.F.zero()
        assert self.F.one()

    @given(rationals)
    def test_to_str_parse_roundtrip(self, x):
        assert self.F.parse(self.F.to_str(x)) == x

    def test_parse_forms(self):
        assert self.F.parse("3/4") == Fraction(3, 4)
        assert self.F.parse("-2") == Fraction(-2)
        assert self.F.parse(5) == Fraction(5)

    def test_parse_rejects_floats(self):
        with pytest.raises(ValueError):
            self.F.parse(0.5)


class TestPrimeField:
    F = PrimeField(7)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_field_laws(self, a, b, c):
        F = self.F
        x, y, z = F.from_int(a), F.from_int(b), F.from_int(c)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * F.one() == x
        assert x + F.zero() == x
        assert x - x == F.zero()

    @given(st.integers(1, 6))
    def test_inverse(self, a):
        x = self.F.from_int(a)
        assert x * x.inverse() == self.F.one()
        assert (self.F.one() / x) * x == self.F.one()

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            self.F.zero().inverse()

    def test_parse_to_str_roundtrip(self):
        for n in range(7):
            x = self.F.from_int(n)
            assert self.F.parse(self.F.to_str(x)) == x

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_int_equality_agrees_with_hash(self, a, n):
        x = self.F.from_int(a)
        assert (x == n) == (0 <= n < 7 and n == x.value)
        if x == n:
            assert hash(x) == hash(n)
        assert ({x: "v"}.get(n) is not None) == (x == n)

    def test_only_the_normalised_residue_is_equal(self):
        assert FpElement(1, 5) == 1 and not FpElement(1, 5) == 6
        assert FpElement(4, 5) != -1 and FpElement(0, 5) == 0
        assert {FpElement(1, 5): "x"}.get(6) is None

    def test_cross_modulus_mix_rejected(self):
        with pytest.raises(ValueError):
            FpElement(1, 7) + FpElement(1, 5)
        with pytest.raises(ValueError, match="mixed prime fields"):
            FpElement(1, 7) * FpElement(3, 11)

    def test_a_factor_one_returns_the_other_operand(self):
        one, x = self.F.one(), self.F.from_int(3)
        assert one * x is x and x * one is x and 1 * x is x
        assert x * 1 is x and FpElement(1, 7) * x is x
        assert True * x == x and x * True == x
        assert (x * x).value == 2 and (2 * x).value == 6

    def test_one_and_zero_are_shared(self):
        assert self.F.one() is self.F.one()
        assert self.F.zero() is self.F.zero()
        G = PrimeField(7)
        assert G == self.F and hash(G) == hash(self.F)
        assert G.one() == self.F.one() and G.zero() == self.F.zero()

    def test_shared_constants_survive_a_verify_run(self):
        # The F_10007 Drinfeld double session of test_golden.py, all suites.
        S = make_session({"scalars": {"prime": 10007},
                          "instance": {"kind": "drinfeld-double",
                                       "group": {"kind": "symmetric", "n": 3}},
                          "gradings": [["identity", "identity"]],
                          "enum": {"mode": "sampled", "count": 8, "seed": 5}})
        run_verify(S, list(SUITE_NAMES))
        F = S.field
        assert (F.one().value, F.one().p) == (1, 10007)
        assert (F.zero().value, F.zero().p) == (0, 10007)


def test_field_from_json():
    assert isinstance(field_from_json("rational"), RationalField)
    F = field_from_json({"prime": 5})
    assert isinstance(F, PrimeField)
    assert F.from_int(7) == F.from_int(2)
    assert isinstance(field_from_json("F7"), PrimeField)
    with pytest.raises(ValueError):
        field_from_json("real")
