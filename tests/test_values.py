import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiskling.exact_arith import CycNumber, euler_phi
from eiskling.characters import DirichletChar, gauss_sum
from eiskling.interpolation import _compare_cells, padic_cell
from eiskling.values import ExactValue
from eiskling.errors import NonIntegralExponentError

from oracles import FractionExponentValue


def test_rational_content_factored():
    v = ExactValue.from_rational(Fraction(-20, 9))
    assert v.unit == CycNumber.from_rational(-1)
    assert v.exps == {2: Fraction(2), 5: Fraction(1), 3: Fraction(-2)}


def test_product_and_inverse():
    a = ExactValue.from_rational(6)
    b = ExactValue.from_rational(Fraction(1, 4))
    ab = a * b
    assert ab.exps == {2: Fraction(-1), 3: Fraction(1)}
    assert (ab * ab.inverse()) == ExactValue.one()


def test_half_integral_powers():
    v = ExactValue.one().times_prime_power(5, Fraction(1, 2))
    assert v.p_valuation(5) == Fraction(1, 2)
    with pytest.raises(NonIntegralExponentError):
        v.materialize()
    assert (v * v).materialize() == CycNumber.from_rational(5)


def test_gauss_symbol_materialization():
    chi = DirichletChar.from_exponent(5, 1)
    v = ExactValue.one().with_gauss(chi, 2)
    assert v.materialize() == gauss_sum(chi) ** 2
    w = v.with_gauss(chi, -2)
    assert w.materialize() == CycNumber.one()
    assert v.p_valuation(5) == Fraction(1)


def test_gauss_inverse_materialization():
    chi = DirichletChar.from_exponent(7, 2)
    v = ExactValue.one().with_gauss(chi, -1)
    assert v.materialize() * gauss_sum(chi) == CycNumber.one()


def test_p_valuation_with_gauss():
    chi = DirichletChar.from_exponent(25, 1).primitive_part()
    assert chi.conductor() == 25
    v = ExactValue.from_rational(Fraction(2, 5)).with_gauss(chi, 3)
    assert v.p_valuation(5) == Fraction(-1) + Fraction(3 * 2, 2)


def test_one_is_shared():
    v = ExactValue.from_rational(Fraction(-3, 10)).with_gauss(
        DirichletChar.from_exponent(5, 1), 1)
    one = ExactValue.one()
    assert v * one is v and one * v is v
    assert v * ExactValue(CycNumber.one(), {7: 0}) is v
    assert ExactValue.from_rational(1) is one
    assert ExactValue.from_rational(Fraction(1)) is one


def test_zero_absorbs():
    z = ExactValue.zero()
    assert (z * ExactValue.from_rational(7)).is_zero()
    assert z.materialize().is_zero()


def test_equality_is_strict():
    chi = DirichletChar.from_exponent(5, 1)
    a = ExactValue.one().with_gauss(chi, 1)
    b = ExactValue(gauss_sum(chi))
    # same number, different symbolic shape: strict equality distinguishes
    assert a != b
    assert a.materialize() == b.materialize()


def test_to_json_deterministic():
    v = ExactValue.from_rational(Fraction(-3, 10))
    assert v.to_json() == v.to_json()
    assert v.to_json()["exponents"] == {"2": "-1/1", "3": "1/1", "5": "-1/1"}


def test_half_integral_exponent_away_from_p_is_incomparable():
    half = ExactValue.one().times_prime_power(7, Fraction(1, 2))
    three = ExactValue.from_rational(3)
    assert _compare_cells(padic_cell(half, 5), padic_cell(half * three, 5),
                          1, 5, 12, 0) == (
        "INCOMPARABLE", "non-integral exponent 1/2 at prime 7")


# primitive characters of prime-power conductor; their Gauss sums and the
# units below live at levels dividing 60
CHARS = [DirichletChar.from_exponent(5, 1), DirichletChar.from_exponent(5, 2),
         DirichletChar.quadratic(3)]


@st.composite
def cyc_numbers(draw):
    level = draw(st.sampled_from([1, 3, 4, 5]))
    nums = draw(st.lists(st.integers(-4, 4), min_size=euler_phi(level),
                         max_size=euler_phi(level)))
    return CycNumber.from_integers(level, nums, draw(st.integers(1, 6)))


@st.composite
def exact_values(draw):
    exps = draw(st.dictionaries(st.sampled_from([2, 3, 5, 7]),
                                st.integers(-3, 3), max_size=3))
    gauss = {}
    for chi in draw(st.lists(st.sampled_from(CHARS), max_size=2)):
        gauss[chi.key()] = (chi, draw(st.integers(-2, 2)))
    return ExactValue(draw(cyc_numbers()), exps, gauss)


def assert_normal(v):
    """Zero is the level-1 zero with empty dicts; a rational unit is +-1;
    every exponent is an int or a Fraction that is not an integer; no
    exponent or Gauss power is zero."""
    if v.is_zero():
        assert (v.unit.level, v.exps, v.gauss) == (1, {}, {})
    elif v.unit.is_rational():
        assert v.unit in (1, -1)
    assert all(v.exps.values())
    assert all(type(e) is int or (type(e) is Fraction and e.denominator > 1)
               for e in v.exps.values())
    assert all(n for _, n in v.gauss.values())


@given(exact_values(), exact_values(), st.integers(-3, 3),
       st.sampled_from([2, 5, 11]), st.integers(-3, 3),
       st.sampled_from(CHARS), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_operations_materialize_to_cyclotomic_operations(x, y, e, q, k, chi,
                                                         n):
    mx, my = x.materialize(), y.materialize()
    results = [(x * y, mx * my),
               (x.times_prime_power(q, k), mx * Fraction(q) ** k),
               (x.with_gauss(chi, n), mx * gauss_sum(chi) ** n)]
    if not x.is_zero() or e >= 0:
        results.append((x ** e, mx ** e))
    if not x.is_zero():
        results.append((x.inverse(), mx.inverse()))
    for value, expected in results:
        assert_normal(value)
        assert value.materialize() == expected
    assert_normal(x)
    assert x.is_zero() or x * ExactValue(CycNumber.root_of_unity(4)) != x
    g = ExactValue.one().with_gauss(chi, 1)
    assert g != ExactValue(gauss_sum(chi))
    assert g.materialize() == gauss_sum(chi)


def test_zero_power_and_inverse():
    z = ExactValue(CycNumber.zero(4))
    assert_normal(z)
    assert z ** 0 == ExactValue.one()
    assert (z ** 3).is_zero()
    with pytest.raises(ZeroDivisionError):
        z.inverse()


@st.composite
def value_parts(draw):
    """(unit, exps, gauss) with integral and half-integral exponents given
    as ints and as Fractions."""
    exps = draw(st.dictionaries(
        st.sampled_from([2, 3, 5, 7]),
        st.one_of(st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-6, 6), st.sampled_from(
                      [1, 2]))), max_size=3))
    gauss = {}
    for chi in draw(st.lists(st.sampled_from(CHARS), max_size=2)):
        gauss[chi.key()] = (chi, draw(st.integers(-2, 2)))
    return draw(cyc_numbers()), exps, gauss


def materialized(v):
    try:
        return v.materialize()
    except NonIntegralExponentError as exc:
        return str(exc)


@given(value_parts(), value_parts(), st.integers(-2, 2),
       st.sampled_from([2, 5, 11]),
       st.sampled_from([-2, 0, 3, Fraction(1, 2), Fraction(-3, 2)]),
       st.sampled_from(CHARS), st.integers(-2, 2), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_fraction_exponent_reference(px, py, e, q, k, chi,
                                                         n, kk):
    """Values built and multiplied in the normal form print, compare,
    materialize and take valuations as values kept with Fraction exponents
    do, and the congruence check words its details the same for both."""
    x, rx = ExactValue(*px), FractionExponentValue(*px)
    y, ry = ExactValue(*py), FractionExponentValue(*py)
    pairs = [(x, rx), (y, ry), (x * y, rx * ry),
             (x.times_prime_power(q, k), rx.times_prime_power(q, k)),
             (x.with_gauss(chi, n), rx.with_gauss(chi, n))]
    if not x.is_zero() or e >= 0:
        pairs.append((x ** e, rx ** e))
    for v, ref in pairs:
        assert_normal(v)
        assert v.to_json() == ref.to_json()
        assert materialized(v) == materialized(ref)
        for p in (2, 3, 5, 7):
            assert str(v.p_valuation(p)) == str(ref.p_valuation(p))
    for (a, ra), (b, rb) in itertools.combinations(pairs[:4], 2):
        assert (a == b) == (ra == rb)
        assert (_compare_cells(padic_cell(a, 5), padic_cell(b, 5), kk, 5,
                               12, 0)
                == _compare_cells(padic_cell(ra, 5), padic_cell(rb, 5), kk, 5,
                                  12, 0))
