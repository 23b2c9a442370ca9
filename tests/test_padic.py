from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiskling.characters import _units
from eiskling.exact_arith import CycNumber, euler_phi
from eiskling.padic import (
    PadicElem,
    embed_cyclotomic,
    teichmuller,
    valuation_at_least,
)
from eiskling.errors import (
    InsufficientPrecisionError,
    UnsupportedEmbeddingError,
)

from oracles import embed_split_oracle

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=21)


def qp_digits(x):
    """(valuation, unit, absolute precision) of a value in Q_p, the unit
    mod p^(precision - valuation); zero to precision reads (precision, 0,
    precision), as tests/oracles.embed_split_oracle returns."""
    assert x.level == 1
    v, exact = x.valuation_bound()
    unit = x.coeffs[0] // x.p ** (v - x.shift) if exact else 0
    return v, unit, x.prec + x.shift


@given(fracs, fracs, st.sampled_from([5, 7]))
@settings(max_examples=60, deadline=None)
def test_field_ops_match_rationals(x, y, p):
    prec = 12
    a = PadicElem.from_fraction(x, p, prec)
    b = PadicElem.from_fraction(y, p, prec)
    want = PadicElem.from_fraction(x - y, p, prec)
    assert (a - b - want).is_zero()
    assert qp_digits(a - b) == qp_digits(want)


def test_valuation_and_residue():
    a = PadicElem.from_fraction(Fraction(50), 5, 10)
    assert a.valuation_bound() == (2, True)
    b = PadicElem.from_fraction(Fraction(7, 5), 5, 10)
    assert b.valuation_bound() == (-1, True)
    c = PadicElem.from_fraction(13, 5, 6)
    assert c.coeffs[0] % 5 == 3
    assert c.coeffs[0] % 25 == 13


def test_teichmuller_character_values():
    for p in (5, 7, 11):
        for a in range(1, p):
            t = teichmuller(a, p, 10)
            assert pow(t, p - 1, p ** 10) == 1
            assert t % p == a % p


def test_embed_zeta4_in_z5():
    z = CycNumber.root_of_unity(4)
    img = embed_cyclotomic(z, 5, 10)
    assert img.level == 1 and img.shift == 0
    assert pow(img.coeffs[0], 2, 5 ** 10) == 5 ** 10 - 1


def test_embedding_choices_are_conjugate():
    z = CycNumber.root_of_unity(4)
    a = embed_cyclotomic(z, 5, 10, choice=0)
    b = embed_cyclotomic(z, 5, 10, choice=1)
    assert not (a - b).is_zero()
    assert (a.coeffs[0] + b.coeffs[0]) % 5 ** 10 == 0


def test_embed_rational_content():
    x = CycNumber.from_rational(Fraction(7, 3))
    img = embed_cyclotomic(x, 5, 8)
    assert (img - PadicElem.from_fraction(Fraction(7, 3), 5, 8)).is_zero()


def test_embed_ramified_rejected():
    z = CycNumber.root_of_unity(5)
    with pytest.raises(UnsupportedEmbeddingError):
        embed_cyclotomic(z + 1, 5, 8)


def test_embed_unramified_carrier():
    """The carrier image is additive: embed(x) - embed(y) has the valuation
    bound of embed(x - y), here on elements of Q(zeta_7) that agree mod
    5^3 and on ones with a denominator divisible by 5."""
    z = CycNumber.root_of_unity(7)
    img = embed_cyclotomic(z, 5, 8)
    assert img.level == 7
    # written at level 35, zeta_7 descends to level 7 before it is embedded
    assert embed_cyclotomic(z.lift(35), 5, 8).coeffs == img.coeffs
    cases = [(z, z * z), (z + 3, z + 3 + 125 * z ** 4),
             (z * Fraction(1, 5), z ** 3 * Fraction(2, 25)),
             (z ** 2 + Fraction(1, 5), 5 * z + Fraction(26, 5))]
    for x, y in cases:
        got = (embed_cyclotomic(x, 5, 8)
               - embed_cyclotomic(y, 5, 8)).valuation_bound()
        assert got == embed_cyclotomic(x - y, 5, 8).valuation_bound()
    assert embed_cyclotomic(125 * z ** 4, 5, 8).valuation_bound() == (3, True)


def test_congruent_mod_and_precision():
    a = PadicElem.from_fraction(1, 5, 4)
    b = PadicElem.from_fraction(1 + 125, 5, 4)
    assert valuation_at_least(a - b, 3)
    assert not valuation_at_least(a - b, 4)
    with pytest.raises(InsufficientPrecisionError):
        valuation_at_least(a - a, 9)


def test_congruent_mod_mixed_types():
    z = CycNumber.root_of_unity(7)
    u = embed_cyclotomic(z, 5, 8)
    a = PadicElem.from_fraction(0, 5, 8)
    diff = embed_cyclotomic(25 * z, 5, 8)
    assert u.level == diff.level == 7 and a.level == 1
    assert valuation_at_least(diff - a, 2)
    assert not valuation_at_least(diff - a, 3)
    assert not valuation_at_least(u - a, 1)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_split_embedding_matches_per_call_oracle(p):
    """Every level m dividing p - 1, every choice, and the precisions 1, 2,
    12 and 1 again in one process, which a cache of the Teichmuller powers
    keyed without the precision would fail."""
    for m in [m for m in range(1, p) if (p - 1) % m == 0]:
        phi = euler_phi(m)
        xs = [CycNumber.root_of_unity(m, k) for k in range(m)]
        xs.append(CycNumber(m, [Fraction(3 * i + 1, 2 * i + 7) * (-1) ** i
                                for i in range(phi)]))
        xs.append(CycNumber(m, [Fraction(p, 4)] + [Fraction(1, p)] * (phi - 1)))
        # coefficient valuations from -2 up to 13, past every precision
        xs.append(CycNumber(m, [p ** (i + 1) for i in range(phi)]))
        xs.append(CycNumber(m, [Fraction(7, p ** 2)] + [p ** 13] * (phi - 1)))
        xs.append(CycNumber(m, [p ** 13] + [Fraction(-2, 3 * p)] * (phi - 1)))
        for prec in (1, 2, 12, 1):
            for choice in range(len(_units(p - 1))):
                for x in xs:
                    got = embed_cyclotomic(x, p, prec, choice=choice)
                    want = embed_split_oracle(x, p, prec, choice=choice)
                    assert qp_digits(got) == want


@pytest.mark.parametrize("p", [13, 37, 41])
def test_one_choice_is_one_embedding_at_every_level(p):
    """zeta_4 and zeta_(p-1)^((p-1)/4) are one number, so every choice
    embeds them alike, though the units mod 4 and mod p - 1 differ."""
    z4 = CycNumber.root_of_unity(4)
    z = CycNumber.root_of_unity(p - 1, (p - 1) // 4)
    images = set()
    for choice in range(len(_units(p - 1))):
        a = embed_cyclotomic(z4, p, 6, choice=choice)
        b = embed_cyclotomic(z, p, 6, choice=choice)
        assert qp_digits(a) == qp_digits(b)
        images.add(qp_digits(a)[1])
    assert len(images) == 2  # the two square roots of -1


def test_padic_elem_keeps_no_digit_beyond_precision():
    """A value divisible by p^prec is zero to precision: 5^6 at precision 4
    must not survive a difference as the claim valuation 6."""
    x = PadicElem.from_fraction(1 + 2 * 5 ** 4, 5, 4)
    y = PadicElem.from_fraction(1, 5, 4)
    z = PadicElem.from_fraction(-5 ** 6, 5, 4)
    assert z.is_zero()
    total = (x - y) - z
    assert total.is_zero() and total.prec + total.shift == 4
    with pytest.raises(InsufficientPrecisionError):
        valuation_at_least(total, 5)


def test_split_embedding_claims_no_valuation_beyond_precision():
    """w - zeta_12 + 13^7 zeta_12^3 at p = 13 and precision 4, w the
    Teichmuller root: its image is 13^7 w^3 + O(13^4), zero to precision,
    so valuation >= 6 cannot be decided."""
    w = teichmuller(2, 13, 4)
    x = CycNumber(12, [w, -1, 0, 13 ** 7])
    img = embed_cyclotomic(x, 13, 4)
    assert img.is_zero() and img.prec == 4
    with pytest.raises(InsufficientPrecisionError):
        valuation_at_least(img, 6)


@pytest.mark.parametrize("level", [1, 7])
def test_subtraction_keeps_the_smaller_absolute_precision(level):
    """a = 3 + O(5^3) with shift 0 minus b = 2/25 + O(5^6) with shift -2 is
    known to 5^3, in either order: scaling a's three coefficient digits by
    25 to b's shift must not leave it known to 5^1 only."""
    pad = (0,) * (euler_phi(level) - 1)
    a = PadicElem(5, level, (3,) + pad, 3)
    a2 = PadicElem(5, level, (3 + 25,) + pad, 3)
    b = PadicElem(5, level, (2,) + pad, 8, -2)
    for d in (a - b, b - a):
        assert (d.level, d.shift, d.prec + d.shift) == (level, -2, 3)
        assert d.valuation_bound() == (-2, True)
    # (a - b) - (a2 - b) = -25 + O(5^3)
    e = (a - b) - (a2 - b)
    assert valuation_at_least(e, 2) and not valuation_at_least(e, 3)


def test_to_json_forms():
    """A level-1 value and zero carry the absolute precision prec + shift,
    a higher level its coefficient precision; units and coefficients are
    reported mod p^6."""
    assert PadicElem.from_fraction(Fraction(-7, 5), 5, 10).to_json() == {
        "valuation": -1, "unit_mod_p6": 5 ** 6 - 7, "prec": 10}
    assert PadicElem(5, 1, [0], 4, -1).to_json() == {"zero_to_precision": 3}
    assert PadicElem(5, 6, [10, 5 ** 7 + 3], 8, 1).to_json() == {
        "valuation_bound": 1, "level": 6, "shift": 1,
        "coeffs_mod_p6": [10, 3], "prec": 8}
    assert PadicElem(5, 6, [0, 5 ** 4], 4, 2).to_json() == {
        "zero_to_precision": 4}
