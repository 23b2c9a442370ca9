from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiskling.exact_arith import CycNumber, euler_phi
from eiskling.padic import (
    PadicElem,
    UnramElem,
    congruent_mod,
    embed_cyclotomic,
    embedding_units,
    teichmuller,
    valuation_at_least,
)
from eiskling.errors import (
    InsufficientPrecisionError,
    UnsupportedEmbeddingError,
)

from oracles import embed_split_oracle

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=21)


@given(fracs, fracs, st.sampled_from([5, 7]))
@settings(max_examples=60, deadline=None)
def test_field_ops_match_rationals(x, y, p):
    if x.denominator % p == 0 or y.denominator % p == 0:
        return
    prec = 12
    a = PadicElem.from_fraction(x, p, prec)
    b = PadicElem.from_fraction(y, p, prec)
    assert a + b == PadicElem.from_fraction(x + y, p, prec)
    assert a * b == PadicElem.from_fraction(x * y, p, prec)
    assert a - b == PadicElem.from_fraction(x - y, p, prec)
    if y != 0:
        assert (a / b) * b == a


def test_valuation_and_residue():
    a = PadicElem.from_fraction(Fraction(50), 5, 10)
    assert a.valuation() == 2
    b = PadicElem.from_fraction(Fraction(7, 5), 5, 10)
    assert b.valuation() == -1
    c = PadicElem.from_fraction(13, 5, 6)
    assert c.residue(1) == 3
    assert c.residue(2) == 13


def test_teichmuller_character_values():
    for p in (5, 7, 11):
        for a in range(1, p):
            t = teichmuller(a, p, 10)
            assert (t ** (p - 1)).unit % p ** 10 == 1
            assert t.residue(1) == a % p


def test_embed_zeta4_in_z5():
    z = CycNumber.root_of_unity(4)
    img = embed_cyclotomic(z, 5, 10)
    assert isinstance(img, PadicElem)
    sq = img * img
    assert sq == PadicElem.from_fraction(-1, 5, 10)


def test_embedding_choices_are_conjugate():
    z = CycNumber.root_of_unity(4)
    a = embed_cyclotomic(z, 5, 10, choice=0)
    b = embed_cyclotomic(z, 5, 10, choice=1)
    assert a != b
    assert a + b == PadicElem.from_fraction(0, 5, 10)


def test_embed_rational_content():
    x = CycNumber.from_rational(Fraction(7, 3))
    img = embed_cyclotomic(x, 5, 8)
    assert img == PadicElem.from_fraction(Fraction(7, 3), 5, 8)


def test_embed_ramified_rejected():
    z = CycNumber.root_of_unity(5)
    with pytest.raises(UnsupportedEmbeddingError):
        embed_cyclotomic(z + 1, 5, 8)


def test_embed_unramified_carrier():
    z = CycNumber.root_of_unity(7)
    img = embed_cyclotomic(z, 5, 8)
    assert isinstance(img, UnramElem)
    total = UnramElem.from_padic(PadicElem.from_fraction(1, 5, 8), img.level)
    cur = img
    for _ in range(6):
        total = total + cur
        cur = cur * img
    v, exact = total.valuation_bound()
    assert not exact or v >= 8  # 1 + z + ... + z^6 = 0


def test_congruent_mod_and_precision():
    a = PadicElem.from_fraction(1, 5, 4)
    b = PadicElem.from_fraction(1 + 125, 5, 4)
    assert congruent_mod(a, b, 3)
    assert not congruent_mod(a, b, 4)
    with pytest.raises(InsufficientPrecisionError):
        congruent_mod(a, a, 9)


def test_congruent_mod_mixed_types():
    z = CycNumber.root_of_unity(7)
    u = embed_cyclotomic(z, 5, 8)
    a = PadicElem.from_fraction(0, 5, 8)
    diff = u * PadicElem.from_fraction(25, 5, 8)
    assert congruent_mod(diff, a, 2)


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
            for choice in range(len(embedding_units(m))):
                for x in xs:
                    got = embed_cyclotomic(x, p, prec, choice=choice)
                    want = embed_split_oracle(x, p, prec, choice=choice)
                    assert (got.val, got.unit, got.prec) == (
                        want.val, want.unit, want.prec)


def test_padic_elem_keeps_no_digit_beyond_precision():
    """A value divisible by p^prec is zero to precision: 5^6 at precision 4
    must not survive a sum as the claim valuation 6."""
    x = PadicElem.from_fraction(1 + 2 * 5 ** 4, 5, 4)
    y = PadicElem.from_fraction(-1, 5, 4)
    z = PadicElem.from_fraction(5 ** 6, 5, 4)
    assert z.is_zero()
    total = (x + y) + z
    assert total.is_zero() and total.prec == 4
    with pytest.raises(InsufficientPrecisionError):
        valuation_at_least(total, 5)


def test_split_embedding_claims_no_valuation_beyond_precision():
    """w - zeta_12 + 13^7 zeta_12^3 at p = 13 and precision 4, w the
    Teichmuller root: its image is 13^7 w^3 + O(13^4), zero to precision,
    so valuation >= 6 cannot be decided."""
    w = teichmuller(2, 13, 4).unit
    x = CycNumber(12, [w, -1, 0, 13 ** 7])
    img = embed_cyclotomic(x, 13, 4)
    assert img.is_zero() and img.prec == 4
    with pytest.raises(InsufficientPrecisionError):
        valuation_at_least(img, 6)
