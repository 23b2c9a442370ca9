from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiskling import bernoulli_kl
from eiskling.exact_arith import CycNumber, euler_phi
from eiskling.characters import DirichletChar
from eiskling.bernoulli_kl import (
    L_at_nonpositive,
    bernoulli_number,
    gen_bernoulli,
    kl_specialization,
)
from eiskling.padic import PadicElem, congruent_mod
from eiskling.errors import PoleError

from oracles import (bernoulli_akiyama_tanigawa,
                     bernoulli_akiyama_tanigawa_table, bernoulli_poly,
                     gen_bernoulli_by_definition)


def test_bernoulli_against_independent_recurrence():
    for k in range(21):
        assert bernoulli_number(k) == bernoulli_akiyama_tanigawa(k)


def test_bernoulli_table_grows_on_demand(monkeypatch):
    # an empty table, read out of order: down, up by one, to both ends
    monkeypatch.setattr(bernoulli_kl, "_BERNOULLI", [])
    want = bernoulli_akiyama_tanigawa_table(200)
    for k in (150, 7, 151, 0, 1, 200):
        assert bernoulli_number(k) == want[k]
    assert [bernoulli_number(k) for k in range(201)] == want


def test_bernoulli_known_values():
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)


@given(st.integers(min_value=0, max_value=10),
       st.fractions(min_value=-3, max_value=3, max_denominator=7))
@settings(max_examples=50, deadline=None)
def test_bernoulli_poly_difference_equation(k, x):
    # B_k(x+1) - B_k(x) = k x^(k-1)
    if k == 0:
        assert bernoulli_poly(0, x) == 1
    else:
        assert bernoulli_poly(k, x + 1) - bernoulli_poly(k, x) == k * x ** (k - 1)


def test_gen_bernoulli_examples():
    assert gen_bernoulli(DirichletChar.trivial(), 2) == CycNumber.from_rational(
        Fraction(1, 6))
    chi3 = DirichletChar.quadratic(3)
    assert gen_bernoulli(chi3, 1) == CycNumber.from_rational(Fraction(-1, 3))


GEN_BERNOULLI_CHARS = {
    **{"exp:%d:%d" % (m, e): DirichletChar.from_exponent(m, e)
       for m in (3, 5, 7, 9, 11, 13, 25) for e in range(euler_phi(m))},
    **{"quadratic:%d" % q: DirichletChar.quadratic(q) for q in (3, 5, 7)},
    **{"trivial:%d" % m: DirichletChar.trivial(m)
       for m in (3, 5, 7, 9, 11, 13, 25)},
}


@pytest.mark.parametrize("name", sorted(GEN_BERNOULLI_CHARS))
def test_gen_bernoulli_matches_definition(name):
    chi = GEN_BERNOULLI_CHARS[name]
    # imprimitive characters (trivial:m, exp:9:3, exp:25:5, ...) and values
    # at several levels; the same level, numerators and denominator, so the
    # same normal form and the same report bytes
    for k in range(1, 31):
        got = gen_bernoulli(chi, k)
        want = gen_bernoulli_by_definition(chi, k)
        assert (got.level, got.nums, got.den) == (want.level, want.nums,
                                                   want.den)


def test_gen_bernoulli_parity_vanishing():
    chi3 = DirichletChar.quadratic(3)          # odd
    chi5 = DirichletChar.teichmuller_char(5, 2)  # even
    for k in (2, 4, 6):
        assert gen_bernoulli(chi3, k).is_zero()
    for k in (1, 3, 5):
        assert gen_bernoulli(chi5, k).is_zero()


def test_L_values():
    triv = DirichletChar.trivial()
    assert L_at_nonpositive(triv, 2) == CycNumber.from_rational(Fraction(-1, 12))
    assert L_at_nonpositive(triv, 4) == CycNumber.from_rational(Fraction(1, 120))
    chi3 = DirichletChar.quadratic(3)
    assert L_at_nonpositive(chi3, 1) == CycNumber.from_rational(Fraction(1, 3))


def test_kl_example():
    v = kl_specialization(DirichletChar.trivial(), 4, 5, prec=10)
    assert v == PadicElem.from_fraction(Fraction(-31, 30), 5, 10)


def test_kl_pole_rejected():
    with pytest.raises(PoleError):
        kl_specialization(DirichletChar.trivial(), 1, 5)


def test_kl_sigma_depletion():
    triv = DirichletChar.trivial()
    plain = kl_specialization(triv, 4, 5, prec=10)
    depleted = kl_specialization(triv, 4, 5, sigma=(2, 5), prec=10)
    factor = PadicElem.from_fraction(Fraction(1 - 2 ** 3), 5, 10)
    assert depleted == plain * factor


def test_kl_kummer_sample():
    triv = DirichletChar.trivial()
    a = kl_specialization(triv, 2, 5, prec=8)
    b = kl_specialization(triv, 6, 5, prec=8)
    c = kl_specialization(triv, 22, 5, prec=8)
    assert congruent_mod(a, b, 1)
    assert congruent_mod(a, c, 2)  # 22 - 2 = 20 = (p-1)p
