import pytest
from hypothesis import given, settings, strategies as st

from eiskling.exact_arith import CycNumber
from eiskling.characters import (
    DirichletChar,
    SplitPCharPair,
    chi_K,
    gauss_sum,
    kronecker_symbol,
)
from eiskling.errors import ConductorError


def test_kronecker_basics():
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(3, 7) == -1
    assert kronecker_symbol(-4, 5) == 1
    assert kronecker_symbol(-4, 7) == -1
    # at an odd prime it is the Legendre symbol, by Euler's criterion
    for q in (3, 5, 7, 11, 13):
        for a in range(-q, 2 * q):
            euler = pow(a, (q - 1) // 2, q)
            assert kronecker_symbol(a, q) == (1 if euler == 1 else
                                              -1 if euler else 0)


def test_chi_K_split_inert_ramified():
    assert chi_K(1, 5) == 1      # 5 splits in Q(i)
    assert chi_K(1, 7) == -1     # 7 inert in Q(i)
    assert chi_K(1, 2) == 0      # 2 ramifies in Q(i)
    assert chi_K(3, 7) == 1
    assert chi_K(3, 5) == -1
    assert chi_K(3, 3) == 0


def test_character_table_multiplicative():
    chi = DirichletChar.from_exponent(7, 2)
    for a in range(1, 7):
        for b in range(1, 7):
            assert chi(a) * chi(b) == chi(a * b)


def test_conductor_and_primitive_part():
    chi9 = DirichletChar.from_exponent(9, 1)
    assert chi9.conductor() == 9
    chi9_imprim = DirichletChar.from_exponent(9, 3)  # order 2... factors mod 3
    assert chi9_imprim.conductor() == 3
    assert chi9_imprim.primitive_part().modulus == 3
    assert DirichletChar.trivial(15).conductor() == 1


def test_order_and_parity():
    omega = DirichletChar.teichmuller_char(5, 1)
    assert omega.order() == 4
    assert omega.parity() == -1
    assert (omega ** 2).parity() == 1


@pytest.mark.parametrize("p,t,k", [(3, 1, 1), (5, 1, 1), (5, 1, 3),
                                   (7, 1, 2), (5, 2, 1), (7, 2, 3)])
def test_gauss_norm(p, t, k):
    chi = DirichletChar.from_exponent(p ** t, k).primitive_part()
    if chi.conductor() != p ** t:
        pytest.skip("not primitive at this modulus")
    g = gauss_sum(chi)
    assert g * gauss_sum(chi.conj()) == chi(-1) * CycNumber.from_rational(p ** t)


def test_gauss_sum_needs_primitive():
    with pytest.raises(ConductorError):
        gauss_sum(DirichletChar.trivial(5))


def test_split_pair():
    pair = SplitPCharPair(DirichletChar.from_exponent(5, 1),
                          DirichletChar.from_exponent(5, 2),
                          at_p1=CycNumber.root_of_unity(4, 1),
                          at_p2=CycNumber.root_of_unity(4, 3))
    assert pair.conductors_all_p(5)
    assert pair.tau_prime().conductor() == 5
    assert pair.at_p_prime() == CycNumber.one()
    bad = SplitPCharPair(DirichletChar.from_exponent(5, 1),
                         DirichletChar.from_exponent(5, 3))
    assert not bad.conductors_all_p(5)  # product is trivial


@given(st.sampled_from([(5, 1), (5, 2), (7, 1), (7, 3)]))
@settings(max_examples=20, deadline=None)
def test_gauss_sum_twisted_translation(spec):
    p, k = spec
    chi = DirichletChar.from_exponent(p, k)
    # sum_a chi(a) zeta^(ab) = conj(chi)(b) g(chi) for b prime to p
    g = gauss_sum(chi)
    for b in (2, 3):
        acc = CycNumber.zero()
        for a in range(1, p):
            acc = acc + chi(a) * CycNumber.root_of_unity(p, (a * b) % p)
        assert acc == chi.conj()(b) * g
