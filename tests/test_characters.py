from math import lcm

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

from oracles import ValueTableChar


def test_kronecker_basics():
    """The fixed rows, and chi_K against Dedekind-Kummer: O_K = Z[w] with
    w = (1 + sqrt(-D))/2 (minimal polynomial x^2 - x + (1 + D)/4) when
    -D = 1 mod 4 and w = sqrt(-D) (x^2 + D) otherwise, so q splits, ramifies
    or stays inert as that polynomial has 2, 1 or 0 roots mod q, and chi_K
    is the root count minus 1, for every prime q, 2 included."""
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(3, 7) == -1
    assert kronecker_symbol(-4, 5) == 1
    assert kronecker_symbol(-4, 7) == -1
    # at 2, the residues 3 and 7 mod 8 that no discriminant reaches
    assert [kronecker_symbol(a, 2) for a in (3, 7, -1, -5)] == [-1, 1, 1, -1]
    primes = [q for q in range(2, 51) if all(q % d for d in range(2, q))]
    for D in range(1, 41):
        if any(D % (d * d) == 0 for d in range(2, 7)):
            continue
        if (-D) % 4 == 1:
            coeffs = (1, -1, (1 + D) // 4)
        else:
            coeffs = (1, 0, D)
        for q in primes:
            roots = sum(1 for x in range(q)
                        if (coeffs[0] * x * x + coeffs[1] * x + coeffs[2])
                        % q == 0)
            assert chi_K(D, q) == roots - 1, (D, q)


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
    omega = DirichletChar.from_exponent(5, 1)
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


# from_exponent at prime powers up to 125, with characters of odd order
# (values -zeta_L^j at odd level L in products with signs) and of even
# order, the trivial characters of moduli 1, 4, 10 and quadratic ones
REFERENCE_CHARS = (
    [(m, k) for m, ks in [(3, (0, 1)), (5, (0, 1, 2, 3)), (7, (1, 2)),
                          (9, (1, 2, 3)), (11, (1, 2)), (13, (1, 4, 6)),
                          (25, (1, 4, 5)), (27, (2, 9)), (49, (6, 7)),
                          (125, (4, 25))]
     for k in ks]
    + [("trivial", m) for m in (1, 4, 10)]
    + [("quadratic", q) for q in (3, 5, 7, 13)])


def _modulus(spec):
    return spec[0] if isinstance(spec[0], int) else spec[1]


def _build(cls, spec):
    kind, arg = spec
    if kind == "trivial":
        return cls.trivial(arg)
    if kind == "quadratic":
        return cls.quadratic(arg)
    return cls.from_exponent(kind, arg)


def _shape(x):
    return (x.level, x.nums, x.den)


def _record(chi):
    """Everything a character reports about itself, values as stored."""
    return (chi.key(), chi.order(), chi.conductor(), chi.parity(),
            chi.is_trivial(), chi.modulus,
            [_shape(chi(a)) for a in range(chi.modulus)])


@pytest.mark.parametrize("spec", REFERENCE_CHARS, ids=str)
def test_exponent_table_matches_value_table(spec):
    """A character, its powers -3..5, conjugate and primitive part, and
    their Gauss sums, against the value-table reference: values compared as
    (level, nums, den), since == would lift both sides to a common level."""
    chi, ref = _build(DirichletChar, spec), _build(ValueTableChar, spec)
    pairs = [(chi, ref), (chi.conj(), ref.conj()),
             (chi.primitive_part(), ref.primitive_part())]
    pairs += [(chi ** k, ref ** k) for k in range(-3, 6)]
    for x, y in pairs:
        assert _record(x) == _record(y)
        assert _record(x.primitive_part()) == _record(y.primitive_part())
        if x.conductor() == x.modulus:
            assert _shape(gauss_sum(x)) == _shape(y.gauss_sum())


# odd and even orders at levels 1 to 25, products at levels up to 100 and
# moduli of one prime and of two
PRODUCT_CHARS = [(3, 1), (5, 1), (5, 2), (7, 2), (9, 3), (13, 4), (25, 4),
                 (25, 5), (125, 4), ("trivial", 1), ("trivial", 4),
                 ("trivial", 10), ("quadratic", 3), ("quadratic", 5),
                 ("quadratic", 7)]


def test_exponent_table_products_match_value_table():
    """Every product of two of PRODUCT_CHARS whose modulus is at most 130,
    both ways round, against the value-table product."""
    for i, s in enumerate(PRODUCT_CHARS):
        for t in PRODUCT_CHARS[i:]:
            if lcm(_modulus(s), _modulus(t)) > 130:
                continue
            x = _build(DirichletChar, s) * _build(DirichletChar, t)
            y = _build(ValueTableChar, s) * _build(ValueTableChar, t)
            assert _record(x) == _record(y), (s, t)
            assert x == _build(DirichletChar, t) * _build(DirichletChar, s)


def test_from_exponent_needs_an_odd_prime_power():
    for cls in (DirichletChar, ValueTableChar):
        with pytest.raises(ValueError):
            cls.from_exponent(4, 1)
