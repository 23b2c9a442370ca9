import random
from fractions import Fraction

import pytest

from eiskling.exact_arith import HermitianMatrix, QuadFieldElem
from eiskling.values import ExactValue
from eiskling.qexp_diff import (
    QExpansion,
    apply_to_expansion,
    multiplier_klingen,
    multiplier_lfun,
)

from oracles import quad_det_laplace


def random_hermitian(rng, n, D=1, span=3):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(rng.randint(-span, span))
        for j in range(i + 1, n):
            a = Fraction(rng.randint(-span, span))
            b = Fraction(rng.randint(-span, span))
            rows[i][j] = QuadFieldElem(a, b, D)
            rows[j][i] = QuadFieldElem(a, -b, D)
    return HermitianMatrix(D, rows)


def direct_minor(beta, rows, cols):
    return quad_det_laplace([[beta.entry(i, j) for j in cols] for i in rows])


def direct_klingen(beta, a):
    acc = QuadFieldElem(Fraction(1), Fraction(0), beta.D)
    padded = tuple(a) + (0,)
    for k in range(1, len(padded)):
        e = padded[k - 1] - padded[k]
        m = direct_minor(beta, range(1, k + 1), range(k))
        acc = acc * m ** e
    return acc


def direct_lfun(beta, a):
    acc = QuadFieldElem(Fraction(1), Fraction(0), beta.D)
    padded = tuple(a) + (0,)
    for k in range(1, len(padded)):
        e = padded[k - 1] - padded[k]
        m = direct_minor(beta, range(k), range(k))
        acc = acc * m ** e
    return acc


def random_weight(rng, r, top=4):
    vals = sorted((rng.randint(0, top) for _ in range(r)), reverse=True)
    return tuple(vals)


def test_multiplier_oracle_500():
    rng = random.Random(20260823)
    for _ in range(500):
        r = rng.randint(1, 3)
        a = random_weight(rng, r)
        bk = random_hermitian(rng, r + 1)
        bl = random_hermitian(rng, r)
        mk = multiplier_klingen(bk, a)
        ml = multiplier_lfun(bl, a)
        dk = direct_klingen(bk, a)
        dl = direct_lfun(bl, a)
        assert (mk - dk).is_zero()
        assert (ml - dl).is_zero()


def test_weight_additivity_200():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        r = rng.randint(1, 3)
        a1 = random_weight(rng, r)
        a2 = random_weight(rng, r)
        beta = random_hermitian(rng, r + 1)
        m1 = multiplier_klingen(beta, a1)
        m2 = multiplier_klingen(beta, a2)
        m12 = multiplier_klingen(beta, tuple(x + y for x, y in zip(a1, a2)))
        assert (m1 * m2 - m12).is_zero()
        checked += 1


def test_examples():
    b = HermitianMatrix(1, [[Fraction(2)]])
    assert multiplier_lfun(b, (3,)).a == Fraction(8)
    ident = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                                [Fraction(0), Fraction(1)]])
    assert multiplier_lfun(ident, (2, 1)).a == Fraction(1)


def test_klingen_kills_zero_subdiagonal():
    # beta with vanishing (2,1) entry: weight (1,) multiplier is that entry
    b = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                            [Fraction(0), Fraction(1)]])
    assert multiplier_klingen(b, (1,)).is_zero()


def test_weight_shape_validation():
    b = HermitianMatrix(1, [[Fraction(1)]])
    with pytest.raises(ValueError):
        multiplier_klingen(b, (1, 2))  # wrong size
    b2 = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                             [Fraction(0), Fraction(1)]])
    with pytest.raises(ValueError):
        multiplier_klingen(b2, (-1,))


def test_apply_to_expansion_zero_weight_is_identity():
    rng = random.Random(3)
    entries = [(random_hermitian(rng, 2), ExactValue.from_rational(k + 1))
               for k in range(4)]
    e = QExpansion(2, entries)
    out = apply_to_expansion(e, "klingen", (0,))
    for (b1, v1), (b2, v2) in zip(e.entries, out.entries):
        assert b1 == b2 and v1 == v2


def test_apply_to_expansion_composes():
    rng = random.Random(5)
    entries = [(random_hermitian(rng, 2), ExactValue.from_rational(1))
               for _ in range(5)]
    e = QExpansion(2, entries)
    one_then_two = apply_to_expansion(apply_to_expansion(e, "klingen", (1,)),
                                      "klingen", (2,))
    three = apply_to_expansion(e, "klingen", (3,))
    for (b1, v1), (b2, v2) in zip(one_then_two.entries, three.entries):
        assert b1 == b2
        assert v1 == v2 or (v1.is_zero() and v2.is_zero())


def test_lfun_invariant_under_unipotent_conjugation():
    # u beta u* for lower-triangular unipotent integral u preserves all
    # leading principal minors, hence the lfun multiplier; verified by
    # explicit matrix recomputation, not by a claimed symmetry
    rng = random.Random(11)
    for _ in range(50):
        r = rng.randint(2, 3)
        beta = random_hermitian(rng, r)
        a = random_weight(rng, r)
        u = [[QuadFieldElem(Fraction(1 if i == j else 0), Fraction(0), 1)
              for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(i):
                u[i][j] = QuadFieldElem(Fraction(rng.randint(-2, 2)),
                                        Fraction(rng.randint(-2, 2)), 1)
        ub = [[sum((u[i][k] * beta.entry(k, j) for k in range(r)),
                   QuadFieldElem(Fraction(0), Fraction(0), 1))
               for j in range(r)] for i in range(r)]
        ubu = [[sum((ub[i][k] * u[j][k].conj() for k in range(r)),
                    QuadFieldElem(Fraction(0), Fraction(0), 1))
                for j in range(r)] for i in range(r)]
        conj = HermitianMatrix(1, ubu)
        assert (multiplier_lfun(beta, a) - multiplier_lfun(conj, a)).is_zero()
