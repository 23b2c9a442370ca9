import random
from fractions import Fraction

import pytest

from eiskling import qexp_diff
from eiskling.exact_arith import HermitianMatrix, sqrt_minus_d
from eiskling.values import ExactValue
from eiskling.qexp_diff import minor_monomial, times_multiplier

from oracles import QuadFieldElem, hermitian_of, quad_minor, quad_rows


def random_hermitian(rng, n, D=1, span=3, scale=1):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(rng.randint(-span, span), scale)
        for j in range(i + 1, n):
            a = Fraction(rng.randint(-span, span), scale)
            b = Fraction(rng.randint(-span, span), scale)
            rows[i][j] = (a, b)
            rows[j][i] = (a, -b)
    return HermitianMatrix(D, rows)


def direct(beta, a, row_offset):
    """The minor monomial as a QuadFieldElem, each minor by Laplace
    expansion."""
    acc = QuadFieldElem(Fraction(1), Fraction(0), beta.D)
    padded = tuple(a) + (0,)
    for k in range(1, len(padded)):
        e = padded[k - 1] - padded[k]
        m = quad_minor(beta, range(row_offset, row_offset + k), range(k))
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
        mk = minor_monomial(bk, a)
        ml = minor_monomial(bl, a)
        dk = direct(bk, a, 1).cyc()
        dl = direct(bl, a, 0).cyc()
        assert mk == dk
        assert ml == dl


def test_weight_additivity_200():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        r = rng.randint(1, 3)
        a1 = random_weight(rng, r)
        a2 = random_weight(rng, r)
        beta = random_hermitian(rng, r + 1)
        m1 = minor_monomial(beta, a1)
        m2 = minor_monomial(beta, a2)
        m12 = minor_monomial(beta, tuple(x + y for x, y in zip(a1, a2)))
        assert (m1 * m2 - m12).is_zero()
        checked += 1


def test_examples(monkeypatch):
    b = HermitianMatrix(1, [[Fraction(2)]])
    assert minor_monomial(b, (3,)) == 8
    ident = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                                [Fraction(0), Fraction(1)]])
    assert minor_monomial(ident, (2, 1)) == 1
    # weight zero multiplies every coefficient by one: times_multiplier
    # returns its input object and never expands a minor
    b2 = HermitianMatrix(1, [[1, (2, 3)], [(2, -3), 5]])
    b3 = HermitianMatrix(1, [[2, 1, 0], [1, 3, (0, 1)], [0, (0, -1), 4]])
    assert minor_monomial(b2, (0,)) == minor_monomial(b3, (0, 0)) == 1
    calls = []
    monkeypatch.setattr(qexp_diff, "minor_monomial",
                        lambda *args: calls.append(args))
    v = ExactValue.from_rational(Fraction(3, 7))
    assert times_multiplier(v, b2, (0,)) is v
    assert times_multiplier(v, b3, (0, 0)) is v
    assert calls == []


def test_klingen_kills_zero_subdiagonal():
    # beta with vanishing (2,1) entry: weight (1,) multiplier is that entry
    b = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                            [Fraction(0), Fraction(1)]])
    assert minor_monomial(b, (1,)).is_zero()


# sqrt_minus_d(D) lies in Q(zeta_level) with these levels
ROOT_LEVELS = {1: 4, 2: 8, 3: 3, 5: 20, 6: 24, 7: 7}


@pytest.mark.parametrize("D", sorted(ROOT_LEVELS))
def test_multiplier_matches_oracle_at_each_level(D):
    """Each multiplier is the CycNumber the oracle's a + b*sqrt(-D) embeds
    to, with the same level, coefficients and denominator, over fields whose
    square roots of -D lie at different levels; a multiplier vanishing on a
    zero subdiagonal is zero at that level too."""
    level = ROOT_LEVELS[D]
    assert sqrt_minus_d(D).level == level
    rng = random.Random(D)
    for _ in range(40):
        r = rng.randint(1, 3)
        a = random_weight(rng, r)
        scale = rng.randint(1, 3)
        for n, offset in ((r + 1, 1), (r, 0)):
            beta = random_hermitian(rng, n, D, scale=scale)
            got = minor_monomial(beta, a)
            want = direct(beta, a, offset).cyc()
            assert want.level == level
            assert (got.level, got.nums, got.den) == (want.level, want.nums,
                                                      want.den)
    rows = [[(2, 0), (0, 0)], [(0, 0), (3, 0)]]
    zero = minor_monomial(HermitianMatrix(D, rows), (1,))
    assert zero.is_zero() and zero.level == level
    one = ExactValue.from_rational(1)
    assert times_multiplier(one, HermitianMatrix(D, rows), (1,)).is_zero()


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
        ent = quad_rows(beta)
        ub = [[sum((u[i][k] * ent[k][j] for k in range(r)),
                   QuadFieldElem(Fraction(0), Fraction(0), 1))
               for j in range(r)] for i in range(r)]
        ubu = [[sum((ub[i][k] * u[j][k].conj() for k in range(r)),
                    QuadFieldElem(Fraction(0), Fraction(0), 1))
                for j in range(r)] for i in range(r)]
        conj = hermitian_of(1, ubu)
        assert (minor_monomial(beta, a) - minor_monomial(conj, a)).is_zero()
