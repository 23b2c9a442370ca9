import cmath
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eiskling import exact_arith
from eiskling.exact_arith import (
    CycNumber,
    HermitianMatrix,
    cyclotomic_poly,
    enumerate_hermitian,
    euler_phi,
    reduce_powers,
    sqrt_minus_d,
    valuation,
)
from eiskling.errors import ResourceBoundError

from oracles import (QuadFieldElem, complex_value, cyc_fractions, cyc_galois,
                     cyc_inverse, cyc_lift, cyc_mul,
                     enumerate_hermitian_oracle, hermitian_candidates_oracle,
                     hermitian_of, psd_by_eigenvalues,
                     psd_by_principal_minors, quad_minor, quad_rows)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
levels = st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15])


def cyc_numbers(level):
    phi = euler_phi(level)
    return st.lists(small_fracs, min_size=phi, max_size=phi).map(
        lambda cs: CycNumber(level, cs))


@given(levels.flatmap(lambda n: st.tuples(cyc_numbers(n), cyc_numbers(n),
                                          cyc_numbers(n))))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == CycNumber.zero()


@given(levels.flatmap(cyc_numbers))
@settings(max_examples=40, deadline=None)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == CycNumber.one()


@given(st.sampled_from([5, 7, 8, 9, 12]), st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_galois_respects_multiplication(level, a):
    import math
    if math.gcd(a, level) != 1:
        return
    x = CycNumber.root_of_unity(level, 1) + 2
    y = CycNumber.root_of_unity(level, 2) - 1
    assert (x * y).galois(a) == x.galois(a) * y.galois(a)


ORACLE_LEVELS = [1, 3, 4, 5, 8, 12, 20]


@st.composite
def fraction_vectors(draw):
    """(level, Fraction coefficients), zero coefficients drawn often."""
    level = draw(st.sampled_from(ORACLE_LEVELS))
    coeff = st.one_of(st.just(Fraction(0)), small_fracs,
                      st.fractions(max_denominator=10 ** 6))
    return level, draw(st.lists(coeff, min_size=euler_phi(level),
                                max_size=euler_phi(level)))


def assert_reduced(x, level, coeffs):
    """x is the reduced integer form of coeffs at level."""
    assert x.level == level
    assert isinstance(x.nums, tuple) and len(x.nums) == euler_phi(level)
    assert all(type(c) is int for c in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert cyc_fractions(x) == list(coeffs)


@given(fraction_vectors(), fraction_vectors(), st.sampled_from([1, 2, 3, 5]),
       st.fractions(max_denominator=12), st.integers(-50, 50))
@settings(max_examples=150, deadline=None)
def test_cyc_ops_match_fraction_oracle(u, v, k, q, n):
    (la, ca), (lb, cb) = u, v
    x, y = CycNumber(la, ca), CycNumber(lb, cb)
    assert_reduced(x, la, ca)
    m = lcm(la, lb)
    xa, yb = cyc_lift(la, ca, m), cyc_lift(lb, cb, m)
    assert_reduced(x + y, m, [s + t for s, t in zip(xa, yb)])
    assert_reduced(x - y, m, [s - t for s, t in zip(xa, yb)])
    assert_reduced(x * y, m, cyc_mul(m, xa, yb))
    assert_reduced(-x, la, [-s for s in ca])
    assert_reduced(x - x, la, [0] * euler_phi(la))
    assert_reduced(x + q, la, [ca[0] + q] + ca[1:])
    assert_reduced(CycNumber.from_rational(q) - x, la,
                   [q - ca[0]] + [-s for s in ca[1:]])
    assert_reduced(x * q, la, [s * q for s in ca])
    assert_reduced(n * x, la, [n * s for s in ca])
    assert_reduced(x.lift(k * la), k * la, cyc_lift(la, ca, k * la))
    for a in range(1, la + 1):
        if gcd(a, la) == 1:
            assert_reduced(x.galois(a), la, cyc_galois(la, ca, a))
    assert_reduced(x.conj(), la, cyc_galois(la, ca, la - 1))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert_reduced(x.inverse(), la, cyc_inverse(la, ca))
    assert (x == y) == (xa == yb)
    assert x == x.lift(k * la) and x.lift(k * la) == x
    assert x.is_zero() == all(c == 0 for c in ca)
    assert x.is_rational() == all(c == 0 for c in ca[1:])
    if x.is_rational():
        assert x.rational() == ca[0] and x == ca[0]
    else:
        with pytest.raises(ValueError):
            x.rational()
        assert x != ca[0]
    assert x.to_json() == {"level": la, "coeffs": [
        "%d/%d" % (c.numerator, c.denominator) for c in ca]}


def test_to_json_signs_and_zero():
    x = CycNumber(4, [Fraction(-3, 6), 0])
    assert (x.nums, x.den) == ((-1, 0), 2)
    assert x.to_json() == {"level": 4, "coeffs": ["-1/2", "0/1"]}
    assert CycNumber.zero(5).to_json()["coeffs"] == ["0/1"] * 4
    assert (CycNumber(3, [Fraction(2, 4), Fraction(-1, 6)]).to_json()["coeffs"]
            == ["1/2", "-1/6"])


def test_root_of_unity_order():
    for n in (3, 4, 5, 8, 9, 12):
        z = CycNumber.root_of_unity(n)
        assert z ** n == CycNumber.one()
        for k in range(1, n):
            assert z ** k != CycNumber.one()


def test_cyclotomic_poly_known():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [1, 11, 12, 125, 500, 2000])
def test_reduction_keeps_the_value_at_every_primitive_root(n):
    """reduce_powers(n, dense) takes the value of dense at every primitive
    n-th root of unity omega = e^(2 pi i k / n), k a unit mod n: checked
    numerically with complex_value, with no polynomial division."""
    rng = random.Random(n)
    # one vector at level 2000: 800 units times 800 coefficients
    for _ in range(3 if n <= 500 else 1):
        dense = [0] * rng.randrange(1, 2 * n)
        for e in rng.sample(range(len(dense)), min(6, len(dense))):
            dense[e] = rng.randint(-9, 9)
        reduced = CycNumber.from_integers(n, reduce_powers(n, dense))
        for k in range(n):
            if gcd(k, n) == 1:
                want = sum(c * cmath.exp(2j * cmath.pi * k * e / n)
                           for e, c in enumerate(dense) if c)
                assert abs(complex_value(reduced, k) - want) < 1e-6


def test_level_cap_is_checked_before_allocation():
    """A level above the cap fails before any vector of that level is
    built, and a level at the cap builds no table of its powers."""
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError,
                       match="level 1000000000000 exceeds the cap 2000"):
        CycNumber.root_of_unity(10 ** 12, 10 ** 12 - 1)
    assert time.perf_counter() - start < 1
    tracemalloc.start()
    try:
        CycNumber.root_of_unity(2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6  # a table of the 2000 powers is about 13 MB


def test_conj_is_complex_conjugation():
    z = CycNumber.root_of_unity(7, 3)
    assert z * z.conj() == CycNumber.one()
    a = z + 2 * z ** 2
    v = complex_value(a)
    w = complex_value(a.conj())
    assert abs(v.conjugate() - w) < 1e-9


@pytest.mark.parametrize("D", [1, 2, 3, 5, 6, 7, 11, 15])
def test_sqrt_minus_d(D):
    v = sqrt_minus_d(D)
    assert v * v == CycNumber.from_rational(-D)
    # fixed branch: positive imaginary part
    assert complex_value(v).imag > 0


@pytest.mark.parametrize("n,m", [
    (n, m) for n in (6, 10, 15, 20, 30, 45, 250)
    for m in range(1, n + 1) if n % m == 0 and gcd(m, n // m) == 1])
def test_descend_lift_roundtrip(n, m):
    """descend inverts lift on sampled elements of Q(zeta_m), finds no
    level-m form of zeta_n when Q(zeta_m) is a proper subfield (for n twice
    an odd m the fields are equal, and zeta_n = -zeta_m^((m+1)/2)), and
    rejects an m that shares a prime with its cofactor."""
    for k in range(3):
        y = CycNumber(m, [Fraction((-1) ** (i + k) * (3 * i + k + 1), i % 4 + 1)
                          for i in range(euler_phi(m))])
        assert y.lift(n).descend(m) == y
    z = CycNumber.root_of_unity(n)
    if euler_phi(m) < euler_phi(n):
        assert z.descend(m) is None
    else:
        assert z.descend(m).lift(n) == z
    for bad in range(1, n + 1):
        if n % bad == 0 and gcd(bad, n // bad) != 1:
            with pytest.raises(ValueError):
                z.descend(bad)


def _mat(D, rows):
    return HermitianMatrix(D, rows)


def test_valuation():
    assert valuation(50, 5) == 2
    assert valuation(Fraction(3, 25), 5) == -2
    assert valuation(Fraction(-7, 3), 5) == 0
    with pytest.raises(ValueError):
        valuation(Fraction(0), 7)


def test_hermitian_det_and_minors():
    b = _mat(1, [[Fraction(2), (1, 1)], [(1, -1), Fraction(3)]])
    # det = 2*3 - (1+i)(1-i) = 6 - 2 = 4
    assert b.det() == Fraction(4)
    assert b.int_minor([0], [0]) == (2, 0, 1)
    # the off-diagonal 1 x 1 block (1 + i) and the 2 x 2 minor over den^2
    assert b.int_minor([0], [1]) == (1, 1, 1)
    half = _mat(1, [[1, (Fraction(1, 2), 1)], [(Fraction(1, 2), -1), 2]])
    assert half.int_minor([0, 1], [0, 1]) == (3, 0, 4)
    assert b.is_positive_definite()


def test_hermitian_validation():
    with pytest.raises(ValueError, match="hermitian"):
        _mat(1, [[1, (1, 1)], [(1, 1), 2]])
    with pytest.raises(ValueError, match="rational"):
        _mat(1, [[(1, 1), 0], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        _mat(1, [[1, 2], [3]])
    half = _mat(1, [[1, (Fraction(1, 2), 1)], [(Fraction(1, 2), -1), 2]])
    assert half.det() == Fraction(3, 4)
    with pytest.raises(TypeError, match="bad matrix entry"):
        _mat(1, [[1.5]])


def test_positive_definite_examples():
    good = _mat(1, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    bad = _mat(1, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert good.is_positive_definite()
    assert not bad.is_positive_definite()
    assert not psd_by_principal_minors(bad)


def test_enumeration_is_psd_and_deterministic():
    run1 = list(enumerate_hermitian(2, 1, 2))
    run2 = list(enumerate_hermitian(2, 1, 2))
    assert run1 == run2
    assert len(run1) > 0
    for b in run1:
        assert psd_by_principal_minors(b)
        assert sum(row[i].a for i, row in enumerate(quad_rows(b))) <= 2
        assert psd_by_eigenvalues(b)


def test_enumeration_dual_scale():
    seen = list(enumerate_hermitian(2, 1, 2, dual_scale=2))
    halves = [b for b in seen
              if any(e.a.denominator == 2 or e.b.denominator == 2
                     for row in quad_rows(b) for e in row)]
    assert halves, "dual lattice entries with denominator 2 expected"
    for b in seen:
        assert psd_by_principal_minors(b)


def test_enumeration_cap():
    with pytest.raises(ResourceBoundError):
        list(enumerate_hermitian(3, 1, 6, cap=10))


def test_screened_minors_are_counted_first():
    """n = 4 screens 5 principal minors (four 3 x 3, one 4 x 4): at trace 0,
    one candidate, the cap holds at 5 and trips at 4; n = 41 fails from its
    2^41 index sets without listing them."""
    assert len(list(enumerate_hermitian(4, 1, 0, cap=5))) == 1
    with pytest.raises(ResourceBoundError, match="^5 screened minors"):
        next(enumerate_hermitian(4, 1, 0, cap=4))
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError, match="screened minors"):
        next(enumerate_hermitian(41, 1, 1))
    assert time.perf_counter() - start < 1


def test_psd_matches_eigenvalue_oracle():
    count = 0
    for b in enumerate_hermitian(2, 3, 3):
        assert psd_by_eigenvalues(b)
        count += 1
    assert count > 5


entry_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
fields = st.sampled_from([1, 2, 3, 7, 11])


def _quad(draw, D, rational=False):
    b = Fraction(0) if rational else draw(entry_fracs)
    return QuadFieldElem(draw(entry_fracs), b, D)


@st.composite
def hermitian_matrices(draw, max_n=4):
    """Random hermitian matrices, or Gram matrices M M^* (semidefinite, and
    singular when M has fewer columns than rows)."""
    n = draw(st.integers(1, max_n))
    D = draw(fields)
    zero = QuadFieldElem(Fraction(0), Fraction(0), D)
    if draw(st.booleans()):
        k = draw(st.integers(1, n))
        m = [[_quad(draw, D) for _ in range(k)] for _ in range(n)]
        rows = [[sum((m[i][t] * m[j][t].conj() for t in range(k)), zero)
                 for j in range(n)] for i in range(n)]
    else:
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = _quad(draw, D, rational=True)
            for j in range(i + 1, n):
                rows[i][j] = _quad(draw, D)
                rows[j][i] = rows[i][j].conj()
    return hermitian_of(D, rows)


def _minor(beta, rows, cols):
    """The int_minor of beta as a QuadFieldElem."""
    A, B, d = beta.int_minor(rows, cols)
    return QuadFieldElem(Fraction(A, d), Fraction(B, d), beta.D)


@given(hermitian_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_hermitian_minors_match_laplace_oracle(beta, data):
    n = beta.n
    k = data.draw(st.integers(1, n))
    rows = data.draw(st.permutations(range(n)))[:k]
    cols = data.draw(st.permutations(range(n)))[:k]
    assert _minor(beta, rows, cols) == quad_minor(beta, rows, cols)
    for j in range(1, n + 1):
        assert _minor(beta, range(j), range(j)) == quad_minor(beta, range(j),
                                                              range(j))
    assert beta.det() == quad_minor(beta, range(n), range(n)).a


FIXED_ROWS = {
    3: [[Fraction(5, 2), (1, Fraction(1, 3)), (-2, 1)],
        [(1, Fraction(-1, 3)), 4, (Fraction(1, 2), -2)],
        [(-2, -1), (Fraction(1, 2), 2), 7]],
    4: [[3, (1, 1), (0, 2), (-1, Fraction(1, 2))],
        [(1, -1), Fraction(7, 3), (2, -1), (0, 1)],
        [(0, -2), (2, 1), 5, (Fraction(-3, 2), 1)],
        [(-1, Fraction(-1, 2)), (0, -1), (Fraction(-3, 2), -1), 6]],
}


@pytest.mark.parametrize("D", [3, 7])
@pytest.mark.parametrize("n", [3, 4])
def test_non_principal_minors_match_laplace_oracle(n, D):
    """Every block with rows != cols, in increasing and in reversed order,
    as the p-residues and the Klingen multiplier read them."""
    beta = HermitianMatrix(D, FIXED_ROWS[n])
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                if rows != cols:
                    for r in (rows, rows[::-1]):
                        assert _minor(beta, r, cols) == quad_minor(beta, r,
                                                                   cols)


@given(hermitian_matrices(max_n=3))
@settings(max_examples=40, deadline=None)
def test_minor_cache_is_invisible(beta):
    twin = hermitian_of(beta.D, quad_rows(beta))
    everything = list(range(beta.n))
    first = beta.int_minor(everything, everything)
    assert beta.int_minor(range(beta.n), range(beta.n)) == first
    assert beta.int_minor(everything, everything) == first
    assert twin == beta and hash(twin) == hash(beta)
    assert twin.int_minor(everything, everything) == first


@pytest.mark.parametrize("n, D, trace, scale, definite", [
    pytest.param(*case, id="-".join(map(str, case[:4])) + "-definite" * case[4])
    for case in [(3, 1, 3, 1, False), (3, 3, 3, 2, False), (3, 1, 2, 3, False),
                 (4, 1, 3, 1, False),
                 # a definite index of size n has trace at least n
                 (3, 1, 4, 1, True), (3, 3, 3, 2, True), (3, 1, 3, 2, True),
                 (4, 1, 4, 1, True)]])
def test_enumeration_hands_over_the_determinant(n, D, trace, scale,
                                                definite):
    """The full minor that the enumerator's screen computed last is each
    yielded matrix's determinant, with the value that the Laplace oracle
    gives."""
    betas = list(enumerate_hermitian(n, D, trace, scale, definite=definite))
    assert betas
    for beta in betas:
        assert beta.det() == quad_minor(beta, range(n), range(n)).a


def _drain(gen):
    """The items a generator yields, and whether it then hit the cap."""
    out = []
    try:
        for item in gen:
            out.append(item)
    except ResourceBoundError:
        return out, True
    return out, False


def _oracle(n, D, trace, scale, definite, cap=200000):
    """enumerate_hermitian_oracle, kept to det > 0 when definite."""
    want = enumerate_hermitian_oracle(n, D, trace, scale, cap=cap)
    return (b for b in want if b.det() > 0) if definite else want


@given(st.integers(1, 4), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2, 3]), st.integers(0, 3), st.booleans())
# prefixes rejected by a minor without the last pair
@example(4, 1, 1, 3, False)
@example(4, 1, 1, 3, True)
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_oracle(n, D, scale, trace, definite):
    """The enumerator, which builds each matrix from its integer image,
    yields what the oracle builds from Fractions: the same matrices with
    the same lowest denominator, hash and JSON; the definite enumeration
    yields the oracle's matrices of positive determinant, in order."""
    got, capped = _drain(enumerate_hermitian(n, D, trace, scale, cap=2500,
                                             definite=definite))
    assume(not capped)
    want = list(_oracle(n, D, trace, scale, definite))
    assert got == want
    for beta, ref in zip(got, want):
        assert beta.den == ref.den
        assert hash(beta) == hash(ref)
        assert beta.to_json() == ref.to_json()


@given(st.integers(2, 4), st.sampled_from([1, 3]), st.sampled_from([1, 2]),
       st.integers(1, 300), st.booleans())
@example(4, 1, 1, 300, False)
@example(4, 1, 1, 300, True)
@settings(max_examples=40, deadline=None)
def test_enumeration_cap_matches_oracle(n, D, scale, cap, definite):
    """Either enumeration hits the cap exactly where the oracle, counting
    the semidefinite candidates, does."""
    got = _drain(enumerate_hermitian(n, D, 3, scale, cap=cap,
                                     definite=definite))
    assert got == _drain(_oracle(n, D, 3, scale, definite, cap=cap))


def test_enumeration_expands_three_minors_per_prefix(monkeypatch):
    """A prefix fixes every entry but the last pair's.  For n = 3 the one
    screened minor is a quadratic in the last entry, and the enumerator
    expands its three coefficients once per prefix, not a minor per
    candidate: at most three calls of _int_minor from outside itself."""
    minor = exact_arith._int_minor
    depth = [0]
    calls = [0]

    def counted(*args):
        calls[0] += not depth[0]
        depth[0] += 1
        try:
            return minor(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(exact_arith, "_int_minor", counted)
    assert len(list(enumerate_hermitian(3, 1, 5))) == 1584
    prefixes = {(diag, combo[:-1])
                for diag, combo in hermitian_candidates_oracle(3, 1, 5)}
    assert 0 < calls[0] <= 3 * len(prefixes)


@given(st.integers(1, 3), st.sampled_from([1, 3]), st.sampled_from([1, 2]),
       st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_count_matches_oracle_candidates(n, D, scale, trace):
    """The enumerator yields everything at cap = the oracle's candidate
    count, and nothing, raising, at one less."""
    count = sum(1 for _ in hermitian_candidates_oracle(n, D, trace, scale))
    got, capped = _drain(enumerate_hermitian(n, D, trace, scale, cap=count))
    assert not capped and got == list(enumerate_hermitian(n, D, trace, scale,
                                                          cap=10 ** 9))
    assert _drain(enumerate_hermitian(n, D, trace, scale, cap=count - 1)) == (
        [], True)


def test_count_stops_above_cap():
    """An enumeration far above the cap fails before it yields, from the
    count alone: at trace 40, and at a dual scale whose diagonal (1, 1)
    alone has about pi * 10**6 candidates."""
    assert _drain(enumerate_hermitian(2, 1, 40, cap=1000)) == ([], True)
    assert _drain(enumerate_hermitian(2, 1, 2, 10 ** 3)) == ([], True)
