"""Independent oracles frozen before the implementation they test.

Each oracle recomputes a quantity by a different route than the package:
Bernoulli numbers by the Akiyama-Tanigawa scheme, Bernoulli polynomials and
generalized Bernoulli numbers by their defining sums in Fraction arithmetic
(one polynomial per residue, as gen_bernoulli once summed them), the
rank-one p-local coefficient by the literal finite shell sum over the big
cell, mod-p minor units by integer Gaussian elimination after substituting a
mod-p square root,
semidefiniteness by floating-point eigenvalues, elements a + b*sqrt(-D) of
the quadratic field as QuadFieldElem, a pair of Fractions, read from an
index's JSON entries, and determinants over Q(sqrt(-D)) by Laplace expansion
on them (Fraction arithmetic, no integer image, no cache), cyclotomic arithmetic on Fraction coefficient
vectors reduced by long division by the cyclotomic polynomial (inverses by
the extended Euclidean algorithm), the JSON text of a report by converting
it first and handing it to json.dumps, the integrality and prime support
of an index entry by entry, as assemble_global once found them, and exact
values with every exponent a Fraction, each product renormalized from
scratch, as ExactValue once kept them, and the split-branch embedding of a
cyclotomic number into Q_p with the Teichmuller root and its powers made
afresh on every call, as embed_cyclotomic once made them, and a coefficient
family with every index assembled afresh at every point, as
coefficient_family once built it, and the verdict of each congruence
record on a unit difference from the report JSON alone, with its own
primitive root and Hensel lift and nothing from eiskling.padic, and a
Dirichlet character as a table of CycNumber values whose order, key and
conductor are found by search, as DirichletChar once kept it, and the
complex value of a cyclotomic number, for the tests that fix a branch.
"""

import cmath
import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from eiskling.characters import _units, gauss_sum, primitive_root
from eiskling.errors import (EisklingError, NonIntegralExponentError,
                             ResourceBoundError)
from eiskling.exact_arith import (CycNumber, HermitianMatrix, cyclotomic_poly,
                                  factorize, sqrt_minus_d, valuation)
from eiskling.interpolation import specialize
from eiskling.padic import PadicElem, teichmuller
from eiskling.qexp_diff import times_multiplier
from eiskling.siegel_fourier import assemble_global
from eiskling.values import ExactValue


def bernoulli_akiyama_tanigawa_table(n):
    """[B_0, ..., B_n] (B_1 = -1/2 convention) from one Akiyama-Tanigawa
    triangle: after row m its first entry is B_m."""
    a = [Fraction(0)] * (n + 1)
    table = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        # the triangle produces B_1 = +1/2; flip to the B_1 = -1/2 convention
        table.append(-a[0] if m == 1 else a[0])
    return table


@lru_cache(maxsize=None)
def bernoulli_akiyama_tanigawa(n):
    """B_n (B_1 = -1/2 convention) via the Akiyama-Tanigawa triangle."""
    return bernoulli_akiyama_tanigawa_table(n)[n]


def bernoulli_poly(k, x):
    """B_k(x) = sum_j C(k,j) B_j x^(k-j)."""
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(k + 1):
        acc += comb(k, j) * bernoulli_akiyama_tanigawa(j) * x ** (k - j)
    return acc


def gen_bernoulli_by_definition(chi, k):
    """B_{k,chi} = f^(k-1) sum_{a=1}^{f} chi(a) B_k(a/f), f the modulus."""
    f = chi.modulus
    acc = CycNumber.zero()
    for a in range(1, f + 1):
        v = chi(a)
        if not v.is_zero():
            acc = acc + v * bernoulli_poly(k, Fraction(a, f))
    return acc * (Fraction(f) ** (k - 1))


def _vp(x, p):
    x = Fraction(x)
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def e_p(x, p):
    """The additive character of Q_p trivial on Z_p, with the plus sign."""
    x = Fraction(x)
    d = x.denominator
    level = 0
    while d % p == 0:
        d //= p
        level += 1
    if level == 0:
        return CycNumber.one()
    pL = p ** level
    # d is the prime-to-p part of the denominator; invert it mod p^level
    e = x.numerator * pow(d, -1, pL) % pL
    return CycNumber.root_of_unity(pL, e)


@dataclass(frozen=True)
class QuadFieldElem:
    """a + b*sqrt(-D) with Fraction parts a, b."""

    a: Fraction
    b: Fraction
    D: int

    def _parts(self, other):
        if isinstance(other, QuadFieldElem):
            assert other.D == self.D, "mixed quadratic fields"
            return other.a, other.b
        return Fraction(other), Fraction(0)

    def __add__(self, other):
        a, b = self._parts(other)
        return QuadFieldElem(self.a + a, self.b + b, self.D)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self._parts(other)
        return QuadFieldElem(self.a * a - self.D * self.b * b,
                             self.a * b + self.b * a, self.D)

    __rmul__ = __mul__

    def __pow__(self, e):
        """self^e for an int e >= 0, by e multiplications."""
        acc = QuadFieldElem(Fraction(1), Fraction(0), self.D)
        for _ in range(e):
            acc = acc * self
        return acc

    def conj(self):
        return QuadFieldElem(self.a, -self.b, self.D)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def cyc(self):
        """The element in a cyclotomic field: a + b * sqrt_minus_d(D), by
        CycNumber arithmetic."""
        return CycNumber.from_rational(self.a) + self.b * sqrt_minus_d(self.D)


def quad_rows(beta):
    """The entries of an index as rows of QuadFieldElem, read back from the
    "a/b" strings of its JSON."""
    return [[QuadFieldElem(Fraction(a), Fraction(b), beta.D) for a, b in row]
            for row in beta.to_json()["entries"]]


def hermitian_of(D, rows):
    """The HermitianMatrix with the given QuadFieldElem rows, each entry
    handed over as its pair (a, b)."""
    return HermitianMatrix(D, [[(e.a, e.b) for e in row] for row in rows])


def quad_minor(beta, rows, cols):
    """The rows x cols minor of an index by quad_det_laplace on quad_rows."""
    ent = quad_rows(beta)
    return quad_det_laplace([[ent[i][j] for j in cols] for i in rows])


def rank_one_coeff_p_oracle(beta, pair, p, s):
    """The beta-th coefficient of the rank-one stabilized p-local section,
    computed as the literal shell sum over the big cell:

      (1/p) g(tau2) [sum_u taubar2(u/p) e(beta u/p)]
        * sum_{j>=0} atp^-j p^{-j(2s+1)} int_{v(T)=-j} tau'(-T) e(-beta T) dT

    Shells with j >= 4 vanish for the inputs supported here (conductor-p
    characters, v_p(beta) >= -1); the truncation at 4 keeps two provably-zero
    shells as a safety check.
    """
    from eiskling.characters import gauss_sum, primitive_root
    tau2 = pair.tau2
    taup = pair.tau_prime()
    at2 = pair.at_p2
    atp = pair.at_p_prime()
    beta = Fraction(beta)
    m = max(0, -_vp(beta, p))
    assert m <= 1, "oracle truncation is proven only for v_p(beta) >= -1"
    total_I = CycNumber.zero()
    for j in range(0, 4):
        big_m = max(1, j + m)
        pM = p ** big_m
        weight = Fraction(p) ** (j - big_m)
        buckets = {c: CycNumber.zero() for c in range(1, p)}
        for v in range(1, pM):
            if v % p == 0:
                continue
            buckets[v % p] = buckets[v % p] + e_p(-beta * Fraction(v, p ** j), p)
        shell = CycNumber.zero()
        for c, zsum in buckets.items():
            shell = shell + taup(-c) * zsum
        total_I = total_I + (shell * (atp ** (-j)) * weight
                             * (Fraction(p) ** (-j * int(2 * s + 1))))
    u_sum = CycNumber.zero()
    for u in range(1, p):
        u_sum = u_sum + tau2(u).inverse() * at2 * e_p(beta * Fraction(u, p), p)
    return (Fraction(1, p) * gauss_sum(tau2.primitive_part())
            * u_sum * total_I)


def minor_units_mod_p(beta, p, root, variant):
    """Whether beta is p-integral with unit determinant and all leading
    minors of the designated block are units mod p, computed by substituting
    a square root of -D mod p and running integer Gaussian elimination.

    Returns (supported, all_units): supported is False when beta is not
    p-integral or det is not a p-adic unit (the coefficient is zero there
    regardless of minors)."""
    n = beta.n
    mat = []
    for entries in quad_rows(beta):
        row = []
        for e in entries:
            if e.a.denominator % p == 0 or e.b.denominator % p == 0:
                return False, False
            a = e.a.numerator * pow(e.a.denominator, -1, p) % p
            b = e.b.numerator * pow(e.b.denominator, -1, p) % p
            row.append((a + b * root) % p)
        mat.append(row)
    det = beta.det()
    if det == 0 or _vp(det, p) != 0:
        return False, False
    if variant == "klingen":
        block = [[mat[i][j] for j in range(1, n)] for i in range(n - 1)]
        size = n - 1
    else:
        block = mat
        size = n
    for k in range(1, size + 1):
        if _det_mod_p([r[:k] for r in block[:k]], p) == 0:
            return True, False
    return True, True


def _det_mod_p(rows, p):
    rows = [list(r) for r in rows]
    n = len(rows)
    det = 1
    for col in range(n):
        piv = None
        for i in range(col, n):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for i in range(col + 1, n):
            f = rows[i][col] * inv % p
            if f:
                for j in range(col, n):
                    rows[i][j] = (rows[i][j] - f * rows[col][j]) % p
    return det % p


def psd_by_eigenvalues(beta, tol=1e-9):
    """Positive semidefiniteness via floating-point Hermitian eigenvalues."""
    import numpy as np
    n = beta.n
    mat = np.zeros((n, n), dtype=complex)
    sq = complex(0, beta.D ** 0.5)
    for i, row in enumerate(quad_rows(beta)):
        for j, e in enumerate(row):
            mat[i, j] = float(e.a) + float(e.b) * sq
    eig = np.linalg.eigvalsh(mat)
    return bool(eig.min() >= -tol)


def quad_det_laplace(rows):
    """Determinant of a square matrix of QuadFieldElem by Laplace expansion
    along the first row, in QuadFieldElem arithmetic."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return rows[0][0]
    D = rows[0][0].D
    acc = QuadFieldElem(Fraction(0), Fraction(0), D)
    sign = 1
    for j in range(n):
        if not rows[0][j].is_zero():
            minor = [[rows[i][k] for k in range(n) if k != j]
                     for i in range(1, n)]
            acc = acc + sign * rows[0][j] * quad_det_laplace(minor)
        sign = -sign
    return acc


def psd_by_principal_minors(beta):
    """Semidefiniteness: every principal minor, by quad_det_laplace, is >= 0."""
    ent = quad_rows(beta)
    for size in range(1, beta.n + 1):
        for idx in itertools.combinations(range(beta.n), size):
            if quad_det_laplace([[ent[i][j] for j in idx]
                                 for i in idx]).a < 0:
                return False
    return True


def entry_integral_at(beta, q):
    """Whether both parts of every entry of beta are integral at q."""
    for row in quad_rows(beta):
        for e in row:
            if e.a.denominator % q == 0 or e.b.denominator % q == 0:
                return False
    return True


def index_support(beta):
    """The primes dividing the numerator or the denominator of det beta
    (nonzero) or the denominator of a part of an entry, in increasing order."""
    det = beta.det()
    support = set(factorize(abs(det.numerator))) | set(factorize(det.denominator))
    for row in quad_rows(beta):
        for e in row:
            support |= set(factorize(e.a.denominator))
            support |= set(factorize(e.b.denominator))
    return sorted(support)


class FractionExponentValue:
    """unit * prod_q q^exps[q] * prod_chi g(chi)^gauss[chi] with Fraction
    exponents: the constructor folds the content of a rational unit into
    exps, wraps every exponent in a Fraction and drops zero exponents and
    Gauss powers, and every product is rebuilt through it."""

    def __init__(self, unit, exps=None, gauss=None):
        if unit.is_zero():
            self.unit, self.exps, self.gauss = CycNumber.zero(), {}, {}
            return
        exps = dict(exps or {})
        if unit.is_rational():
            r = unit.rational()
            for q, e in factorize(abs(r.numerator)).items():
                exps[q] = exps.get(q, 0) + e
            for q, e in factorize(r.denominator).items():
                exps[q] = exps.get(q, 0) - e
            unit = CycNumber.from_rational(1 if r > 0 else -1)
        self.unit = unit
        self.exps = {q: Fraction(e) for q, e in exps.items() if e}
        self.gauss = {k: (chi, n) for k, (chi, n) in (gauss or {}).items()
                      if n}

    def is_zero(self):
        return self.unit.is_zero()

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FractionExponentValue(CycNumber.zero())
        exps = dict(self.exps)
        for q, e in other.exps.items():
            exps[q] = exps.get(q, 0) + e
        gauss = dict(self.gauss)
        for k, (chi, n) in other.gauss.items():
            first, m = gauss.get(k, (chi, 0))
            gauss[k] = (first, m + n)
        return FractionExponentValue(self.unit * other.unit, exps, gauss)

    def __pow__(self, e):
        return FractionExponentValue(
            self.unit ** e, {q: x * e for q, x in self.exps.items()},
            {k: (chi, n * e) for k, (chi, n) in self.gauss.items()})

    def times_prime_power(self, q, e):
        return self * FractionExponentValue(CycNumber.one(), {q: e})

    def with_gauss(self, chi, n):
        return self * FractionExponentValue(CycNumber.one(),
                                            gauss={chi.key(): (chi, n)})

    def p_valuation(self, p):
        if self.is_zero():
            return None
        v = self.exps.get(p, Fraction(0))
        for chi, n in self.gauss.values():
            t = valuation(chi.modulus, p)
            if t and chi.modulus == p ** t:
                v += Fraction(n * t, 2)
        return v

    def materialize(self):
        acc = self.unit
        for q, e in sorted(self.exps.items()):
            if e.denominator != 1:
                raise NonIntegralExponentError(
                    "non-integral exponent %s at prime %d" % (e, q))
            acc = acc * (Fraction(q) ** int(e))
        for chi, n in self.gauss.values():
            if n >= 0:
                acc = acc * gauss_sum(chi) ** n
            else:
                m = chi.modulus
                inv = chi(-1) * gauss_sum(chi.conj()) * Fraction(1, m)
                acc = acc * inv ** (-n)
        return acc

    def __eq__(self, other):
        return (self.exps == other.exps and self.unit == other.unit
                and {k: n for k, (_, n) in self.gauss.items()}
                == {k: n for k, (_, n) in other.gauss.items()})

    def to_json(self):
        return {
            "unit": self.unit.to_json(),
            "exponents": {str(q): "%d/%d" % (e.numerator, e.denominator)
                          for q, e in sorted(self.exps.items())},
            "gauss": [{"modulus": chi.modulus, "power": n}
                      for chi, n in sorted(self.gauss.values(),
                                           key=lambda t: (t[0].modulus, t[1]))],
        }


def hermitian_candidates_oracle(n, D, trace_bound, dual_scale=1):
    """The candidates of enumerate_hermitian in its order, as (diag, combo):
    the diagonal and, per pair i < j, the integers (a, b) of the entry
    (a + b*sqrt(-D))/dual_scale, found by a brute-force search of the box
    around the bound a^2 + D*b^2 <= dual_scale^2 * d_i * d_j."""
    s2 = dual_scale * dual_scale
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(range(trace_bound + 1), repeat=n):
        if sum(diag) > trace_bound:
            continue
        ranges = []
        for (i, j) in pairs:
            bound = s2 * diag[i] * diag[j]
            r = int(bound ** 0.5) + 1
            ranges.append([(a, b) for a in range(-r, r + 1)
                           for b in range(-r, r + 1)
                           if a * a + D * b * b <= bound])
        for combo in itertools.product(*ranges):
            yield diag, combo


def enumerate_hermitian_oracle(n, D, trace_bound, dual_scale=1, cap=200000):
    """The candidates of hermitian_candidates_oracle, every one built as a
    HermitianMatrix and kept when psd_by_principal_minors holds; raises
    ResourceBoundError before the first, yielding nothing, when there are
    more than cap principal minors of size at least 3 or more than cap
    candidates."""
    minors = sum(comb(n, k) for k in range(3, n + 1))
    candidates = hermitian_candidates_oracle(n, D, trace_bound, dual_scale)
    if minors > cap or sum(
            1 for _ in itertools.islice(candidates, cap + 1)) > cap:
        raise ResourceBoundError("enumeration cap %d exceeded" % cap)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag, combo in hermitian_candidates_oracle(n, D, trace_bound,
                                                   dual_scale):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(diag[i])
        for (i, j), (a, b) in zip(pairs, combo):
            rows[i][j] = (Fraction(a, dual_scale), Fraction(b, dual_scale))
            rows[j][i] = (Fraction(a, dual_scale), Fraction(-b, dual_scale))
        beta = HermitianMatrix(D, rows)
        if psd_by_principal_minors(beta):
            yield beta


def cyc_fractions(x):
    """The coefficients of a CycNumber as Fractions."""
    return [Fraction(c, x.den) for c in x.nums]


def complex_value(x, k=1):
    """The numerical value of a CycNumber under zeta_level ->
    exp(2*pi*i*k/level), summed term by term over its coefficients."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * k * i / x.level)
               for i, c in enumerate(cyc_fractions(x)))


def cyc_reduce(level, dense):
    """Fraction coefficients of sum_e dense[e] x^e modulo Phi_level, by long
    division by the cyclotomic polynomial."""
    poly = cyclotomic_poly(level)
    phi = len(poly) - 1
    out = [Fraction(c) for c in dense] + [Fraction(0)] * max(0, phi - len(dense))
    for i in range(len(out) - 1, phi - 1, -1):
        c = out[i]
        if c:
            for j, pj in enumerate(poly):
                out[i - phi + j] -= c * pj
    return out[:phi]


def cyc_lift(level, coeffs, m):
    step = m // level
    dense = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    dense[::step] = coeffs
    return cyc_reduce(m, dense)


def cyc_mul(level, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return cyc_reduce(level, conv)


def cyc_galois(level, coeffs, a):
    dense = [Fraction(0)] * level
    for i, c in enumerate(coeffs):
        dense[i * a % level] += c
    return cyc_reduce(level, dense)


def _poly_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(b)
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = a[i] / b[-1]
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return q, a[:db] if db else [Fraction(0)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyc_inverse(level, coeffs):
    """Inverse modulo Phi_level by the extended Euclidean algorithm over Q:
    s * x + t * Phi = g, a nonzero constant, so 1/x = s / g."""
    r0, r1 = [Fraction(c) for c in cyclotomic_poly(level)], list(coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(c != 0 for c in r1):
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    r0 = _poly_trim(r0)
    assert len(r0) == 1, "not invertible"
    return cyc_reduce(level, [c / r0[0] for c in s0])


def encode_for_json(obj):
    """A report as plain JSON data: HermitianMatrix, CycNumber, ExactValue
    and PadicElem as their to_json() forms, tuples as lists."""
    if isinstance(obj, (HermitianMatrix, CycNumber, ExactValue, PadicElem)):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: encode_for_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_for_json(v) for v in obj]
    return obj


def report_text(report):
    """The text of a report: its plain JSON data written by json.dumps."""
    return json.dumps(encode_for_json(report), sort_keys=True, indent=2) + "\n"


def embed_split_oracle(x, p, prec, choice=0):
    """embed_cyclotomic for x at a level m dividing p - 1, as (valuation,
    unit mod p^(precision - valuation), absolute precision), a value zero to
    precision read as (precision, 0, precision).  A rational x is known to
    p^prec.  Otherwise the image is the Fraction sum_i c_i w^i, with the
    powers of w multiplied out on every call and no Galois twist: w is the
    integer Teichmuller lift mod p^prec of (g^a)^((p-1)/m), g the least
    primitive root mod p and a the choice-th unit mod p - 1, so that one
    choice is one embedding at every level.  As w is known mod p^prec, the
    sum is known to p^(prec + min(0, min_i v(c_i)))."""
    m = x.level
    assert (p - 1) % m == 0
    if x.is_rational():
        total, known = x.rational(), prec
    else:
        units = _units(p - 1)
        a = units[choice % len(units)]
        w = teichmuller(pow(primitive_root(p), (p - 1) // m * a, p), p, prec)
        cs = [Fraction(c, x.den) for c in x.nums]
        total = sum(c * w ** i for i, c in enumerate(cs))
        known = prec + min([0] + [valuation(c, p) for c in cs if c])
    v = valuation(total, p) if total else known
    if v >= known:
        return known, 0, known
    unit = total / Fraction(p) ** v
    mod = p ** (known - v)
    return v, unit.numerator * pow(unit.denominator, -1, mod) % mod, known


def coefficient_family_per_point(datum, a, points, betas):
    """coefficient_family with assemble_global run at every point and index,
    each on a fresh copy of the point's datum, with no invariant classes and
    no datum shared between cells: each cell's report is its own, and the
    weight multiplier of the point is applied to it in place.  The table is
    in the written form coefficient_family returns."""
    cells = []
    point_errors = {}
    for i, pt in enumerate(points):
        try:
            at, weight = specialize(pt, datum, a)
        except EisklingError as exc:
            point_errors[str(i)] = "%s: %s" % (type(exc).__name__, exc)
            continue
        for j, beta in enumerate(betas):
            try:
                report = assemble_global(beta, replace(at))
                if not report["degenerate"]:
                    report["normalized"] = times_multiplier(
                        report["normalized"], beta, weight)
                    report["notes"].append("weight multiplier applied: a = %s"
                                           % (weight,))
                cells.append({"point": i, "beta": j, "report": report})
            except EisklingError as exc:
                cells.append({"point": i, "beta": j, "error": "%s: %s"
                              % (type(exc).__name__, exc)})
    return {"points": [{"kappa_phi": pt.kappa_phi, "m_phi": pt.m_phi,
                        "flag": pt.flag} for pt in points],
            "betas": list(betas), "point_errors": point_errors,
            "cells": cells}


def _least_primitive_root(p):
    """The least g whose powers run through the units mod the odd prime p."""
    primes = [q for q in range(2, p) if (p - 1) % q == 0
              and all(q % d for d in range(2, q))]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


def _hensel_root(poly, r, p, K):
    """The root mod p^K of the integer polynomial poly (low degree first)
    that lifts its simple root r mod p, by Newton steps."""
    mod = p ** K

    def at(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % mod
        return acc
    deriv = [i * c for i, c in enumerate(poly)][1:]
    while at(poly, r):
        r = (r - at(poly, r) * pow(at(deriv, r), -1, mod)) % mod
    return r


def _unit_part(value, p, nu0):
    """(level, coefficients) of a cell value's unit times its prime powers
    away from p times p^(nu - nu0), read from its JSON form."""
    exps = {int(q): Fraction(e) for q, e in value["exponents"].items()}
    exps[p] = exps.get(p, 0) - nu0
    scale = Fraction(1)
    for q, e in exps.items():
        assert e.denominator == 1, "non-integral exponent"
        scale *= Fraction(q) ** int(e)
    unit = value["unit"]
    return unit["level"], [Fraction(c) * scale for c in unit["coeffs"]]


def unit_difference_check(report, p, choice=0):
    """Recompute each record of a family report whose detail is "unit
    difference has valuation >= T" or "< T" from the cells' JSON alone.

    With nu_i the exponent of p of cell i and the Gauss shift sum t*n/2 over
    its Gauss symbols of modulus p^t (both cells carry the same ones), the
    target is T = k - shift - min(nu_1, nu_2), and the unit parts u_i are
    each cell's unit times its other prime powers times p^(nu_i - min), on
    the power basis of Q(zeta_L), L the lcm of their levels.  Where L
    divides p - 1 (split), v(u_1 - u_2) is read at the root of Phi_L mod a
    power of p that Hensel-lifts g^((p-1)/L * a), g the least primitive root
    and a the choice-th unit mod p - 1 in increasing order, the same
    embedding at every level L; otherwise
    (unramified) it is the least valuation of a coefficient.  Returns the
    number of records checked of each kind and the records whose T or
    verdict the recomputation does not give."""
    head = "unit difference has valuation "
    cells = {(c["point"], c["beta"]): c for c in report["table"]["cells"]}
    kinds = {"split": 0, "unramified": 0}
    wrong = []
    for rec in report["congruences"]["records"]:
        if not rec["detail"].startswith(head):
            continue
        sign, T = rec["detail"][len(head):].split()
        v1, v2 = (cells[i, rec["beta"]]["report"]["normalized"]
                  for i in rec["pair"])
        assert v1["gauss"] == v2["gauss"], "different Gauss symbols"
        shift = Fraction(0)
        for g in v1["gauss"]:
            t = _vp(g["modulus"], p)
            if t and g["modulus"] == p ** t:
                shift += Fraction(g["power"] * t, 2)
        nus = [Fraction(v["exponents"].get(str(p), "0")) for v in (v1, v2)]
        nu0 = min(nus)
        target = rec["k"] - shift - nu0
        (L1, c1), (L2, c2) = (_unit_part(v, p, nu0) for v in (v1, v2))
        L = lcm(L1, L2)
        diff = [x - y for x, y in zip(cyc_lift(L1, c1, L),
                                      cyc_lift(L2, c2, L))]
        if L % p == 0:
            wrong.append((rec, "level %d is ramified at p" % L))
            continue
        den = lcm(*(c.denominator for c in diff))
        if (p - 1) % L:
            kinds["unramified"] += 1
            val = min(_vp(c, p) for c in diff if c)
        else:
            kinds["split"] += 1
            units = [a for a in range(1, p) if gcd(a, p - 1) == 1]
            a = units[choice % len(units)]
            # digits enough to tell v >= target apart from v < target
            K = max(int(target), 0) + _vp(den, p) + 2
            root = _hensel_root(cyclotomic_poly(L), pow(
                _least_primitive_root(p), (p - 1) // L * a, p), p, K)
            total = sum(int(c * den) * pow(root, j, p ** K)
                        for j, c in enumerate(diff)) % p ** K
            val = (_vp(total, p) if total else K) - _vp(den, p)
        holds = val >= target
        if (Fraction(T) != target or (sign == ">=") != holds
                or (rec["status"] == "PASS") != holds):
            wrong.append((rec, "target %s, valuation %s" % (target, val)))
    return kinds, wrong


class ValueTableChar:
    """A Dirichlet character as a table of CycNumber values on (Z/m)^*, as
    DirichletChar once stored it: the order by multiplying the character by
    itself until the product is trivial, the key by a discrete-log search
    against a root of unity of that order, and the conductor by a scan of
    the divisors of the modulus."""

    def __init__(self, modulus, values):
        self.modulus = modulus
        self.values = dict(values)
        self._order = None

    @classmethod
    def trivial(cls, modulus=1):
        one = CycNumber.one()
        if modulus == 1:
            return cls(1, {0: one})
        return cls(modulus, {a: one for a in range(1, modulus)
                             if gcd(a, modulus) == 1})

    @classmethod
    def quadratic(cls, q):
        """The Legendre character mod q, by Euler's criterion."""
        return cls(q, {a: CycNumber.from_rational(
            1 if pow(a, (q - 1) // 2, q) == 1 else -1) for a in range(1, q)})

    @classmethod
    def from_exponent(cls, modulus, k):
        phi = sum(1 for a in range(1, modulus) if gcd(a, modulus) == 1)
        g = primitive_root(modulus)
        order = phi // gcd(phi, k % phi) if k % phi else 1
        vals = {}
        x = 1
        for j in range(phi):
            vals[x] = CycNumber.root_of_unity(order,
                                              (j * k) % phi * order // phi)
            x = x * g % modulus
        return cls(modulus, vals)

    def __call__(self, n):
        if self.modulus == 1:
            return CycNumber.one()
        n = int(n) % self.modulus
        if gcd(n, self.modulus) != 1:
            return CycNumber.zero()
        return self.values[n]

    def is_trivial(self):
        return all(v == 1 for v in self.values.values())

    def parity(self):
        return int(self(-1).rational())

    def order(self):
        if self._order is None:
            k, cur = 1, self
            while not cur.is_trivial():
                cur = cur * self
                k += 1
            self._order = k
        return self._order

    def __mul__(self, other):
        m = lcm(self.modulus, other.modulus)
        if m == 1:
            return ValueTableChar(1, {0: CycNumber.one()})
        return ValueTableChar(m, {a: self(a) * other(a) for a in range(1, m)
                                  if gcd(a, m) == 1})

    def __pow__(self, k):
        if k < 0:
            k %= self.order()
        return ValueTableChar(self.modulus,
                              {a: v ** k for a, v in self.values.items()})

    def conj(self):
        return ValueTableChar(self.modulus,
                              {a: v.conj() for a, v in self.values.items()})

    def conductor(self):
        m = self.modulus
        for d in range(1, m + 1):
            if m % d == 0 and all(v == 1 for a, v in self.values.items()
                                  if a % d == 1 % d):
                return d

    def primitive_part(self):
        f = self.conductor()
        if f == self.modulus:
            return self
        if f == 1:
            return ValueTableChar(1, {0: CycNumber.one()})
        vals = {}
        for a in range(1, f):
            if gcd(a, f) == 1:
                b = next(b for b in range(a, self.modulus, f)
                         if gcd(b, self.modulus) == 1)
                vals[a] = self.values[b]
        return ValueTableChar(f, vals)

    def key(self):
        order = self.order()
        z = CycNumber.root_of_unity(order)
        items = []
        for a in sorted(self.values):
            cur = CycNumber.one()
            for k in range(order):
                if self.values[a] == cur:
                    items.append((a, k))
                    break
                cur = cur * z
        return (self.modulus, order, tuple(items))

    def gauss_sum(self):
        """sum_a chi(a) zeta_m^a by its definition, in CycNumber sums."""
        m = self.modulus
        acc = CycNumber.zero()
        for a, v in sorted(self.values.items()):
            acc = acc + v * CycNumber.root_of_unity(m, a)
        return acc
