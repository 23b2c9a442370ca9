"""Differential-operator multipliers on q-expansion coefficients.

Applying the weight-raising operator and pairing with a highest weight vector
multiplies the coefficient at beta by a monomial in minors of beta.  The two
variants differ only in which block of beta the minors are taken from: the
Klingen index has one row more than the weight has entries, the L-function
index none.  The monomial is taken on integers in Z[sqrt(-D)] and returned as
a CycNumber at the level of sqrt_minus_d(D).
"""

from .exact_arith import CycNumber, sqrt_minus_d
from .values import ExactValue


def minor_monomial(beta, a):
    """Multiplier prod_k det(rows o+1..o+k, cols 1..k of beta)^(a_k - a_(k+1))
    for the weight a = (a_1 >= ... >= a_r >= 0), with a_(r+1) = 0 and the row
    offset o = beta.n - r: 1 for an (r+1) x (r+1) Klingen index, 0 for an
    r x r L-function index.  The weight is not checked here; the command
    line and specialize reject a bad one first.

    Each minor is taken as beta.int_minor gives it, (A + B sqrt(-D)) / d, the
    powers and the product by square-and-multiply on the integer pairs, and
    one CycNumber (A + B sqrt(-D)) / den at the end, den the product of the
    denominators and sqrt(-D) the one sqrt_minus_d gives."""
    offset = beta.n - len(a)
    a = tuple(a) + (0,)
    D = beta.D
    num_a, num_b, den = 1, 0, 1

    def times(x, y, u, v):
        return x * u - D * y * v, x * v + y * u

    for k in range(1, len(a)):
        e = a[k - 1] - a[k]
        if e:
            x, y, d = beta.int_minor(range(offset, offset + k), range(k))
            den *= d ** e
            while e:
                if e & 1:
                    num_a, num_b = times(num_a, num_b, x, y)
                e >>= 1
                if e:
                    x, y = times(x, y, x, y)
    root = sqrt_minus_d(D)
    nums = [num_b * c for c in root.nums]
    nums[0] += num_a * root.den
    return CycNumber.from_integers(root.level, nums, den * root.den)


def times_multiplier(value, beta, a):
    """The ExactValue times the minor monomial at beta; zero where the
    monomial vanishes, and a zero value, or any value under the weight
    a = 0, whose monomial is the empty product 1, as it is."""
    if value.is_zero() or not any(a):
        return value
    m = minor_monomial(beta, a)
    if m.is_zero():
        return ExactValue.zero()
    return value * ExactValue(m)
