"""Differential-operator multipliers on q-expansion coefficients.

Applying the weight-raising operator and pairing with a highest weight vector
multiplies the coefficient at beta by a monomial in minors of beta.  The two
variants differ only in which block of beta the minors are taken from.  The
monomial is taken on integers in Z[sqrt(-D)] and returned as a CycNumber at
the level of sqrt_minus_d(D).
"""

from .exact_arith import CycNumber, sqrt_minus_d
from .values import ExactValue


def _pad_weights(a):
    return tuple(int(x) for x in a) + (0,)


def multiplier_klingen(beta, a):
    """Multiplier prod_k det(rows 2..k+1, cols 1..k of beta)^(a_k - a_(k+1))
    for an (r+1) x (r+1) coefficient index and weight a = (a_1 >= ... >= a_r),
    with a_(r+1) = 0."""
    r = len(a)
    if beta.n != r + 1:
        raise ValueError("beta must be (r+1) x (r+1)")
    return _minor_monomial(beta, a, row_offset=1)


def multiplier_lfun(beta, a):
    """Multiplier prod_k det(leading k x k block of beta)^(a_k - a_(k+1)) for
    an r x r coefficient index."""
    r = len(a)
    if beta.n != r:
        raise ValueError("beta must be r x r")
    return _minor_monomial(beta, a, row_offset=0)


def _minor_monomial(beta, a, row_offset):
    """The product of the minors to their powers, taken on integers in
    Z[sqrt(-D)]: each minor as beta.int_minor gives it, (A + B sqrt(-D)) / d,
    the powers and the product by square-and-multiply on the integer pairs,
    and one CycNumber (A + B sqrt(-D)) / den at the end, den the product of
    the denominators and sqrt(-D) the one sqrt_minus_d gives."""
    a = _pad_weights(a)
    if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
        raise ValueError("weights must be nonincreasing with a_r >= 0")
    D = beta.D
    num_a, num_b, den = 1, 0, 1

    def times(x, y, u, v):
        return x * u - D * y * v, x * v + y * u

    for k in range(1, len(a)):
        e = a[k - 1] - a[k]
        if e:
            x, y, d = beta.int_minor(range(row_offset, row_offset + k),
                                     range(k))
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


def times_multiplier(value, beta, variant, a):
    """The ExactValue times the minor monomial of the variant at beta; zero
    where the monomial vanishes, and a zero value as it is."""
    if value.is_zero():
        return value
    mul = multiplier_klingen if variant == "klingen" else multiplier_lfun
    m = mul(beta, a)
    if m.is_zero():
        return ExactValue.zero()
    return value * ExactValue(m)
