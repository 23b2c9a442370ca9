"""Exact character arithmetic: Gauss sums and Kummer congruences.

Everything in this walk-through is exact -- cyclotomic integers for the
character values, big rationals for the Bernoulli side, and capped p-adic
precision only at the very end when we compare L-values.
"""

from fractions import Fraction

from eiskling.bernoulli_kl import (bernoulli_number, gen_bernoulli,
                                   kl_specialization)
from eiskling.characters import DirichletChar, gauss_sum
from eiskling.padic import valuation_at_least

# --- Gauss sums ------------------------------------------------------------
# For a primitive character chi mod m the Gauss sum g(chi) has |g(chi)|^2 = m;
# in exact form: g(chi) * g(chibar) = chi(-1) * m.

chi = DirichletChar.from_exponent(7, 1)      # a character of order 6 mod 7
g = gauss_sum(chi)
gbar = gauss_sum(chi.conj())
print("chi has order", chi.order(), "and parity", chi.parity())
print("g(chi) g(chibar) = chi(-1) * 7:",
      g * gbar == chi(-1) * type(g).from_rational(Fraction(7)))

# The same identity at a prime-square modulus:
chi25 = DirichletChar.from_exponent(25, 1)
print("conductor of chi25:", chi25.conductor())
print("norm identity mod 25:",
      gauss_sum(chi25) * gauss_sum(chi25.conj())
      == chi25(-1) * type(g).from_rational(Fraction(25)))

# --- Bernoulli numbers and L-values ---------------------------------------
# Generalized Bernoulli numbers give L(1-k, chi) = -B_{k,chi}/k; the trivial
# character recovers the Riemann values.

print("\nB_12 =", bernoulli_number(12))
chi3 = DirichletChar.quadratic(3)
print("B_{1,chi3} =", gen_bernoulli(chi3, 1).rational())

# --- The p-adic L-value and its congruences --------------------------------
# kl_specialization(chi, k, p) evaluates the p-adic Dirichlet L-function at
# the weight-k specialization of the branch character chi: the classical
# value -B_k/k with the Euler factor at p removed.  Weights congruent mod
# (p-1) give values congruent mod p -- the Kummer congruence that makes the
# p-adic interpolation possible.

p = 5
triv = DirichletChar.trivial()
for k in (2, 6, 10, 22):
    v = kl_specialization(triv, k, p, prec=8)
    print("A_%d at p=%d:" % (k, p), v)

a = kl_specialization(triv, 2, p, prec=8)
b = kl_specialization(triv, 6, p, prec=8)
c = kl_specialization(triv, 22, p, prec=8)
print("A_2 = A_6   mod 5  :", valuation_at_least(a - b, 1))
print("A_2 = A_22  mod 25 :", valuation_at_least(a - c, 2))   # 22-2 = 20 = (p-1)p
