"""Local Fourier coefficients of the stabilized Eisenstein section.

We fix a split prime p, a pair of ramified characters at p, and compute the
p-local coefficient for a handful of Hermitian indices.  The headline fact:
the coefficient is a single monomial (unit times explicit prime powers times
Gauss-sum symbols), and it vanishes exactly when some leading minor of the
index fails to be a p-adic unit.
"""

from fractions import Fraction

from eiskling import (CycNumber, DirichletChar, HermitianMatrix, SiegelDatum,
                      SplitPCharPair, assemble_global, coeff_p,
                      enumerate_hermitian)

p, D = 5, 1          # p splits in Q(i)
kappa = 6

pair = SplitPCharPair(DirichletChar.from_exponent(p, 1),
                      DirichletChar.from_exponent(p, 2),
                      at_p1=CycNumber.root_of_unity(4, 1),
                      at_p2=CycNumber.root_of_unity(4, 3))
datum = SiegelDatum(n=2, kappa=kappa, pair=pair, p=p, D=D,
                    sigma=(2, p), ell=7, variant="klingen")

# A 2x2 Hermitian index over Z[i] whose lower-left entry is a unit mod 5;
# an entry a + b*sqrt(-D) is the pair (a, b):
beta = HermitianMatrix(D, [[Fraction(1), (1, 0)],
                           [(1, 0), Fraction(2)]])
v = coeff_p(beta, datum)
print("p-local coefficient:", v.to_json())
print("p-valuation:", v.p_valuation(p))

# Scaling the off-diagonal block by p kills the relevant minor -> zero:
beta5 = HermitianMatrix(D, [[Fraction(1), (5, 0)],
                            [(5, 0), Fraction(26)]])
print("after scaling the minor by p: zero?",
      coeff_p(beta5, datum).is_zero())

# --- The full normalized coefficient ---------------------------------------
# assemble_global multiplies the local pieces (unramified primes, the
# auxiliary prime, p, and the archimedean normalization) into the exact
# coefficient of the normalized q-expansion.

report = assemble_global(beta, datum)
print("\nnormalized coefficient:", report["normalized"].to_json())
for place, val in report["locals"].items():
    print("  %-14s %s" % (place, val.to_json()))

# --- A small census --------------------------------------------------------
# Enumerate all positive semidefinite integral indices of trace <= 3 and see
# which ones the p-local section supports.

betas = list(enumerate_hermitian(2, D, 3))
alive = sum(1 for b in betas if b.det() != 0 and not coeff_p(b, datum).is_zero())
print("\nindices of trace <= 3:", len(betas),
      "| nondegenerate with nonzero p-coefficient:", alive)
