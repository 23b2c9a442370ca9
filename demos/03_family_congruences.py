"""A p-adic family of Eisenstein coefficients and its congruences.

The family is its SiegelDatum: the datum's pair of tame characters at a
split prime p is the seed.  Each arithmetic point (a weight, a Teichmuller
twist, optionally wild roots of unity) specializes the datum to the datum at
that point, with an exact character pair, and the normalized Fourier
coefficients at different points of the same residue class are congruent
mod p -- the footprint of the underlying bounded measure.
"""

from eiskling import (ArithmeticPoint, CycNumber, DirichletChar, SiegelDatum,
                      SplitPCharPair, check_congruences, coefficient_family,
                      enumerate_hermitian, specialize)

p = 5
seed = SplitPCharPair(DirichletChar.from_exponent(p, 1),
                      DirichletChar.from_exponent(p, 2),
                      at_p1=CycNumber.root_of_unity(4, 1),
                      at_p2=CycNumber.root_of_unity(4, 3))
datum = SiegelDatum(n=2, kappa=6, pair=seed, p=p, D=1,
                    sigma=(2, p), ell=7, variant="klingen")
a = (0,)  # the base weight of the definite group U(1, 0)

# Four points in the same residue class: twists m = 0, 4, 8, 12 differ by
# multiples of p - 1, so the specialized characters agree mod p.
points = [ArithmeticPoint(6, m, flag="Xpb") for m in (0, 4, 8, 12)]
for pt in points:
    at, weight = specialize(pt, datum, a)
    print(pt.label(), "-> conductors",
          (at.pair.tau1.conductor(), at.pair.tau2.conductor()),
          "weight", weight)

betas = [b for b in enumerate_hermitian(2, 1, 3) if b.det() != 0]
print("\nindices of trace <= 3 (nondegenerate):", len(betas))

table = coefficient_family(datum, a, points, betas)
nonzero = sum(1 for c in table["cells"]
              if "report" in c and not c["report"]["normalized"].is_zero())
print("cells computed:", len(table["cells"]), "| nonzero:", nonzero)

# Every pair of points, every index, congruent mod p:
pairs = [(i, j, 1) for i in range(4) for j in range(i + 1, 4)]
rep = check_congruences(table, pairs, p)
print("congruence records:", len(rep["records"]),
      "| failures:", rep["failures"], "| all pass:", rep["all_pass"])

# A deliberate counterexample: m = 1 is in a different residue class, and the
# congruence detector notices.
bad = [points[0], ArithmeticPoint(6, 1, flag="X")]
bad_table = coefficient_family(datum, a, bad, betas)
bad_rep = check_congruences(bad_table, [(0, 1, 1)], p)
print("\nm=0 vs m=1:",
      sum(1 for r in bad_rep["records"] if r["status"] == "FAIL"),
      "of", len(bad_rep["records"]), "records fail, as they should")
