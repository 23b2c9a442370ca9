"""eiskling: exact local Fourier coefficients of Siegel sections on unitary
groups, their assembly into normalized q-expansion coefficients, and the
p-adic congruence checks that interpolation in families forces.

All arithmetic is exact (rationals, cyclotomic integers, formal prime powers
and Gauss symbols); p-adic results carry explicit precision.
"""
