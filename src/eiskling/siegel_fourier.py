"""Local Fourier coefficients of the chosen Siegel sections and their
assembly into normalized global q-expansion coefficients.

All values are exact: cyclotomic units times formal prime powers and Gauss
symbols (ExactValue).  Transcendental archimedean factors cancel against the
global normalization and never appear.

Every local factor sees a nonsingular, positive definite index beta only
through a few local invariants: det beta, the common denominator of its
entries, the sum of the diagonal entries the ell factor reads and the
residues mod p behind coeff_p.  index_classes groups indices into
invariant classes, the indices with equal invariants, and assemble_classes
assembles one representative of each class; assemble_global itself keeps
no cache.  None of the invariants depends on the points of a family, so a
family groups its indices once (interpolation.coefficient_family).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .errors import (ConductorError, ConfigError, EisklingError,
                     UnsupportedBetaError)
from .exact_arith import CycNumber, factorize, sqrt_minus_d, valuation
from .characters import chi_K
from .padic import embed_cyclotomic
from .values import ExactValue


def index_size(r, variant):
    """The size n of the Fourier index of the family that the variant builds
    from a datum on U(r, 0): r + 1 for the Klingen Eisenstein family, r for
    the L-function family.  The one check of the variant."""
    if variant == "klingen":
        return r + 1
    if variant == "lfun":
        return r
    raise ConfigError("variant must be 'klingen' or 'lfun'")


@dataclass
class SiegelDatum:
    """Global datum fixing the section at every place.

    n is the size of the coefficient index, index_size(r, variant), where
    r >= 1 is the rank of the definite group; the command line checks r >= 1
    and that p splits in K before it builds a datum.  ell is a prime.

    A datum holds no p-adic precision: its one p-adic reading is
    sqrt_md_mod_p, a residue mod p, and the precision of a congruence check
    is check_congruences' own.

    Everything fixed by the arithmetic point (tau', its Gauss character, the
    ell and p constants) is computed once per datum and cached; a datum
    must not be mutated after its first use; derive new ones with replace().
    """

    n: int
    kappa: int
    pair: object            # SplitPCharPair
    p: int
    D: int
    sigma: tuple
    ell: int
    y_norm: Fraction = Fraction(1)
    vol_Y: Fraction = Fraction(1)
    embedding_choice: int = 0
    variant: str = "klingen"

    def __post_init__(self):
        if self.kappa < self.n:
            raise ConfigError("need kappa >= n")
        if self.p not in self.sigma:
            raise ConfigError("sigma must contain p")
        if self.ell in self.sigma:
            raise ConfigError("the auxiliary prime is kept outside sigma")
        if chi_K(self.D, self.ell) == 0:
            raise ConfigError("the auxiliary prime must be unramified")

    @cached_property
    def r(self):
        # index_size(0, variant) is the number of rows the variant adds to r
        return self.n - index_size(0, self.variant)

    @property
    def s_point(self):
        return Fraction(self.kappa - self.n, 2)

    @cached_property
    def tau_prime(self):
        return self.pair.tau_prime()

    @cached_property
    def tau_prime_bar(self):
        return self.tau_prime.conj()

    @cached_property
    def conductors_ok(self):
        return self.pair.conductors_all_p(self.p)

    @cached_property
    def ell_prefactor(self):
        """The abelian L-factors of the global normalization at the
        auxiliary prime (which lies outside sigma and is not cancelled
        locally): prod_{i=0}^{n-1} (1 - taubar' chi_K^i (ell)
        ell^{-(kappa-i)})^{-1}."""
        ell = self.ell
        return ExactValue(abelian_lfactors(
            self.tau_prime_bar(ell), chi_K(self.D, ell), ell, self.kappa,
            self.n).inverse())

    @cached_property
    def sqrt_md_mod_p(self):
        """Residue mod p of sqrt(-D) under the embedding fixed by the
        datum, read from the embedding at precision 1: a residue mod p
        needs no more."""
        img = embed_cyclotomic(sqrt_minus_d(self.D), self.p, 1,
                               choice=self.embedding_choice)
        if img.level == 1:  # at shift 0: sqrt(-D) has integer coefficients
            return img.coeffs[0] % self.p
        # split p guarantees a mod-p root; fall back to the smallest one
        for t in range(self.p):
            if (t * t + self.D) % self.p == 0:
                return t
        raise UnsupportedBetaError("no square root of -D mod p")

    @cached_property
    def aux_scalar(self):
        """The beta-independent scalar of the auxiliary-prime coefficient."""
        return aux_ell_scalar(self.y_norm, self.ell, self.s_point, self.n,
                              self.vol_Y)

    @cached_property
    def p_unit(self):
        """Unit calibrated against the finite-sum evaluation of the
        stabilized section with the plus-sign additive character: each of
        the r rows of the unipotent sum contributes tau_2(-1) tau_2(p).  The
        rank-one case is verified computationally in the test suite."""
        return (self.pair.tau2(-1) * self.pair.at_p2) ** self.r

    @cached_property
    def p_factor(self):
        """g(tau')^n c_n(taubar', -s): the beta-independent part of coeff_p
        apart from the unit."""
        n = self.n
        out = ExactValue(self.pair.at_p_prime() ** (-n))
        out = out.with_gauss(self.tau_prime.primitive_part(), n)
        return out.times_prime_power(
            self.p, -2 * n * self.s_point - Fraction(n * (n + 1), 2))


def aux_ell_scalar(y_norm, ell, s, n, vol_Y):
    """Scalar from the auxiliary-prime intertwined section for an n x n
    index: tau(y ybar) |(y ybar)^2|^(-s - n/2) Vol(Y), with tau(y ybar)
    taken as 1."""
    v = valuation(Fraction(y_norm), ell)
    out = ExactValue.from_rational(Fraction(vol_Y))
    return out.times_prime_power(ell, 2 * v * (Fraction(s) + Fraction(n, 2)))


def _integral_at(beta, q):
    """Whether every entry of beta is integral at the prime q."""
    return beta.den % q != 0


def _support(beta):
    """The primes dividing det beta (nonzero) or an entry denominator, in
    increasing order: those of the determinant's numerator and of the common
    denominator, a power of which the determinant's denominator divides."""
    return sorted(set(factorize(abs(beta.det().numerator)))
                  | set(factorize(beta.den)))


def additive_char(x, q):
    """e_q(x) = e(frac_q(x)) as an exact root of unity of q-power order."""
    x = Fraction(x)
    if x == 0:
        return CycNumber.one()
    k = max(0, -valuation(x, q))
    if k == 0:
        return CycNumber.one()
    qk = q ** k
    m = x.denominator // qk
    j = x.numerator * pow(m, -1, qk) % qk
    return CycNumber.root_of_unity(qk, j)


def abelian_lfactors(tpb, ck, q, kappa, n):
    """prod_{i=0}^{n-1} (1 - tpb ck^i q^{-(kappa-i)}) as a CycNumber: the
    abelian L-factors at q, inverted, for the character value tpb at q and
    ck = chi_K(q)."""
    acc = CycNumber.one()
    sign = 1
    for i in range(n):
        acc = acc * (CycNumber.one() - tpb * sign * Fraction(q) ** (i - kappa))
        sign *= ck
    return acc


def _check_primitive(beta, q, D):
    """Raise UnsupportedBetaError unless the nonsingular index beta is
    primitive at the good prime q: q unramified in Q(sqrt(-D)), beta
    integral at q and det beta a unit at q.  Only a primitive index has a
    local coefficient at q, the one that cancels the abelian L-factors at q
    of the global normalization to 1."""
    if chi_K(D, q) == 0:
        raise UnsupportedBetaError("ramified prime %d not supported" % q)
    if not _integral_at(beta, q):
        raise UnsupportedBetaError("beta not integral at %d" % q)
    if valuation(beta.det(), q) != 0:
        raise UnsupportedBetaError("beta not primitive at %d" % q)


def coeff_aux_ell(beta, datum):
    """Local coefficient at the auxiliary split prime ell:

    aux_ell_scalar * e_ell(d(beta) / (y ybar))   [beta integral at ell]

    where d(beta) is the sum of the last r diagonal entries (all n of them
    for the lfun variant)."""
    if not _integral_at(beta, datum.ell):
        return ExactValue.zero()
    tr = Fraction(_ell_trace(beta, datum), beta.den)
    return datum.aux_scalar * ExactValue(additive_char(tr / datum.y_norm,
                                                       datum.ell))


def _ell_trace(beta, datum):
    """den * d(beta): the sum of the last r diagonal entries of the integer
    image, the one entry sum coeff_aux_ell reads."""
    return sum(beta.int_minor((i,), (i,))[0]
               for i in range(datum.n - datum.r, datum.n))


def coeff_p(beta, datum, residues=None):
    """Local coefficient at p for the stabilized section:

    taubar'(det beta) |det beta|_p^{2s} g(tau')^n c_n(taubar', -s) Phi(X)

    with c_n(tau', s) = tau'(p^n) p^{2ns - n(n+1)/2}, Phi supported on the
    matrices whose leading minors are all p-adic units with value
    tau_2(det X), and X the transpose of the block of beta on the first r
    rows and the last r columns (beta itself for the lfun variant).  Nonzero
    values require det beta in Z_p^*; p-divisible determinants give 0
    through the character.  residues is _residues_mod_p(beta, datum) when
    the caller holds it, else None and read here.
    """
    if not datum.conductors_ok:
        raise ConductorError("tau1, tau2, tau1*tau2 must have conductor p")
    if residues is None:
        residues = _residues_mod_p(beta, datum)
    if not residues:
        return ExactValue.zero()
    det_res, x_res = residues
    unit = (datum.tau_prime_bar(det_res) * datum.pair.tau2(x_res)
            * datum.p_unit)
    return ExactValue(unit) * datum.p_factor


def _residues_mod_p(beta, datum):
    """(det beta mod p, det X mod p) for coeff_p, read with the datum's
    square root of -D mod p; () where the coefficient vanishes: beta not
    integral at p, det beta not a unit at p, or a leading minor of X not a
    unit at p."""
    p, root, r = datum.p, datum.sqrt_md_mod_p, datum.r
    if not _integral_at(beta, p):
        return ()
    # p does not divide den, so each minor (A + B sqrt(-D)) / d has the
    # residue (A + B root) / d mod p
    det = beta.det()
    if det == 0:
        raise UnsupportedBetaError("coeff_p needs det beta != 0")
    det_res = det.numerator * pow(det.denominator, -1, p) % p
    if det_res == 0:
        return ()  # taubar'(det beta) = 0
    rows = range(r)
    cols = range(beta.n - r, beta.n)
    # leading minors of the transposed block = minors on swapped index sets
    for k in range(1, r + 1):
        A, B, d = beta.int_minor(rows[:k], cols[:k])
        x_res = (A + B * root) * pow(d, -1, p) % p
        if x_res == 0:
            return ()
    return det_res, x_res


def coeff_arch_normalized(beta, datum):
    """Archimedean coefficient after dividing by the global normalization:
    (-2)^(-n) det(beta)^(kappa-n) / (kappa-1)!  for the klingen variant,
    (-2)^(-n) det(beta)^(kappa-n)               for the lfun variant;
    zero unless det beta > 0.  The datum guarantees kappa >= n."""
    det = beta.det()
    if det <= 0:
        return ExactValue.zero()
    n = datum.n
    val = Fraction((-1) ** n, 2 ** n) * det ** (datum.kappa - n)
    if datum.variant == "klingen":
        val /= factorial(datum.kappa - 1)
    return ExactValue.from_rational(val)


def _invariants(beta, datum):
    """The key of beta's invariant class: every fact of the index that
    assemble_global reads, at this datum and at every datum specialize
    derives from it.  A singular or non-positive-definite index is its own
    key.  Any other index is keyed by det beta and den (the prime support,
    integrality at ell and the archimedean rational), den * d(beta) (the ell
    character) and the residues mod p, which read only p, D,
    embedding_choice and r of the datum."""
    det = beta.det()
    if det == 0 or not beta.is_positive_definite():
        return beta
    return (det, beta.den, _ell_trace(beta, datum),
            _residues_mod_p(beta, datum))


def index_classes(betas, datum):
    """Group the indices into invariant classes, those with equal
    _invariants: (reps, of), where reps holds the first index of each class
    with the residues mod p its key holds (None for an index that is its
    own key), and of[j] is the class number of betas[j]."""
    reps, of, number = [], [], {}
    for beta in betas:
        key = _invariants(beta, datum)
        if key not in number:
            number[key] = len(reps)
            reps.append((beta, None if key is beta else key[3]))
        of.append(number[key])
    return reps, of


def assemble_classes(reps, datum):
    """For each class representative and its residues, the report of
    assemble_global at the datum, or the text "Type: message" of the
    package error it raised."""
    entries = []
    for beta, residues in reps:
        try:
            entries.append(assemble_global(beta, datum, residues))
        except EisklingError as exc:  # an error record; the others continue
            entries.append("%s: %s" % (type(exc).__name__, exc))
    return entries


def assemble_global(beta, datum, residues=None):
    """Assemble the normalized global coefficient at beta as the product of
    the local coefficients, after checking primitivity away from sigma and
    the auxiliary prime; residues goes to coeff_p.

    The report is the dict the command line writes: beta, variant,
    degenerate, locals, normalized and notes, with beta and the values as
    objects, which cli._emit writes as their to_json() forms.  Raises
    UnsupportedBetaError for indices outside the implemented (primitive)
    range; returns a degenerate placeholder report for singular indices."""
    if beta.n != datum.n:
        raise ValueError("beta size does not match the datum")
    singular = beta.det() == 0
    if singular or not beta.is_positive_definite():
        note = ("singular index: constant-term block, value not computed "
                "by this assembler" if singular else "index not positive "
                "definite: archimedean coefficient vanishes")
        return {"beta": beta, "variant": datum.variant,
                "degenerate": singular, "locals": {},
                "normalized": ExactValue.zero(), "notes": [note]}
    good = [q for q in _support(beta)
            if q not in datum.sigma and q not in (datum.ell, datum.p)]
    if good:
        # every q in good divides det beta or an entry denominator, so the
        # check at the smallest raises
        _check_primitive(beta, good[0], datum.D)
    notes = ["good primes checked for primitivity: none"]
    for q in sorted(datum.sigma):
        if q != datum.p:
            notes.append("place %d in sigma: section normalized to 1 "
                         "(its L-factors are omitted from the prefactor)" % q)
    locs = {"unramified": ExactValue.one(),
            "ell_prefactor": datum.ell_prefactor,
            "ell": coeff_aux_ell(beta, datum),
            "p": coeff_p(beta, datum, residues),
            "arch": coeff_arch_normalized(beta, datum)}
    if datum.variant == "lfun":
        notes.append("lfun variant: a residual factor (pi/2)^r is part of "
                     "the period and omitted from the algebraic value")
    total = ExactValue.one()
    for v in locs.values():
        total = total * v
    return {"beta": beta, "variant": datum.variant, "degenerate": False,
            "locals": locs, "normalized": total, "notes": notes}
