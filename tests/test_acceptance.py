"""Acceptance suite: the nine headline checks, one test (and one pass/fail
line under pytest -v) per criterion, each at its stated scale and budget."""

import json
import random
import time
from fractions import Fraction

from eiskling.exact_arith import (CycNumber, HermitianMatrix,
                                  enumerate_hermitian, euler_phi)
from eiskling.characters import DirichletChar, SplitPCharPair, gauss_sum
from eiskling.bernoulli_kl import bernoulli_number, kl_specialization
from eiskling.padic import valuation_at_least
from eiskling.hecke import klingen_eigenvalues, up_eigenvalues
from eiskling.pullback import p_constant_klingen, p_constant_lfun
from eiskling.values import ExactValue
from eiskling.qexp_diff import minor_monomial
from eiskling.siegel_fourier import SiegelDatum, coeff_p
from eiskling.interpolation import (ArithmeticPoint, check_congruences,
                                    coefficient_family)
from eiskling import cli

from oracles import (QuadFieldElem, bernoulli_akiyama_tanigawa,
                     minor_units_mod_p, quad_minor, rank_one_coeff_p_oracle)


def _report(num, ok, detail):
    print("CRITERION %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _pair(p, k1, k2):
    return SplitPCharPair(DirichletChar.from_exponent(p, k1),
                          DirichletChar.from_exponent(p, k2),
                          at_p1=CycNumber.root_of_unity(4, 1),
                          at_p2=CycNumber.root_of_unity(4, 3))


def _random_hermitian(rng, n, D, span=6):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(rng.randint(-span, span))
        for j in range(i + 1, n):
            a = Fraction(rng.randint(-span, span))
            b = Fraction(rng.randint(-span, span))
            rows[i][j] = (a, b)
            rows[j][i] = (a, -b)
    return HermitianMatrix(D, rows)


def test_criterion_1_gauss_norms():
    """g(chi) g(chibar) = chi(-1) m for every primitive chi of modulus p^t,
    p in {3,5,7}, t <= 2, in under five seconds."""
    t0 = time.monotonic()
    checked = 0
    ok = True
    for p in (3, 5, 7):
        for t in (1, 2):
            m = p ** t
            phi = euler_phi(m)
            for k in range(1, phi):
                chi = DirichletChar.from_exponent(m, k)
                if chi.conductor() != m:
                    continue
                lhs = gauss_sum(chi) * gauss_sum(chi.conj())
                rhs = chi(-1) * CycNumber.from_rational(Fraction(m))
                if lhs != rhs:
                    ok = False
                checked += 1
    elapsed = time.monotonic() - t0
    _report(1, ok and elapsed < 5.0,
            "%d primitive characters across p in {3,5,7}, t <= 2 in %.2fs"
            % (checked, elapsed))


def test_criterion_2_kummer_suite():
    """Kummer congruences for the p-adic L-values with trivial tame branch:
    mod p across k = k' mod (p-1) (k not 0 mod p-1), mod p^2 when additionally
    k = k' mod (p-1)p, with weights up to 30, in under ten seconds."""
    t0 = time.monotonic()
    checks = fails = 0
    for p in (5, 7):
        triv = DirichletChar.trivial()
        vals = {k: kl_specialization(triv, k, p, prec=8)
                for k in range(2, 31) if k % (p - 1) != 0}
        ks = sorted(vals)
        for i, k in enumerate(ks):
            for k2 in ks[i + 1:]:
                if (k2 - k) % (p - 1) != 0:
                    continue
                depth = 2 if (k2 - k) % ((p - 1) * p) == 0 else 1
                if not valuation_at_least(vals[k] - vals[k2], depth):
                    fails += 1
                checks += 1
    elapsed = time.monotonic() - t0
    _report(2, fails == 0 and checks > 0 and elapsed < 10.0,
            "%d congruence checks, %d failures, %.2fs" % (checks, fails,
                                                          elapsed))


def test_criterion_3_bernoulli_oracle():
    """Bernoulli numbers agree with the independent Akiyama-Tanigawa
    recurrence through k = 20."""
    bad = [k for k in range(21)
           if bernoulli_number(k) != bernoulli_akiyama_tanigawa(k)]
    _report(3, not bad, "k <= 20 against the independent recurrence"
            + ("" if not bad else "; mismatches at %s" % bad))


def test_criterion_4_vanishing_and_values():
    """The p-local coefficient vanishes exactly off the brute-force minor-unit
    set (200 random p-integral indices per (p, n) in {5,7} x {2,3}, both
    variants) and matches the literal finite-sum evaluation for rank one."""
    mism = 0
    total = 0
    for p, D in ((5, 1), (7, 3)):
        for n in (2, 3):
            rng = random.Random(9000 + 10 * p + n)
            ks = (1, 2) if p == 5 else (2, 3)
            data = {v: SiegelDatum(n=n, kappa=n + 4, pair=_pair(p, *ks),
                                   p=p, D=D, sigma=(2, p), ell=13, variant=v)
                    for v in ("klingen", "lfun")}
            root = data["klingen"].sqrt_md_mod_p
            done = 0
            while done < 200:
                beta = _random_hermitian(rng, n, D)
                if beta.det() == 0:
                    continue
                for variant, datum in data.items():
                    supported, units = minor_units_mod_p(beta, p, root,
                                                         variant)
                    val = coeff_p(beta, datum)
                    if val.is_zero() != (not (supported and units)):
                        mism += 1
                    total += 1
                done += 1
    # value match for rank one at p = 5 on at least twenty indices
    value_checks = 0
    value_fails = 0
    for at1, at2 in [(CycNumber.one(), CycNumber.one()),
                     (CycNumber.root_of_unity(4, 1),
                      CycNumber.root_of_unity(4, 3))]:
        pair = SplitPCharPair(DirichletChar.from_exponent(5, 1),
                              DirichletChar.from_exponent(5, 2),
                              at_p1=at1, at_p2=at2)
        datum = SiegelDatum(n=1, kappa=6, pair=pair, p=5, D=1, sigma=(2, 5),
                            ell=13, variant="lfun")
        for b in (1, 2, 3, 4, 6, 7, 9, 11, 5, 10, 15, Fraction(1, 2)):
            beta = HermitianMatrix(1, [[Fraction(b)]])
            got = coeff_p(beta, datum).materialize()
            want = rank_one_coeff_p_oracle(Fraction(b), pair, 5, datum.s_point)
            if got != want:
                value_fails += 1
            value_checks += 1
    _report(4, mism == 0 and value_fails == 0 and value_checks >= 20,
            "%d vanishing-set checks (%d mismatches), %d rank-one value "
            "checks (%d mismatches)" % (total, mism, value_checks,
                                        value_fails))


def test_criterion_5_multiplier_oracle():
    """The differential-operator multipliers equal independently computed
    minor products on 500 random indices and are additive in the weight on
    200 random triples."""

    def direct(beta, a, variant):
        acc = QuadFieldElem(Fraction(1), Fraction(0), beta.D)
        padded = tuple(a) + (0,)
        for k in range(1, len(padded)):
            e = padded[k - 1] - padded[k]
            rows = range(1, k + 1) if variant == "klingen" else range(k)
            acc = acc * quad_minor(beta, rows, range(k)) ** e
        return acc.cyc()

    rng = random.Random(20260823)
    fails = 0
    for _ in range(500):
        r = rng.randint(1, 3)
        a = tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True))
        bk = _random_hermitian(rng, r + 1, 1, span=3)
        bl = _random_hermitian(rng, r, 1, span=3)
        if minor_monomial(bk, a) != direct(bk, a, "klingen"):
            fails += 1
        if minor_monomial(bl, a) != direct(bl, a, "lfun"):
            fails += 1
    add_fails = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        a1 = tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True))
        a2 = tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True))
        beta = _random_hermitian(rng, r + 1, 1, span=3)
        m12 = minor_monomial(beta, tuple(x + y for x, y in zip(a1, a2)))
        if not (minor_monomial(beta, a1) * minor_monomial(beta, a2)
                - m12).is_zero():
            add_fails += 1
    _report(5, fails == 0 and add_fails == 0,
            "500 oracle comparisons (%d mismatches), 200 additivity triples "
            "(%d mismatches)" % (fails, add_fails))


def test_criterion_6_hecke_telescoping():
    """U_p eigenvalue exponents on the definite group of signature (r, 0)
    equal the closed form
    e_i = sum_{j=r-i+1..r} (j - a_j) - i(r+1)/2 on 100 random weights with
    1 <= r <= 4, and the extra Klingen eigenvalues sit at the predicted
    shifts."""
    rng = random.Random(606)
    fails = 0
    for _ in range(100):
        r = rng.randint(1, 4)
        a = tuple(sorted((rng.randint(0, 6) for _ in range(r)), reverse=True))
        chis = [CycNumber.root_of_unity(8, i + 1) for i in range(r)]
        eigs = up_eigenvalues(chis, a)
        for i, (unit, exp) in enumerate(eigs, start=1):
            closed = (sum(j - a[j - 1] for j in range(r - i + 1, r + 1))
                      - Fraction(i * (r + 1), 2))
            if exp != closed:
                fails += 1
        if len(eigs) != r:
            fails += 1
    pair = _pair(5, 1, 2)
    eigs = klingen_eigenvalues([CycNumber.root_of_unity(8, 1)], pair, 6,
                               (0,))
    u, e = eigs[0]
    ratios_ok = (eigs[1][0] == u * pair.at_p1.inverse()
                 and eigs[1][1] == e - Fraction(7, 2)
                 and eigs[2][0] == u * pair.at_p1.inverse() * pair.at_p2
                 and eigs[2][1] == e + 4)
    _report(6, fails == 0 and ratios_ok,
            "100 random weights match the closed form (%d failures); "
            "Klingen eigenvalue ratios verified" % fails)


def test_criterion_7_pullback_quotient():
    """p_constant_klingen / p_constant_lfun equals
    tau'(p^-1) p^(kappa - r) g(taubar')^-1 exactly, for r <= 3 and
    kappa <= r + 8."""
    fails = total = 0
    for p, k1, k2 in ((5, 1, 2), (7, 2, 3)):
        for r in (1, 2, 3):
            pair = _pair(p, k1, k2)
            alphas = tuple(CycNumber.root_of_unity(8, 2 * i + 1)
                           for i in range(r))
            want_base = ExactValue(pair.at_p_prime().inverse()).with_gauss(
                pair.tau_prime().conj().primitive_part(), -1)
            for kappa in range(r + 2, r + 9):
                ckl = p_constant_klingen(alphas, pair, kappa, p)
                clf = p_constant_lfun(alphas, pair, kappa, p)
                want = want_base.times_prime_power(p, kappa - r)
                if ckl * clf.inverse() != want:
                    fails += 1
                total += 1
    _report(7, fails == 0, "%d (p, r, kappa) combinations, %d mismatches"
            % (total, fails))


def _criterion_8_family():
    points = [ArithmeticPoint(6, m, flag="Xpb") for m in (0, 4, 8, 12)]
    datum = SiegelDatum(n=2, kappa=6, pair=_pair(5, 1, 2), p=5, D=1,
                        sigma=(2, 5), ell=7, variant="klingen")
    betas = [b for b in enumerate_hermitian(2, 1, 3) if b.det() != 0]
    table = coefficient_family(datum, (0,), points, betas)
    pairs = [(i, j, 1) for i in range(4) for j in range(i + 1, 4)]
    return table, pairs, betas


def test_criterion_8_interpolation_family():
    """Release blocker: the rank-one family at p = 5, D = 1, ell = 7,
    kappa = 6 over the four points m in {0,4,8,12} has every supported
    coefficient of trace <= 3 pairwise congruent mod p, in under a minute."""
    t0 = time.monotonic()
    table, pairs, betas = _criterion_8_family()
    rep = check_congruences(table, pairs, 5, prec=12)
    elapsed = time.monotonic() - t0
    nonzero = sum(1 for c in table["cells"]
                  if "report" in c and not c["report"]["normalized"].is_zero())
    _report(8, rep["all_pass"] and not table["point_errors"] and elapsed < 60.0
            and nonzero > 0,
            "%d indices x 4 points, %d congruence records, %d failures, "
            "%d nonzero cells, %.2fs"
            % (len(betas), len(rep["records"]), rep["failures"], nonzero,
               elapsed))


def test_criterion_9_family_determinism(tmp_path):
    """The family command produces byte-identical reports with one worker and
    with eight."""
    cfg = tmp_path / "fam.cfg"
    cfg.write_text(
        "p = 5\nD = 1\nr = 1\nell = 7\nsigma = 2,5\nkappa = 6\n"
        "tau1 = exp:5:1\ntau2 = exp:5:2\nat_p1 = zeta:4:1\nat_p2 = zeta:4:3\n"
        "a = 0\ntrace_bound = 3\nvariant = klingen\n"
        "points = 6:0:Xpb;6:4:Xpb;6:8:Xpb;6:12:Xpb\n"
        "pairs = 0,1,1;0,2,1;0,3,1;1,2,1;1,3,1;2,3,1\n")
    out1 = tmp_path / "jobs1.json"
    out8 = tmp_path / "jobs8.json"
    rc1 = cli.main(["family", "--config", str(cfg), "--jobs", "1",
                    "--out", str(out1)])
    rc8 = cli.main(["family", "--config", str(cfg), "--jobs", "8",
                    "--out", str(out8)])
    identical = out1.read_bytes() == out8.read_bytes()
    doc = json.loads(out1.read_text())
    _report(9, rc1 == 0 and rc8 == 0 and identical
            and doc["congruences"]["failures"] == 0,
            "family report with --jobs 1 and --jobs 8 %s (%d cells)"
            % ("byte-identical" if identical else "DIFFERS",
               len(doc["table"]["cells"])))
