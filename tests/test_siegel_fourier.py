import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiskling.exact_arith import CycNumber, HermitianMatrix, enumerate_hermitian
from eiskling.characters import DirichletChar, SplitPCharPair
from eiskling.values import ExactValue
from eiskling.siegel_fourier import (
    SiegelDatum,
    additive_char,
    assemble_classes,
    assemble_global,
    coeff_arch_normalized,
    coeff_aux_ell,
    coeff_p,
    index_classes,
    _integral_at,
    _support,
)
from eiskling.errors import EisklingError, UnsupportedBetaError
from eiskling import cli

from oracles import (entry_integral_at, hermitian_of, index_support,
                     minor_units_mod_p, quad_rows, rank_one_coeff_p_oracle,
                     report_text)


def make_pair(p, k1, k2):
    return SplitPCharPair(DirichletChar.from_exponent(p, k1),
                          DirichletChar.from_exponent(p, k2),
                          at_p1=CycNumber.root_of_unity(4, 1),
                          at_p2=CycNumber.root_of_unity(4, 3))


def make_datum(p, D, n, variant, kappa=None, ell=13):
    k1, k2 = (1, 2) if p == 5 else (2, 3)
    kappa = kappa or n + 4
    return SiegelDatum(n=n, kappa=kappa, pair=make_pair(p, k1, k2),
                       p=p, D=D, sigma=(2, p), ell=ell, variant=variant)


def random_integral_hermitian(rng, n, D, span=6):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(rng.randint(-span, span))
        for j in range(i + 1, n):
            a = Fraction(rng.randint(-span, span))
            b = Fraction(rng.randint(-span, span))
            rows[i][j] = (a, b)
            rows[j][i] = (a, -b)
    return HermitianMatrix(D, rows)


def test_additive_char():
    assert additive_char(Fraction(3), 5) == CycNumber.one()
    assert additive_char(Fraction(1, 5), 5) == CycNumber.root_of_unity(5, 1)
    assert additive_char(Fraction(2, 25), 5) == CycNumber.root_of_unity(25, 2)
    # additivity
    x, y = Fraction(1, 5), Fraction(3, 25)
    assert (additive_char(x, 5) * additive_char(y, 5)
            == additive_char(x + y, 5))


def test_rank_one_value_oracle():
    """The p-local coefficient matches the literal finite-sum evaluation of
    the stabilized section for more than twenty rank-one indices."""
    p = 5
    count = 0
    for at1, at2 in [(CycNumber.one(), CycNumber.one()),
                     (CycNumber.root_of_unity(4, 1),
                      CycNumber.root_of_unity(4, 3))]:
        pair = SplitPCharPair(DirichletChar.from_exponent(p, 1),
                              DirichletChar.from_exponent(p, 2),
                              at_p1=at1, at_p2=at2)
        datum = SiegelDatum(n=1, kappa=6, pair=pair, p=p, D=1, sigma=(2, p),
                            ell=13, variant="lfun")
        s = datum.s_point
        for b in (1, 2, 3, 4, 6, 7, 9, 11, 5, 10, 15, Fraction(1, 2)):
            beta = HermitianMatrix(1, [[Fraction(b)]])
            got = coeff_p(beta, datum).materialize()
            want = rank_one_coeff_p_oracle(Fraction(b), pair, p, s)
            assert got == want
            count += 1
    assert count >= 20


@pytest.mark.parametrize("p,D", [(5, 1), (7, 3)])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", ["klingen", "lfun"])
def test_vanishing_set_matches_brute_minors(p, D, n, variant):
    datum = make_datum(p, D, n, variant)
    root = datum.sqrt_md_mod_p
    assert (root * root + D) % p == 0
    rng = random.Random(1000 * p + n)
    checked = 0
    while checked < 40:
        beta = random_integral_hermitian(rng, n, D)
        if beta.det() == 0:
            with pytest.raises(UnsupportedBetaError):
                coeff_p(beta, datum)
            continue
        supported, units = minor_units_mod_p(beta, p, root, variant)
        val = coeff_p(beta, datum)
        assert val.is_zero() == (not (supported and units))
        checked += 1


def test_coeff_p_zero_off_lattice():
    datum = make_datum(5, 1, 2, "lfun")
    beta = HermitianMatrix(1, [[Fraction(1, 5)]])
    datum1 = make_datum(5, 1, 1, "lfun")
    assert coeff_p(beta, datum1).is_zero()


def test_unramified_requires_primitive():
    datum = make_datum(5, 1, 2, "klingen")
    beta = HermitianMatrix(1, [[Fraction(3), Fraction(0)],
                               [Fraction(0), Fraction(3)]])  # det 9
    with pytest.raises(UnsupportedBetaError, match="^beta not primitive at 3$"):
        assemble_global(beta, datum)


def test_aux_ell_support_condition():
    datum = make_datum(5, 1, 2, "klingen")
    beta = HermitianMatrix(1, [[Fraction(1, 13), Fraction(0)],
                               [Fraction(0), Fraction(1)]])
    assert coeff_aux_ell(beta, datum).is_zero()
    good = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(1)]])
    assert not coeff_aux_ell(good, datum).is_zero()


def test_arch_normalized():
    datum = make_datum(5, 1, 2, "klingen", kappa=6)
    beta = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(2)]])
    v = coeff_arch_normalized(beta, datum)
    from math import factorial
    want = ExactValue.from_rational(
        Fraction(1, 4) * Fraction(2 ** 4) / factorial(5))
    assert v == want
    neg = HermitianMatrix(1, [[Fraction(-1), Fraction(0)],
                              [Fraction(0), Fraction(1)]])
    assert coeff_arch_normalized(neg, datum).is_zero()


def test_assemble_global_structure():
    datum = make_datum(5, 1, 2, "klingen", kappa=6)
    beta = HermitianMatrix(1, [[Fraction(1), Fraction(1)],
                               [Fraction(1), Fraction(2)]])
    rep = assemble_global(beta, datum)
    assert rep["degenerate"] is False
    assert set(rep) == {"beta", "variant", "degenerate", "locals",
                        "normalized", "notes"}
    assert set(rep["locals"]) == {"unramified", "ell_prefactor", "ell", "p",
                                  "arch"}
    assert rep["locals"]["unramified"] == ExactValue.one()
    prod = ExactValue.one()
    for v in rep["locals"].values():
        prod = prod * v
    assert prod == rep["normalized"]


def test_assemble_global_degenerate_and_nonpd():
    datum = make_datum(5, 1, 2, "klingen", kappa=6)
    zero = HermitianMatrix(1, [[Fraction(0), Fraction(0)],
                               [Fraction(0), Fraction(0)]])
    rep = assemble_global(zero, datum)
    assert rep["degenerate"] and rep["normalized"].is_zero()
    indef = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                                [Fraction(0), Fraction(-1)]])
    rep2 = assemble_global(indef, datum)
    assert not rep2["degenerate"] and rep2["normalized"].is_zero()
    assert any("positive definite" in n for n in rep2["notes"])


def test_assemble_global_rejects_non_primitive_index():
    datum = make_datum(5, 1, 2, "klingen", kappa=6)
    # det 3, and det 21 with two good primes: the smaller one is named
    for d in (3, 21):
        beta = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                                   [Fraction(0), Fraction(d)]])
        with pytest.raises(UnsupportedBetaError,
                           match="^beta not primitive at 3$"):
            assemble_global(beta, datum)
    # with 2 outside sigma, an even determinant meets the ramified prime 2
    no_two = SiegelDatum(n=2, kappa=6, pair=make_pair(5, 1, 2), p=5, D=1,
                         sigma=(5,), ell=13, variant="klingen")
    det2 = HermitianMatrix(1, [[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(2)]])
    with pytest.raises(UnsupportedBetaError,
                       match="^ramified prime 2 not supported$"):
        assemble_global(det2, no_two)


def test_prefactor_ell_matches_inverse_lfactors():
    """ell_prefactor times prod_{i<n} (1 - taubar'(ell) chi_K(ell)^i
    ell^{-(kappa-i)}) is 1, the product taken in CycNumber arithmetic;
    chi_K(ell) = (-1)^((ell-1)/2) for K = Q(i)."""
    for n in (2, 3):
        for ell in (7, 13):
            datum = make_datum(5, 1, n, "klingen", kappa=6, ell=ell)
            tpb = (datum.pair.tau1(ell) * datum.pair.tau2(ell)).conj()
            ck = (-1) ** ((ell - 1) // 2)
            product = CycNumber.one()
            for i in range(n):
                product = product * (CycNumber.one() - tpb * ck ** i
                                     * Fraction(ell) ** (i - 6))
            assert datum.ell_prefactor.materialize() * product == 1


# nonsingular enumerated indices of sizes 2 and 3 over Q(i), among them
# indices that are not integral at 2, 3 or 5 (dual_scale 2, 3, 5)
INDEX_POOL = [beta for n, scale, trace in [(2, 1, 4), (2, 2, 3), (2, 3, 2),
                                           (2, 5, 2), (3, 1, 3)]
              for beta in enumerate_hermitian(n, 1, trace, scale)
              if beta.det() != 0]


@st.composite
def datums(draw, n):
    """A datum for n x n indices over Q(i) at p = 5: every field that an
    index's shared facts read is drawn."""
    k1, k2 = draw(st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 3), (1, 1)]))
    return SiegelDatum(
        n=n, kappa=draw(st.integers(n, n + 5)), pair=make_pair(5, k1, k2),
        p=5, D=1, sigma=(2, 5), ell=draw(st.sampled_from([3, 7, 13])),
        y_norm=draw(st.sampled_from([Fraction(1), Fraction(7, 3),
                                     Fraction(49), Fraction(-7, 5)])),
        embedding_choice=draw(st.integers(0, 1)),
        variant=draw(st.sampled_from(["klingen", "lfun"])))


def coefficient_json(beta, datum):
    try:
        return report_text(assemble_global(beta, datum))
    except EisklingError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@given(st.sampled_from(INDEX_POOL), st.data())
@settings(max_examples=60, deadline=None)
def test_index_memo_is_invisible(beta, data):
    """One index object evaluated under a run of different datums gives what
    a fresh copy of it gives under each, and its integrality and support
    read from the common denominator agree with the entry-by-entry loop."""
    for datum in data.draw(st.lists(datums(beta.n), min_size=2, max_size=5)):
        fresh = hermitian_of(beta.D, quad_rows(beta))
        assert coefficient_json(beta, datum) == coefficient_json(fresh, datum)
    assert _support(beta) == index_support(beta)
    for q in (2, 3, 5, 7, 13):
        assert _integral_at(beta, q) == entry_integral_at(beta, q)


README_KEYS = {"p": "5", "D": "1", "r": "1", "ell": "7", "sigma": "2,5",
               "kappa": "6", "tau1": "exp:5:1", "tau2": "exp:5:2",
               "at_p1": "zeta:4:1", "at_p2": "zeta:4:3", "trace_bound": "3",
               "variant": "klingen"}

# each reaches a different part of the key: indices in (1/s)O_K, the ell
# trace with y_norm away from 1, n = 3, n = 1 and another field and prime
KEYED_CONFIGS = {
    "readme": {},
    "r=2 trace 5": {"r": "2", "trace_bound": "5"},
    "lfun": {"variant": "lfun"},
    "dual_scale=2": {"dual_scale": "2"},
    "dual_scale=3": {"dual_scale": "3"},
    "dual_scale=7": {"dual_scale": "7"},
    "y_norm=7/3": {"y_norm": "7/3"},
    "D=3 p=7": {"p": "7", "D": "3", "ell": "5", "sigma": "3,7",
                "tau1": "exp:7:1", "tau2": "exp:7:2", "at_p1": "zeta:6:1",
                "at_p2": "zeta:6:5", "trace_bound": "4"},
}


@pytest.mark.parametrize("name", sorted(KEYED_CONFIGS))
def test_keyed_assembly_matches_fresh_assembly(name, tmp_path):
    """Every index of a config, read from the entry of its invariant class
    as cmd_coeff reads it, gives the report text or error string that a
    fresh copy of the index gives under a fresh copy of the datum; and
    fewer classes than indices have their local factors computed."""
    path = tmp_path / "run.cfg"
    path.write_text("".join("%s = %s\n" % item for item in
                            {**README_KEYS, **KEYED_CONFIGS[name]}.items()))
    cfg = cli.load_config(str(path))
    datum = cli._build_datum(cfg)
    betas = cli._betas(cfg, datum.n)
    reps, of = index_classes(betas, datum)
    entries = assemble_classes(reps, datum)
    keyed = [entries[c] if isinstance(entries[c], str)
             else report_text({**entries[c], "beta": beta})
             for beta, c in zip(betas, of)]
    fresh = [coefficient_json(hermitian_of(beta.D, quad_rows(beta)),
                              replace(datum)) for beta in betas]
    assert keyed == fresh
    computed = [e for e in entries if not isinstance(e, str) and e["locals"]]
    assert len(computed) < len(betas)


def test_keyed_assembly_tells_denominators_apart():
    """Over Q(sqrt(-2)), where ell = 3 splits, an integral index and one
    with entries in (1/3)O_K share det 1, the image diagonal sum 2 and
    their residues mod 11, and differ in the ell factor: zero off the
    lattice at ell.  In either order, they fall into different classes and
    each gets its own value."""
    pair = SplitPCharPair(DirichletChar.from_exponent(11, 1),
                          DirichletChar.from_exponent(11, 2),
                          at_p1=CycNumber.root_of_unity(4, 1),
                          at_p2=CycNumber.root_of_unity(4, 3))
    datum = SiegelDatum(n=2, kappa=6, pair=pair, p=11, D=2, sigma=(2, 11),
                        ell=3)
    integral = HermitianMatrix(2, [[1, -1], [-1, 2]])
    third = HermitianMatrix(2, [[3, -1], [-1, Fraction(2, 3)]])
    assert integral.det() == third.det() == 1
    assert (integral.den, third.den) == (1, 3)
    for order in ([integral, third], [third, integral]):
        reps, of = index_classes(order, datum)
        assert [beta for beta, _ in reps] == order and of == [0, 1]
        for beta, report in zip(order, assemble_classes(reps, datum)):
            assert (report_text(report)
                    == report_text(assemble_global(beta, replace(datum))))
            assert report["locals"]["ell"].is_zero() == (beta is third)
            assert not report["locals"]["p"].is_zero()
