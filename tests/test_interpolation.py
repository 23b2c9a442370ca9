from dataclasses import replace
from fractions import Fraction

import pytest

from eiskling import interpolation, siegel_fourier
from eiskling.exact_arith import CycNumber, enumerate_hermitian
from eiskling.characters import DirichletChar, SplitPCharPair
from eiskling.siegel_fourier import SiegelDatum, index_classes
from eiskling.values import ExactValue
from eiskling.interpolation import (
    ArithmeticPoint,
    _compare_cells,
    check_congruences,
    coefficient_family,
    padic_cell,
    specialize,
    wild_char,
)
from eiskling.errors import ConductorError, ConfigError
from oracles import coefficient_family_per_point, report_text


def family(**fields):
    """The datum of the rank-one family at p = 5; its pair is the seed."""
    pair = SplitPCharPair(DirichletChar.from_exponent(5, 1),
                          DirichletChar.from_exponent(5, 2),
                          at_p1=CycNumber.root_of_unity(4, 1),
                          at_p2=CycNumber.root_of_unity(4, 3))
    fields = {"n": 2, "kappa": 6, "pair": pair, "p": 5, "D": 1,
              "sigma": (2, 5), "ell": 7, "variant": "klingen", **fields}
    return SiegelDatum(**fields)


def test_wild_char():
    z = CycNumber.root_of_unity(5, 2)
    chi = wild_char(5, z)
    assert chi.conductor() == 25
    assert chi(6) == z  # 6 = 1 + p
    assert chi.order() == 5
    assert wild_char(5, CycNumber.one()).is_trivial()
    with pytest.raises(ConfigError, match="p-power order"):
        wild_char(5, CycNumber.root_of_unity(3))


def test_specialize_twist_directions():
    datum = family()
    base, _ = specialize(ArithmeticPoint(6, 0), datum, (0,))
    moved, weight = specialize(ArithmeticPoint(6, 4), datum, (0,))
    # the m-direction leaves the product character fixed
    assert base.pair.tau_prime().key() == moved.pair.tau_prime().key()
    assert weight == (4,)
    # zeta1 moves the product by a wild twist
    z = CycNumber.root_of_unity(5)
    wild1, _ = specialize(ArithmeticPoint(6, 0, zeta1=z), datum, (0,))
    assert wild1.pair.tau_prime().conductor() == 25
    # zeta2 leaves the product fixed (self-dual direction)
    wild2, _ = specialize(ArithmeticPoint(6, 0, zeta2=z), datum, (0,))
    assert (wild2.pair.tau_prime().primitive_part().key()
            == base.pair.tau_prime().primitive_part().key())
    assert wild2.pair.tau1.conductor() == 25


def test_specialize_injective_on_lattice():
    datum = family()
    z = CycNumber.root_of_unity(5)
    pts = [ArithmeticPoint(6, 0), ArithmeticPoint(6, 1),
           ArithmeticPoint(7, 0), ArithmeticPoint(6, 0, zeta1=z),
           ArithmeticPoint(6, 0, zeta2=z)]
    seen = set()
    for pt in pts:
        at, weight = specialize(pt, datum, (0,))
        key = (at.kappa, weight, at.pair.tau1.key(), at.pair.tau2.key())
        assert key not in seen
        seen.add(key)


def test_specialize_carries_the_datum_over():
    """The datum at a point differs from the family's only in its weight
    kappa and its pair."""
    datum = family(n=1, sigma=(2, 3, 5), ell=13, y_norm=Fraction(7, 3),
                   vol_Y=Fraction(1, 3), embedding_choice=1,
                   variant="lfun")
    z = CycNumber.root_of_unity(5)
    at, weight = specialize(ArithmeticPoint(8, 4, zeta2=z), datum, (1,))
    assert (at.kappa, weight) == (8, (5,))
    assert at.pair != datum.pair
    assert replace(at, kappa=datum.kappa, pair=datum.pair) == datum


def test_xpb_validation():
    datum = family()
    specialize(ArithmeticPoint(6, 0, flag="Xpb"), datum, (0,))  # fine
    with pytest.raises(ConductorError):  # kappa too small
        specialize(ArithmeticPoint(2, 0, flag="Xpb"), datum, (0,))
    # m_phi = 3 makes tau2 * omega^-3 trivial: conductor drops to 1
    bad = ArithmeticPoint(6, 2, flag="Xpb")
    with pytest.raises(ConductorError):
        specialize(bad, datum, (0,))


def test_xpb_conductor_condition_value():
    # m = 2: tau2 omega^-2 = omega^0 trivial -> product condition violated
    at, _ = specialize(ArithmeticPoint(6, 2, flag="X"), family(), (0,))
    assert not at.pair.conductors_all_p(5)


def make_table(pts, a=(0,)):
    betas = [b for b in enumerate_hermitian(2, 1, 3) if b.det() != 0]
    return coefficient_family(family(), a, pts, betas), betas


def cells_by_key(table):
    """The cells of a family table by (point index, index number)."""
    return {(cell["point"], cell["beta"]): cell for cell in table["cells"]}


def test_family_single_point_delegates():
    pts = [ArithmeticPoint(6, 0, flag="Xpb")]
    table, betas = make_table(pts)
    assert len(table["cells"]) == len(betas)
    assert not table["point_errors"]
    assert any(not c["report"]["normalized"].is_zero()
               for c in table["cells"])


def test_family_rejects_bad_point_continues():
    pts = [ArithmeticPoint(6, 0, flag="Xpb"), ArithmeticPoint(6, 2, flag="Xpb")]
    table, betas = make_table(pts)
    assert "1" in table["point_errors"]
    assert all(c["point"] == 0 for c in table["cells"])


def test_invalid_points_are_typed_point_errors():
    pts = [ArithmeticPoint(6, 4, flag="Xpb"), ArithmeticPoint(1, 4),
           ArithmeticPoint(6, 4, zeta1=CycNumber.root_of_unity(3)),
           ArithmeticPoint(6, 0)]
    table, betas = make_table(pts, a=(-2,))
    assert table["point_errors"] == {
        "1": "ConfigError: need kappa >= n",
        "2": "ConfigError: zeta must have p-power order",
        "3": "ConfigError: specialized weight (-2,) has a negative entry"}
    assert {c["point"] for c in table["cells"]} == {0}


@pytest.mark.parametrize("target", ["assemble_global", "specialize"])
def test_family_does_not_swallow_bugs(monkeypatch, target):
    """Only package errors become cell or point records; a TypeError is a
    bug and reaches the caller."""
    def broken(*args):
        raise TypeError("broken %s" % target)
    module = siegel_fourier if target == "assemble_global" else interpolation
    monkeypatch.setattr(module, target, broken)
    with pytest.raises(TypeError, match=target):
        make_table([ArithmeticPoint(6, 0, flag="Xpb")])


def test_family_assembles_once_per_distinct_datum(monkeypatch):
    """Points m = 0, 4 and m = 1, 5 interleave two specialized datums and
    the kappa = 8 point is a third: assemble_global runs once per datum and
    invariant class, and every cell is the one the per-point loop builds,
    each with its own report and notes.  The indices in (1/2)O_K include
    every integral one of trace at most 3, some of them share a class and
    some end in error records."""
    pts = [ArithmeticPoint(6, 0, flag="Xpb"), ArithmeticPoint(6, 1),
           ArithmeticPoint(6, 4, flag="Xpb"), ArithmeticPoint(6, 5),
           ArithmeticPoint(8, 4, flag="Xpb")]
    betas = [b for b in enumerate_hermitian(2, 1, 3, 2) if b.det() != 0]
    want = coefficient_family_per_point(family(), (2,), pts, betas)
    reps, _ = index_classes(betas, family())
    assert len(reps) < len(betas)
    calls = []
    assemble = siegel_fourier.assemble_global

    def spy(beta, datum, *rest):
        calls.append((beta, datum.kappa, datum.pair.tau1.key()))
        return assemble(beta, datum, *rest)
    monkeypatch.setattr(siegel_fourier, "assemble_global", spy)
    got = coefficient_family(family(), (2,), pts, betas)
    assert len(calls) == len(set(calls)) == 3 * len(reps)
    assert len(got["cells"]) == len(want["cells"])
    assert not got["point_errors"] and not want["point_errors"]
    for cell, fresh in zip(got["cells"], want["cells"]):
        assert report_text(cell) == report_text(fresh)
        if "report" in cell:
            assert cell["report"]["normalized"] == fresh["report"]["normalized"]
    notes = [id(cell["report"]["notes"]) for cell in got["cells"]
             if "report" in cell]
    assert len(set(notes)) == len(notes) == sum(
        "report" in cell for cell in want["cells"])


def test_family_cells_do_not_depend_on_the_shared_row():
    """At p = 7 a character of order 3 is stored at level 3 and its
    product with omega^6 at level 6; omega^0 holds the table of omega^6, so
    the point m = 6 reads the same whether its row was assembled for it or
    for the point m = 0 before it."""
    pair = SplitPCharPair(DirichletChar.from_exponent(7, 2),
                          DirichletChar.from_exponent(7, 2),
                          at_p1=CycNumber.root_of_unity(6, 1),
                          at_p2=CycNumber.root_of_unity(6, 5))
    datum = SiegelDatum(n=2, kappa=6, pair=pair, p=7, D=3, sigma=(3, 7),
                        ell=5)
    betas = [b for b in enumerate_hermitian(2, 3, 3) if b.det() != 0]
    alone = coefficient_family(datum, (0,), [ArithmeticPoint(6, 6)], betas)
    shared = coefficient_family(
        datum, (0,), [ArithmeticPoint(6, 0), ArithmeticPoint(6, 6)], betas)
    assert sum("report" in cell for cell in alone["cells"]) > 1
    shared, alone = cells_by_key(shared), cells_by_key(alone)
    for j in range(len(betas)):
        got, want = shared[1, j], alone[0, j]
        assert got.get("error") == want.get("error")
        if "report" in want:
            assert (report_text(got["report"])
                    == report_text(want["report"]))


def test_congruence_verdict_once_per_distinct_forms(monkeypatch):
    """The cells of equal values share one value object, at one point or
    across points: _compare_cells runs once per distinct (form, form, k),
    far fewer times than there are records, and every record is what
    comparing freshly built forms of its two cells gives."""
    pts = [ArithmeticPoint(6, m, flag="Xpb") for m in (0, 4, 8)] + [
        ArithmeticPoint(8, 12, flag="Xpb")]
    table, betas = make_table(pts)
    pairs = [(0, 1, 1), (1, 0, 1), (0, 2, 2), (1, 2, 1), (0, 3, 1),
             (3, 2, 1)]
    compare = interpolation._compare_cells
    calls = []

    def spy(c1, c2, k, *rest):
        calls.append((c1, c2, k))
        return compare(c1, c2, k, *rest)
    monkeypatch.setattr(interpolation, "_compare_cells", spy)
    records = check_congruences(table, pairs, 5)["records"]
    keys = [(id(c1), id(c2), k) for c1, c2, k in calls]
    assert len(keys) == len(set(keys))
    compared = [r for r in records if r["status"] != "SKIPPED"]
    assert 0 < len(calls) < len(compared)
    build = interpolation.padic_cell
    cells = cells_by_key(table)
    expected = []
    for i1, i2, k in pairs:
        for j in range(len(betas)):
            c1, c2 = cells[i1, j], cells[i2, j]
            if "report" in c1 and "report" in c2:
                expected.append(compare(build(c1["report"]["normalized"], 5),
                                        build(c2["report"]["normalized"], 5),
                                        k, 5, 12, 0))
            else:
                expected.append(("SKIPPED", "cell error or missing"))
    assert [(r["status"], r["detail"]) for r in records] == expected
    assert {status for status, _ in expected} == {"PASS", "FAIL"}


def test_family_holds_one_value_per_distinct_representation(monkeypatch):
    """On the README family at trace 6, the seed-0 input of the family-p5
    benchmark, the cells hold 55 distinct values, each one object with one
    key() and one report text.  key() runs once per class value of the
    row and once per product the weight multiplier makes, not once per
    cell.  check_congruences then reads each value once and compares each
    distinct (value, value, k) once, and the residues mod p of each index
    are read once, when the indices are grouped."""
    pts = [ArithmeticPoint(6, m, flag="Xpb") for m in (0, 4, 8, 12)]
    betas = [b for b in enumerate_hermitian(2, 1, 6) if b.det() != 0]
    pairs = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1),
             (2, 3, 1)]
    calls = {}
    for module, name in [(siegel_fourier, "_residues_mod_p"),
                         (interpolation, "padic_cell"),
                         (interpolation, "_compare_cells")]:
        calls[name] = []

        def spy(*args, fn=getattr(module, name), seen=calls[name]):
            seen.append(args)
            return fn(*args)
        monkeypatch.setattr(module, name, spy)
    key = ExactValue.key
    keyed = []

    def counted_key(value):
        keyed.append(value)
        return key(value)
    monkeypatch.setattr(ExactValue, "key", counted_key)
    table = coefficient_family(family(), (0,), pts, betas)
    monkeypatch.setattr(ExactValue, "key", key)
    assert len(betas) == 191 and len(table["cells"]) == 4 * len(betas)
    assert len(keyed) <= 299
    read = [id(args[0]) for args in calls["_residues_mod_p"]]
    assert len(read) == len(set(read)) <= len(betas)
    values = [cell["report"]["normalized"] for cell in table["cells"]
              if "report" in cell]
    assert (len({id(v) for v in values}) == len({v.key() for v in values})
            == len({report_text(v.to_json()) for v in values}) == 55)
    check_congruences(table, pairs, 5)
    assert len(calls["padic_cell"]) == 55
    assert len(calls["_compare_cells"]) == 119


def test_congruence_identical_points_pass_all():
    pts = [ArithmeticPoint(6, 0, flag="Xpb"), ArithmeticPoint(6, 0, flag="Xpb")]
    table, betas = make_table(pts)
    rep = check_congruences(table, [(0, 1, 6)], 5)
    assert rep["all_pass"]


def test_congruence_symmetry():
    pts = [ArithmeticPoint(6, 0, flag="Xpb"), ArithmeticPoint(6, 4, flag="Xpb")]
    table, _ = make_table(pts)
    a = check_congruences(table, [(0, 1, 1)], 5)
    b = check_congruences(table, [(1, 0, 1)], 5)
    assert [r["status"] for r in a["records"]] == [r["status"]
                                                  for r in b["records"]]


def test_congruence_detects_failure():
    # points congruent only mod nothing: m-difference not divisible by p-1
    pts = [ArithmeticPoint(6, 0, flag="Xpb"), ArithmeticPoint(6, 1, flag="X")]
    table, _ = make_table(pts)
    rep = check_congruences(table, [(0, 1, 1)], 5)
    assert any(r["status"] == "FAIL" for r in rep["records"])


_G5 = DirichletChar.from_exponent(5, 1)


@pytest.mark.parametrize("v1, v2, k, verdict", [
    (ExactValue(CycNumber.one(), gauss={_G5.key(): (_G5, 1)}),
     ExactValue.one(), 1,
     ("INCOMPARABLE", "cells carry different Gauss symbols")),
    (ExactValue(CycNumber.one(), {5: Fraction(1, 2)}),
     ExactValue(CycNumber.one(), {5: 1}), 1,
     ("INCOMPARABLE", "half-integral p-power mismatch")),
    (ExactValue(CycNumber.one(), {5: 2}),
     ExactValue(CycNumber.root_of_unity(4, 1), {5: 3}), 1,
     ("PASS", "required valuation -1 already met by prime powers")),
    (ExactValue(CycNumber.one(), {5: Fraction(1, 2)}),
     ExactValue(CycNumber.one(), {5: Fraction(5, 2)}), 1,
     ("INCOMPARABLE", "half-integral required valuation 1/2")),
    (ExactValue.one(), ExactValue(CycNumber.root_of_unity(5, 1)), 1,
     ("INCOMPARABLE", "UnsupportedEmbeddingError: element of level 5 does "
      "not descend to level 1")),
], ids=["gauss", "p-power", "met", "half-target", "ramified"])
def test_compare_cells_verdicts(v1, v2, k, verdict):
    """The verdicts that no golden family report reaches, each on a pair of
    hand-made values at p = 5."""
    assert _compare_cells(padic_cell(v1, 5), padic_cell(v2, 5), k, 5, 12,
                          0) == verdict


def test_congruence_records_match_pairwise_comparison(monkeypatch):
    """Each distinct value object's p-adic form is built once and its
    valuation read once, however many cells and pairs hold it; every record, the INCOMPARABLE detail
    of a non-integral exponent and the vanishing partner of such a cell
    included, is what comparing its two cells alone gives."""
    build = interpolation.padic_cell
    p_valuation = ExactValue.p_valuation
    builds, valuations = [], []

    def counted_build(value, p):
        builds.append(value)
        return build(value, p)

    def counted_valuation(value, p):
        valuations.append(value)
        return p_valuation(value, p)
    monkeypatch.setattr(interpolation, "padic_cell", counted_build)
    monkeypatch.setattr(ExactValue, "p_valuation", counted_valuation)
    half = ExactValue.one().times_prime_power(7, Fraction(1, 2))
    rat = ExactValue.from_rational
    columns = [[half * rat(3), half, half * rat(2)],
               [rat(10), rat(35), ExactValue.zero()],
               [half * rat(5), rat(2), half],
               [half * rat(25), ExactValue.zero(), half * rat(3)]]
    cells = [{"point": i, "beta": j, "report": {"normalized": column[i]}}
             for i in range(3) for j, column in enumerate(columns)]
    table = {"points": [{"kappa_phi": 6, "m_phi": m, "flag": "X"}
                        for m in (0, 4, 8)],
             "betas": [None] * len(columns),
             "point_errors": {}, "cells": cells}
    pairs = [(0, 1, 1), (0, 2, 1), (1, 2, 2), (2, 0, 1)]
    records = check_congruences(table, pairs, 5)["records"]
    # twelve cells, half in two of them; one build per distinct value
    # object: ExactValue.zero() and half each fill two cells
    assert len(builds) == len({id(v) for c in columns for v in c}) == 10
    assert sorted(map(id, valuations)) == sorted(
        id(v) for v in builds if not v.is_zero())
    expected = [_compare_cells(build(columns[j][i1], 5),
                               build(columns[j][i2], 5), k, 5, 12, 0)
                for i1, i2, k in pairs for j in range(len(columns))]
    assert [(r["status"], r["detail"]) for r in records] == expected
    assert expected.count(("INCOMPARABLE",
                           "non-integral exponent 1/2 at prime 7")) == 10
    # a non-integral exponent at 7 does not matter when the partner vanishes
    assert expected[3] == ("PASS",
                           "one cell vanishes; the other has valuation 2")
    assert expected[3 + 2 * len(columns)] == (
        "FAIL", "one cell vanishes; the other has valuation 0 < 2")
