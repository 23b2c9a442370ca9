"""Arithmetic points, specialization of the two-variable character family,
coefficient families across points, and the congruences that boundedness of
the underlying measure forces on them.

Family elements are represented extensionally: values at finitely many
arithmetic points together with congruence certificates, never as power
series.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from .errors import (ConductorError, ConfigError, EisklingError,
                     InsufficientPrecisionError, NonIntegralExponentError,
                     UnsupportedEmbeddingError)
from .exact_arith import CycNumber
from .characters import DirichletChar, SplitPCharPair, _divisors
from .padic import embed_cyclotomic, valuation_at_least
from .values import ExactValue
from .qexp_diff import times_multiplier
from .siegel_fourier import assemble_classes, index_classes


@dataclass(frozen=True)
class ArithmeticPoint:
    """A point of the two-variable weight space: an integer weight kappa_phi,
    a twist m_phi, and two p-power roots of unity giving the finite-order
    parts in the two Galois directions.  flag is "X" (general point) or "Xpb"
    (point where the pullback construction applies: conductor-p triple and
    kappa_phi > r + 1, validated at specialization time)."""

    kappa_phi: int
    m_phi: int
    zeta1: CycNumber = field(default_factory=CycNumber.one)
    zeta2: CycNumber = field(default_factory=CycNumber.one)
    flag: str = "X"

    def __post_init__(self):
        if self.flag not in ("X", "Xpb"):
            raise ValueError("flag must be 'X' or 'Xpb'")
        if self.m_phi < 0:
            raise ValueError("m_phi must be nonnegative")

    def label(self):
        return "kappa=%d,m=%d" % (self.kappa_phi, self.m_phi)


def _p_power_order(zeta, p):
    """Order of a root of unity, checked to be a power of p: the least
    divisor d of lcm(2, level) with zeta^d = 1, as every root of unity in
    Q(zeta_level) has an order dividing lcm(2, level)."""
    order = next((d for d in _divisors(lcm(2, zeta.level)) if zeta ** d == 1),
                 None)
    if order is None:
        raise ConfigError("not a root of unity of small order")
    n = order
    while n % p == 0:
        n //= p
    if n != 1:
        raise ConfigError("zeta must have p-power order")
    return order


def wild_char(p, zeta):
    """The character of p-power conductor sending the topological generator
    1 + p to the given p-power root of unity (trivial for zeta = 1)."""
    order = _p_power_order(zeta, p)
    if order == 1:
        return DirichletChar.trivial(p)
    modulus = order * p
    for k in range(order):
        chi = DirichletChar.from_exponent(modulus, k * (p - 1))
        if chi(1 + p) == zeta:
            return chi
    raise ConfigError("no character matches the requested generator value")


def specialize(point, datum, a):
    """The datum at an arithmetic point, and the point's weight.

    The family's seed is datum.pair: tame characters tau1, tau2 mod p with
    their values at the two uniformizers above p (the companion character of
    the doubled group is determined by it and never stored); a is the base
    weight of the definite group.  The twist m_phi moves the two components by
    opposite powers of the Teichmuller character (so their product is constant
    along that direction); zeta1 twists the second component by a wild
    character (moving the product); zeta2 enters only through the self-dual
    twist, which at the split prime multiplies the two components by a wild
    character and its inverse.  The specialized weight is
    (a_1 + m_phi, ..., a_r + m_phi).
    """
    p = datum.p
    seed = datum.pair
    omega = DirichletChar.from_exponent(p, 1)
    w1 = wild_char(p, point.zeta1)
    w2 = wild_char(p, point.zeta2)
    tau1 = seed.tau1 * omega ** point.m_phi * w2
    tau2 = seed.tau2 * omega ** (-point.m_phi) * w1 * w2.conj()
    pair = SplitPCharPair(tau1, tau2, at_p1=seed.at_p1, at_p2=seed.at_p2)
    if point.flag == "Xpb":
        if point.kappa_phi <= datum.r + 1:
            raise ConductorError("pullback point needs kappa_phi > r + 1")
        if not pair.conductors_all_p(p):
            raise ConductorError(
                "pullback point needs tau1, tau2, tau1*tau2 of conductor p")
    weight = tuple(x + point.m_phi for x in a)
    if weight and weight[-1] < 0:
        raise ConfigError("specialized weight %s has a negative entry"
                          % (weight,))
    return replace(datum, kappa=point.kappa_phi, pair=pair), weight


def _point_cell(i, j, beta, entry, weight, interned):
    """The cell of point i at index j, beta, from the entry of beta's
    invariant class at the point's datum: an error or a degenerate report
    (a singular index is its own class) as it is, any other report as a new
    one at beta with the weight multiplier applied, sharing the class's
    locals.  A value the multiplier made is replaced by the one of its key()
    in interned; the entry's own value is interned already."""
    if isinstance(entry, str):
        return {"point": i, "beta": j, "error": entry}
    if entry["degenerate"]:
        return {"point": i, "beta": j, "report": entry}
    value = entry["normalized"]
    normalized = times_multiplier(value, beta, weight)
    if normalized is not value:
        normalized = interned.setdefault(normalized.key(), normalized)
    notes = entry["notes"] + ["weight multiplier applied: a = %s" % (weight,)]
    return {"point": i, "beta": j, "report": {
        **entry, "beta": beta, "normalized": normalized, "notes": notes}}


def coefficient_family(datum, a, points, betas):
    """Compute the full matrix of normalized coefficients: one row per
    arithmetic point (the datum specialized there, base weight a), one
    column per hermitian index, with the weight multiplier of the point
    applied.  Rejected points and failed cells become error records; the
    family continues past them.

    The table is the dict the command line writes: points, betas,
    point_errors (by the point's index as a string) and cells, a list of
    {"point", "beta", "report" or "error"} in (point, beta) order.

    The indices are grouped into invariant classes once; no specialization
    changes the classes.  Points whose specialized datums are equal (with
    zeta = 1, those of one residue class of m_phi mod p - 1 and one
    kappa_phi) differ only in the weight: each class is assembled once per
    distinct datum, and each point applies its own multiplier per index.
    The family holds one value object per distinct representation
    (ExactValue.key()), so cells of equal values share it: a row's class
    values are interned when the row is assembled, and a cell's value only
    when the multiplier made a new one."""
    cells = []
    point_errors = {}
    interned = {}  # ExactValue.key() -> the family's value of that key
    reps, of = index_classes(betas, datum)
    rows = []  # (specialized datum, its entry per class)
    for i, pt in enumerate(points):
        try:
            at, weight = specialize(pt, datum, a)
        except EisklingError as exc:
            point_errors[str(i)] = "%s: %s" % (type(exc).__name__, exc)
            continue
        row = next((entries for seen, entries in rows if seen == at), None)
        if row is None:
            row = assemble_classes(reps, at)
            for entry in row:
                if not isinstance(entry, str):
                    value = entry["normalized"]
                    entry["normalized"] = interned.setdefault(value.key(),
                                                              value)
            rows.append((at, row))
        for j, beta in enumerate(betas):
            cells.append(_point_cell(i, j, beta, row[of[j]], weight,
                                     interned))
    return {"points": [{"kappa_phi": pt.kappa_phi, "m_phi": pt.m_phi,
                        "flag": pt.flag} for pt in points],
            "betas": list(betas), "point_errors": point_errors,
            "cells": cells}


@dataclass(frozen=True)
class PadicCell:
    """The p-adic reading of a nonzero cell value, made once per value
    object (the cells of a family with equal values share one): val,
    its valuation at p (ExactValue.p_valuation); nu, the exponent of p;
    gauss_key, its Gauss content; and unit, the part away from p and the
    Gauss symbols materialized as a CycNumber, or error, the text of the
    NonIntegralExponentError that materializing raised."""

    val: object
    nu: object
    gauss_key: tuple
    unit: CycNumber
    error: str


def padic_cell(value, p):
    """The PadicCell of an exact value at p, or None when it is zero.
    check_congruences calls it once per distinct value object."""
    if value.is_zero():
        return None
    unit = error = None
    try:
        unit = ExactValue(value.unit, {q: e for q, e in value.exps.items()
                                       if q != p}).materialize()
    except NonIntegralExponentError as exc:
        error = str(exc)
    return PadicCell(value.p_valuation(p), value.exps.get(p, 0),
                     tuple(sorted((k, n) for k, (chi, n)
                                  in value.gauss.items())), unit, error)


def _compare_cells(c1, c2, k, p, prec, choice):
    """Status of the congruence mod p^k between two exact values, given as
    their padic_cell forms c1, c2, compared through their unit parts after
    aligning identical Gauss content and p-powers."""
    if c1 is None and c2 is None:
        return "PASS", "both cells vanish"
    if c1 is None or c2 is None:
        nu = (c1 or c2).val
        if nu >= k:
            return "PASS", "one cell vanishes; the other has valuation %s" % nu
        return "FAIL", ("one cell vanishes; the other has valuation %s < %d"
                        % (nu, k))
    error = c1.error or c2.error
    if error:
        return "INCOMPARABLE", error
    if c1.gauss_key != c2.gauss_key:
        return "INCOMPARABLE", "cells carry different Gauss symbols"
    gshift = c1.val - c1.nu  # common Gauss contribution at p
    nu0 = min(c1.nu, c2.nu)
    d1, d2 = c1.nu - nu0, c2.nu - nu0
    if d1.denominator != 1 or d2.denominator != 1:
        return "INCOMPARABLE", "half-integral p-power mismatch"
    target = Fraction(k) - gshift - nu0
    if target <= 0:
        return "PASS", "required valuation %s already met by prime powers" % target
    if target.denominator != 1:
        return "INCOMPARABLE", "half-integral required valuation %s" % target
    diff = (ExactValue(c1.unit, {p: d1}).materialize()
            - ExactValue(c2.unit, {p: d2}).materialize())
    if diff.is_zero():
        return "PASS", "unit parts agree exactly"
    try:
        ok = valuation_at_least(embed_cyclotomic(diff, p, prec, choice=choice),
                                int(target))
    except InsufficientPrecisionError as exc:
        return "INSUFFICIENT", str(exc)
    except UnsupportedEmbeddingError as exc:
        return "INCOMPARABLE", "%s: %s" % (type(exc).__name__, exc)
    if ok:
        return "PASS", "unit difference has valuation >= %s" % target
    return "FAIL", "unit difference has valuation < %s" % target


def check_congruences(table, pairs, p, prec=12, choice=0):
    """Check that cells of the family table satisfy the congruences the
    boundedness of the measure predicts.

    table: a coefficient_family table of the family at the prime p.
    pairs: list of (point_index, point_index, k).  For every pair and every
    index beta the two cell values must agree mod p^k after embedding.
    Returns a report with one record per (pair, beta); failures carry the
    full detail string.

    The cells of a coefficient_family table with equal values share one
    value object, so the PadicCell is built once per distinct value and the
    verdict computed once per distinct (form, form, k); the table keeps the
    values alive, so their ids stay distinct while this runs."""
    read = {i for i1, i2, _ in pairs for i in (i1, i2)}
    by_value = {}  # id(normalized) -> PadicCell or None
    forms = {}
    for cell in table["cells"]:
        if cell["point"] in read and "report" in cell:
            value = cell["report"]["normalized"]
            if id(value) not in by_value:
                by_value[id(value)] = padic_cell(value, p)
            forms[cell["point"], cell["beta"]] = by_value[id(value)]
    verdicts = {}  # (id(form), id(form), k) -> (status, detail)
    records = []
    for (i1, i2, k) in pairs:
        for j in range(len(table["betas"])):
            if (i1, j) in forms and (i2, j) in forms:
                c1, c2 = forms[i1, j], forms[i2, j]
                case = (id(c1), id(c2), k)
                if case not in verdicts:
                    verdicts[case] = _compare_cells(c1, c2, k, p, prec,
                                                    choice)
                status, detail = verdicts[case]
            else:
                status, detail = "SKIPPED", "cell error or missing"
            records.append({"pair": (i1, i2), "beta": j, "k": k,
                            "status": status, "detail": detail})
    n_fail = sum(1 for r in records if r["status"] == "FAIL")
    return {"records": records, "failures": n_fail,
            "all_pass": all(r["status"] == "PASS" for r in records)}
