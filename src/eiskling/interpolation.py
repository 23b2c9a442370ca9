"""Arithmetic points, specialization of the two-variable character family,
coefficient families across points, and the congruences that boundedness of
the underlying measure forces on them.

Family elements are represented extensionally: values at finitely many
arithmetic points together with congruence certificates, never as power
series.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (ConductorError, ConfigError, EisklingError,
                     InsufficientPrecisionError, NonIntegralExponentError,
                     UnsupportedEmbeddingError)
from .exact_arith import CycNumber
from .characters import DirichletChar, SplitPCharPair
from .padic import embed_cyclotomic, valuation_at_least
from .values import ExactValue
from .qexp_diff import times_multiplier
from .siegel_fourier import assemble_global


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


@dataclass
class CharFamilySpec:
    """The finite-order seed of the family: tame characters tau1, tau2 mod p
    with their values at the two uniformizers above p, the rank r, and the
    base weight a of the definite group.  The companion character of the
    doubled group is determined by this data (its conjugate-inverse shifted
    by (r-1)/2) and is never stored separately."""

    p: int
    r: int
    tau1: DirichletChar
    tau2: DirichletChar
    at_p1: CycNumber = field(default_factory=CycNumber.one)
    at_p2: CycNumber = field(default_factory=CycNumber.one)
    a: tuple = ()

    def __post_init__(self):
        self.a = tuple(int(x) for x in self.a)
        if len(self.a) != self.r:
            raise ValueError("base weight must have length r")
        if any(self.a[i] < self.a[i + 1] for i in range(self.r - 1)):
            raise ValueError("base weight must be nonincreasing")


def _p_power_order(zeta, p):
    """Order of a root of unity, checked to be a power of p."""
    if zeta == CycNumber.one():
        return 1
    order = 1
    z = zeta
    while not z == CycNumber.one():
        z = z * zeta
        order += 1
        if order > 10 ** 4:
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


@dataclass
class SpecializedPoint:
    """Exact specialized data at an arithmetic point: the split-p character
    pair, the finite part of the auxiliary self-dual twist, the specialized
    weight vector, and the algebraic infinity-type exponents."""

    pair: SplitPCharPair
    psi_finite: DirichletChar
    weight: tuple
    kappa_phi: int
    m_phi: int


def specialize(point, fam):
    """Specialize the character family at an arithmetic point.

    The twist m_phi moves the two components by opposite powers of the
    Teichmuller character (so their product is constant along that
    direction); zeta1 twists the second component by a wild character (moving
    the product); zeta2 enters only through the self-dual twist, which at the
    split prime multiplies the two components by a wild character and its
    inverse.  The specialized weight is (a_1 + m_phi, ..., a_r + m_phi).
    """
    p = fam.p
    omega = DirichletChar.teichmuller_char(p, 1)
    w1 = wild_char(p, point.zeta1)
    w2 = wild_char(p, point.zeta2)
    tau1 = fam.tau1 * omega ** point.m_phi * w2
    tau2 = fam.tau2 * omega ** (-point.m_phi) * w1 * w2.conj()
    pair = SplitPCharPair(tau1, tau2, at_p1=fam.at_p1, at_p2=fam.at_p2)
    if point.flag == "Xpb":
        if point.kappa_phi <= fam.r + 1:
            raise ConductorError("pullback point needs kappa_phi > r + 1")
        if not pair.conductors_all_p(p):
            raise ConductorError(
                "pullback point needs tau1, tau2, tau1*tau2 of conductor p")
    weight = tuple(x + point.m_phi for x in fam.a)
    if weight and weight[-1] < 0:
        raise ConfigError("specialized weight %s has a negative entry"
                          % (weight,))
    return SpecializedPoint(pair, w2, weight, point.kappa_phi, point.m_phi)


@dataclass
class FamilyCell:
    point_index: int
    beta_index: int
    report: object = None
    error: str = None

    def value(self):
        return None if self.report is None else self.report.normalized

    def to_json(self):
        out = {"point": self.point_index, "beta": self.beta_index}
        if self.error is not None:
            out["error"] = self.error
        else:
            out["report"] = self.report.to_json()
        return out


@dataclass
class FamilyTable:
    fam: CharFamilySpec
    points: list
    betas: list
    cells: dict  # (point_index, beta_index) -> FamilyCell
    point_errors: dict  # point_index -> str for rejected points

    def cell(self, i, j):
        return self.cells.get((i, j))

    def to_json(self):
        """The table's data; indices and cell values stay objects, which
        cli._emit writes as their to_json() forms."""
        return {
            "points": [{"kappa_phi": pt.kappa_phi, "m_phi": pt.m_phi,
                        "flag": pt.flag} for pt in self.points],
            "betas": self.betas,
            "point_errors": {str(i): e for i, e in sorted(self.point_errors.items())},
            "cells": [self.cells[k].to_json() for k in sorted(self.cells)],
        }


def _compute_cell(i, j, beta, datum, weight):
    try:
        report = assemble_global(beta, datum)
        if not report.degenerate:
            normalized = times_multiplier(report.normalized, beta,
                                          datum.variant, weight)
            report = replace(report, normalized=normalized,
                             notes=report.notes + ["weight multiplier applied: "
                                                   "a = %s" % (weight,)])
        return FamilyCell(i, j, report=report)
    except EisklingError as exc:  # per-cell error records; the family continues
        return FamilyCell(i, j, error="%s: %s" % (type(exc).__name__, exc))


def coefficient_family(fam, points, betas, datum_template):
    """Compute the full matrix of normalized coefficients: one row per
    arithmetic point (specialized datum), one column per hermitian index,
    with the weight multiplier of the point applied.  Rejected points and
    failed cells become error records; the family continues past them."""
    cells = {}
    point_errors = {}
    for i, pt in enumerate(points):
        try:
            spec = specialize(pt, fam)
            datum = replace(datum_template, kappa=pt.kappa_phi, pair=spec.pair)
        except EisklingError as exc:
            point_errors[i] = "%s: %s" % (type(exc).__name__, exc)
            continue
        for j, beta in enumerate(betas):
            cells[(i, j)] = _compute_cell(i, j, beta, datum, spec.weight)
    return FamilyTable(fam, list(points), list(betas), cells, point_errors)


def _split_for_congruence(value, p):
    """Write an ExactValue as (unit CycNumber away from p) * p^nu * (common
    Gauss symbol data).  Returns (key, nu, unit) where key freezes the Gauss
    content; raises NonIntegralExponentError when prime exponents away from
    p are non-integral."""
    gauss_key = tuple(sorted((k, n) for k, (chi, n) in value.gauss.items()))
    unit = ExactValue(value.unit, {q: e for q, e in value.exps.items()
                                   if q != p}).materialize()
    return gauss_key, value.exps.get(p, Fraction(0)), unit


def _compare_cells(v1, v2, k, p, prec, choice, split=_split_for_congruence):
    """Status of the congruence v1 = v2 mod p^k between two exact values,
    compared through their unit parts after aligning identical Gauss content
    and p-powers.  split(value, p) is _split_for_congruence or a memo of
    it."""
    if v1.is_zero() and v2.is_zero():
        return "PASS", "both cells vanish"
    if v1.is_zero() or v2.is_zero():
        w = v2 if v1.is_zero() else v1
        nu = w.p_valuation(p)
        if nu >= k:
            return "PASS", "one cell vanishes; the other has valuation %s" % nu
        return "FAIL", ("one cell vanishes; the other has valuation %s < %d"
                        % (nu, k))
    try:
        g1, nu1, u1 = split(v1, p)
        g2, nu2, u2 = split(v2, p)
    except NonIntegralExponentError as exc:
        return "INCOMPARABLE", str(exc)
    if g1 != g2:
        return "INCOMPARABLE", "cells carry different Gauss symbols"
    gshift = v1.p_valuation(p) - nu1  # common Gauss contribution at p
    nu0 = min(nu1, nu2)
    d1, d2 = nu1 - nu0, nu2 - nu0
    if d1.denominator != 1 or d2.denominator != 1:
        return "INCOMPARABLE", "half-integral p-power mismatch"
    target = Fraction(k) - gshift - nu0
    if target <= 0:
        return "PASS", "required valuation %s already met by prime powers" % target
    if target.denominator != 1:
        return "INCOMPARABLE", "half-integral required valuation %s" % target
    diff = (ExactValue(u1, {p: d1}).materialize()
            - ExactValue(u2, {p: d2}).materialize())
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


def check_congruences(table, pairs, prec=12, choice=0):
    """Check that cells of the family table satisfy the congruences the
    boundedness of the measure predicts.

    pairs: list of (point_index, point_index, k).  For every pair and every
    index beta the two cell values must agree mod p^k after embedding.
    Returns a report with one record per (pair, beta); failures carry the
    full detail string."""
    p = table.fam.p
    records = []
    splits = {}  # id(cell value) -> its split, or the error splitting raised

    def split(value, p):
        # each cell is split once, however many pairs it is in; the table
        # holds the values, so their ids stay theirs
        s = splits.get(id(value))
        if s is None:
            try:
                s = _split_for_congruence(value, p)
            except NonIntegralExponentError as exc:
                s = exc
            splits[id(value)] = s
        if isinstance(s, NonIntegralExponentError):
            raise s.with_traceback(None)
        return s
    for (i1, i2, k) in pairs:
        for j in range(len(table.betas)):
            c1 = table.cell(i1, j)
            c2 = table.cell(i2, j)
            if c1 is None or c2 is None or c1.error or c2.error:
                records.append({"pair": (i1, i2), "beta": j, "k": k,
                                "status": "SKIPPED",
                                "detail": "cell error or missing"})
                continue
            status, detail = _compare_cells(c1.value(), c2.value(), k, p,
                                            prec, choice, split)
            records.append({"pair": (i1, i2), "beta": j, "k": k,
                            "status": status, "detail": detail})
    n_fail = sum(1 for r in records if r["status"] == "FAIL")
    return {"records": records, "failures": n_fail,
            "all_pass": all(r["status"] == "PASS" for r in records)}

