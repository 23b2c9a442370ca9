"""Command-line front end: config ingestion, batch computation, JSON reports.

Subcommands: coeff, family, kl, hecke, pullback, enumerate, selftest.
Output is deterministic: stable key ordering, canonical rational encoding,
and a content hash of the canonicalized config in every report.
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from .errors import ConfigError, EisklingError
from .exact_arith import (ENUMERATION_CAP, CycNumber, count_hermitian,
                          enumerate_hermitian, factorize, is_prime)
from .characters import DirichletChar, SplitPCharPair, chi_K, gauss_sum
from .bernoulli_kl import kl_specialization, bernoulli_number
from .hecke import kappa_set, up_eigenvalues, klingen_eigenvalues
from .pullback import (p_constant_klingen, p_constant_lfun,
                       klingen_ratio_unramified)
from .padic import PadicElem, congruent_mod
from .siegel_fourier import (SiegelDatum, assemble_classes, index_classes,
                             index_size)
from .interpolation import (ArithmeticPoint, coefficient_family,
                            check_congruences)

SCHEMA = 1


def parse_char(text):
    """Character specs: 'trivial', 'trivial:m', 'quadratic:q',
    'teichmuller:p:k', 'exp:m:k'."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "trivial":
            return DirichletChar.trivial(int(parts[1]) if len(parts) > 1 else 1)
        if parts[0] == "quadratic":
            return DirichletChar.quadratic(int(parts[1]))
        if parts[0] in ("teichmuller", "exp"):
            return DirichletChar.from_exponent(int(parts[1]), int(parts[2]))
    except (IndexError, ValueError) as exc:
        raise ConfigError("bad character spec %r: %s" % (text, exc))
    raise ConfigError("unknown character spec %r" % text)


def parse_cyc(text):
    """Cyclotomic specs: a rational, or 'zeta:m:k' for zeta_m^k."""
    text = text.strip()
    try:
        if text.startswith("zeta:"):
            _, m, k = text.split(":")
            return CycNumber.root_of_unity(int(m), int(k))
        return CycNumber.from_rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("bad cyclotomic spec %r: %s" % (text, exc))


def parse_point(text):
    """Point specs: 'kappa:m', 'kappa:m:flag', optionally
    ':zeta:m1:k1:zeta:m2:k2' appended for the two roots of unity."""
    parts = text.strip().split(":")
    try:
        kappa = int(parts[0])
        m = int(parts[1])
        rest = parts[2:]
        flag = "X"
        if rest and rest[0] in ("X", "Xpb"):
            flag = rest[0]
            rest = rest[1:]
        zetas = []
        while rest:
            if rest[0] != "zeta" or len(rest) < 3:
                raise ValueError("expected zeta:m:k")
            zetas.append(CycNumber.root_of_unity(int(rest[1]), int(rest[2])))
            rest = rest[3:]
        if len(zetas) > 2:
            raise ValueError("at most two roots of unity")
        zetas += [CycNumber.one()] * (2 - len(zetas))
        return ArithmeticPoint(kappa, m, zetas[0], zetas[1], flag)
    except (IndexError, ValueError) as exc:
        raise ConfigError("bad point spec %r: %s" % (text, exc))


def parse_pair(text):
    """Congruence pair specs: 'i,j,k' for the points i, j mod p^k."""
    nums = [int(x) for x in text.split(",")]
    if len(nums) != 3:
        raise ConfigError("pair spec needs i,j,k: %r" % text)
    return tuple(nums)


def _list(parse, sep):
    """The parser of a sep-separated list of parse's specs; empty items
    are skipped."""
    return lambda text: tuple(parse(x) for x in text.split(sep) if x.strip())


_KEYS = {
    # key: (parser of its value, default or None when required by the command)
    "D": (int, 1),
    "p": (int, None),
    "r": (int, 1),
    "ell": (int, None),
    "a": (_list(int, ","), ()),
    "kappa": (int, None),
    "tau1": (parse_char, None),
    "tau2": (parse_char, None),
    "chi": (parse_char, DirichletChar.trivial()),
    "at_p1": (parse_cyc, CycNumber.one()),
    "at_p2": (parse_cyc, CycNumber.one()),
    "trace_bound": (int, 2),
    "dual_scale": (int, 1),
    "prec": (int, 12),
    "embedding_choice": (int, 0),
    "sigma": (_list(int, ","), ()),
    "variant": (str, "klingen"),
    "y_norm": (Fraction, Fraction(1)),
    "vol_Y": (Fraction, Fraction(1)),
    "points": (_list(parse_point, ";"), ()),
    "pairs": (_list(parse_pair, ";"), ()),
    "k_min": (int, 1),
    "k_max": (int, 10),
    "q": (int, None),
    "satake": (_list(parse_cyc, ","), ()),
    "s": (Fraction, None),
}


def load_config(path):
    """Flat 'key = value' config file; unknown keys are errors, and a key
    with an empty value is unset, in the config hash too."""
    raw = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError("line %d: expected 'key = value'" % lineno)
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _KEYS:
                    raise ConfigError("line %d: unknown key %r" % (lineno, key))
                if key in raw:
                    raise ConfigError("line %d: duplicate key %r" % (lineno, key))
                raw[key] = value.strip()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    raw = {key: value for key, value in raw.items() if value}
    cfg = {}
    for key, (parse, default) in _KEYS.items():
        if key in raw:
            try:
                cfg[key] = parse(raw[key])
            except (ConfigError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError("key %r: %s" % (key, exc))
            except EisklingError as exc:
                raise ConfigError("key %r: %s: %s"
                                  % (key, type(exc).__name__, exc))
        else:
            cfg[key] = default
    cfg["_raw"] = raw
    return cfg


def config_hash(cfg):
    canon = "\n".join("%s=%s" % (k, v) for k, v in sorted(cfg["_raw"].items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def _require(cfg, *keys):
    for k in keys:
        if cfg.get(k) is None:
            raise ConfigError("missing required key %r" % k)


def _validate_common(cfg):
    _require(cfg, "p")
    p = cfg["p"]
    if p == 2 or not is_prime(p):
        raise ConfigError("key 'p': must be an odd prime, got %d" % p)
    if cfg["D"] <= 0 or any(e > 1 for e in factorize(cfg["D"]).values()):
        raise ConfigError("key 'D': must be a squarefree positive integer")
    if chi_K(cfg["D"], p) != 1:
        raise ConfigError("key 'p': %d does not split for D=%d" % (p, cfg["D"]))


def _emit(report, out_path):
    """Write the report as json.dumps(report, sort_keys=True, indent=2)
    would write it with tuples as lists, in one pass over plain JSON
    values: str, int, bool, None, dicts with str keys, lists and tuples.
    Every other object is written from its to_json() form; an object
    without one (a Fraction, a float, a str or int subclass) and a dict
    key that is not a str raise TypeError.

    An object's form is written at depth 0 the first time the object
    appears in this call; that text is kept once per object and depth,
    indented to that depth, and pasted in at each place the object
    appears.  Each dict key is escaped once per call."""
    parts = []
    put = parts.append
    escape = json.encoder.encode_basestring_ascii
    keys = {}  # dict key -> its escaped text followed by ": "
    # pad -> (inner pad, text before the first item, text between items,
    # end of a dict, end of a list) for a container at pad
    layouts = {}
    texts = {}  # id(obj) -> (obj, {pad: text}); holding obj keeps its id

    def write(obj, pad):
        kind = type(obj)
        if kind is str:
            put(escape(obj))
        elif kind is int:
            put(int.__repr__(obj))
        elif kind is dict or kind is list or kind is tuple:
            if not obj:
                put("{}" if kind is dict else "[]")
                return
            layout = layouts.get(pad)
            if layout is None:
                inner = pad + "  "
                layout = layouts[pad] = (inner, "\n" + inner, ",\n" + inner,
                                         "\n" + pad + "}", "\n" + pad + "]")
            inner, sep, comma, end_dict, end_list = layout
            if kind is not dict:
                put("[")
                for v in obj:
                    put(sep)
                    write(v, inner)
                    sep = comma
                put(end_list)
                return
            if not obj.keys() <= keys.keys():
                for k in obj.keys() - keys.keys():
                    keys[k] = escape(k) + ": "
            put("{")
            for k, v in sorted(obj.items()):
                if type(k) is not str:
                    raise TypeError("dict key %r is not a str" % (k,))
                put(sep)
                put(keys[k])
                write(v, inner)
                sep = comma
            put(end_dict)
        elif obj is None:
            put("null")
        elif kind is bool:
            put("true" if obj else "false")
        else:
            entry = texts.get(id(obj))
            if entry is None:
                if not hasattr(obj, "to_json"):
                    raise TypeError("Object of type %s is not JSON "
                                    "serializable" % kind.__name__)
                start = len(parts)
                write(obj.to_json(), "")
                entry = texts[id(obj)] = (obj, {"": "".join(parts[start:])})
                del parts[start:]
            by_pad = entry[1]
            text = by_pad.get(pad)
            if text is None:
                text = by_pad[pad] = by_pad[""].replace("\n", "\n" + pad)
            put(text)

    write(report, "")
    put("\n")
    out = "".join(parts)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise ConfigError("cannot write report %s: %s" % (out_path, exc))
    else:
        sys.stdout.write(out)


def _build_pair(cfg):
    _require(cfg, "tau1", "tau2")
    for key in ("at_p1", "at_p2"):
        if cfg[key].is_zero():
            raise ConfigError("key %r: must be nonzero" % key)
    return SplitPCharPair(cfg["tau1"], cfg["tau2"], at_p1=cfg["at_p1"],
                          at_p2=cfg["at_p2"])


def _rank(cfg):
    """The rank r of the definite group U(r, 0); the paper's r is positive."""
    if cfg["r"] < 1:
        raise ConfigError("need r >= 1")
    return cfg["r"]


def _sigma(cfg):
    """The places of sigma; each must be a prime."""
    for q in cfg["sigma"]:
        if not is_prime(q):
            raise ConfigError("key 'sigma': entries must be primes, got %d"
                              % q)
    return cfg["sigma"]


def _build_datum(cfg):
    _require(cfg, "ell")
    ell = cfg["ell"]
    if not is_prime(ell):
        raise ConfigError("key 'ell': must be a prime, got %d" % ell)
    if cfg["y_norm"] == 0:
        raise ConfigError("key 'y_norm': must be nonzero")
    if cfg["vol_Y"] <= 0:
        raise ConfigError("key 'vol_Y': must be positive")
    n = index_size(_rank(cfg), cfg["variant"])
    return SiegelDatum(n=n, kappa=cfg["kappa"], pair=_build_pair(cfg),
                       p=cfg["p"], D=cfg["D"], sigma=_sigma(cfg),
                       ell=ell, y_norm=cfg["y_norm"], vol_Y=cfg["vol_Y"],
                       embedding_choice=cfg["embedding_choice"],
                       variant=cfg["variant"])


def _betas(cfg, n):
    """The enumerated indices; a config whose enumeration would exceed the
    cap is rejected from the candidate count, before any is built."""
    if cfg["dual_scale"] < 1:
        raise ConfigError("key 'dual_scale': must be positive")
    args = (n, cfg["D"], cfg["trace_bound"], cfg["dual_scale"])
    if count_hermitian(*args) > ENUMERATION_CAP:
        raise ConfigError("key 'trace_bound': enumeration cap %d exceeded"
                          % ENUMERATION_CAP)
    return list(enumerate_hermitian(*args))


def _base_weight(cfg):
    """The base weight a: r nonincreasing ints, all zero when unset."""
    r = _rank(cfg)
    a = cfg["a"] or (0,) * r
    if len(a) != r:
        raise ConfigError("key 'a': need %d values" % r)
    if any(x < y for x, y in zip(a, a[1:])):
        raise ConfigError("key 'a': must be nonincreasing")
    return a


def _satake(cfg):
    """The Satake parameters: r values, all ones when unset."""
    r = _rank(cfg)
    chis = cfg["satake"] or (CycNumber.one(),) * r
    if len(chis) != r:
        raise ConfigError("key 'satake': need %d values" % r)
    if any(x.is_zero() for x in chis):
        raise ConfigError("key 'satake': values must be nonzero")
    return chis


def _pairs(cfg):
    """The congruence pairs (i, j, k): two different indices into 'points'
    and a k >= 1."""
    last = len(cfg["points"]) - 1
    for pair in cfg["pairs"]:
        i, j, k = pair
        spec = "%d,%d,%d" % pair
        if not (0 <= i <= last and 0 <= j <= last):
            raise ConfigError("key 'pairs': %s names a point outside 0..%d"
                              % (spec, last))
        if i == j:
            raise ConfigError("key 'pairs': %s compares a point with itself"
                              % spec)
        if k < 1:
            raise ConfigError("key 'pairs': %s needs k >= 1" % spec)
    return list(cfg["pairs"])


def cmd_coeff(cfg):
    _validate_common(cfg)
    _require(cfg, "kappa")
    datum = _build_datum(cfg)
    betas = _betas(cfg, datum.n)
    reps, of = index_classes(betas, datum)
    entries = assemble_classes(reps, datum)
    reports = []
    for beta, c in zip(betas, of):
        entry = entries[c]
        if isinstance(entry, str):
            reports.append({"beta": beta, "error": entry})
        else:
            reports.append({**entry, "beta": beta})
    return {"command": "coeff", "reports": reports}


def cmd_family(cfg):
    _validate_common(cfg)
    _require(cfg, "kappa", "tau1", "tau2")
    if not cfg["points"]:
        raise ConfigError("key 'points': at least one arithmetic point needed")
    pairs = _pairs(cfg)
    a = _base_weight(cfg)
    datum = _build_datum(cfg)
    betas = [b for b in _betas(cfg, datum.n) if b.det()]
    if not betas:
        # congruences over no index would certify nothing
        raise ConfigError("key 'trace_bound': no nonsingular index has "
                          "trace at most %d" % cfg["trace_bound"])
    table = coefficient_family(datum, a, list(cfg["points"]), betas)
    report = {"command": "family", "table": table}
    if pairs:
        report["congruences"] = check_congruences(
            table, pairs, cfg["p"], prec=cfg["prec"],
            choice=cfg["embedding_choice"])
    return report


def cmd_kl(cfg):
    _validate_common(cfg)
    p = cfg["p"]
    chi = cfg["chi"]
    if cfg["k_min"] < 1:
        raise ConfigError("key 'k_min': must be at least 1")
    if cfg["k_max"] < cfg["k_min"]:
        raise ConfigError("key 'k_max': must be at least k_min")
    sigma = _sigma(cfg)
    ks = list(range(cfg["k_min"], cfg["k_max"] + 1))
    values = {}
    for k in ks:
        try:
            values[k] = kl_specialization(chi, k, p, sigma=sigma,
                                          prec=cfg["prec"],
                                          choice=cfg["embedding_choice"])
        except EisklingError:
            values[k] = None
    matrix = {}
    for k in ks:
        # the weights congruent to k mod p - 1 above it
        for k2 in range(k + p - 1, cfg["k_max"] + 1, p - 1):
            if values[k] is None or values[k2] is None:
                continue
            try:
                matrix["%d,%d" % (k, k2)] = congruent_mod(values[k], values[k2], 1)
            except EisklingError as exc:
                matrix["%d,%d" % (k, k2)] = "insufficient: %s" % exc
    return {"command": "kl", "p": p,
            "values": {str(k): v for k, v in values.items()},
            "kummer_congruences_mod_p": matrix}


def cmd_hecke(cfg):
    _validate_common(cfg)
    _require(cfg, "kappa", "tau1", "tau2")
    a = _base_weight(cfg)
    if a[-1] < 0:
        raise ConfigError("key 'a': must be nonnegative")
    kappa = cfg["kappa"]
    chis = _satake(cfg)
    pair = _build_pair(cfg)
    kappas = kappa_set(a)
    ups = up_eigenvalues(chis, a)
    kls = klingen_eigenvalues(chis, pair, kappa, a)
    fmt = lambda lst: [{"unit": u, "p_exponent": str(e)}
                       for u, e in lst]
    return {"command": "hecke",
            "kappa_set": [str(k) for k in kappas],
            "up_eigenvalues": fmt(ups),
            "klingen_eigenvalues": fmt(kls)}


def cmd_pullback(cfg):
    _validate_common(cfg)
    _require(cfg, "kappa", "tau1", "tau2")
    p = cfg["p"]
    q = cfg["q"]
    if (q is None) != (cfg["s"] is None):
        # the unramified ratio is computed from both or not at all
        missing, given = ("q", "s") if q is None else ("s", "q")
        raise ConfigError("key %r: must be set with %r" % (missing, given))
    if q is not None and (not is_prime(q) or q == p
                          or chi_K(cfg["D"], q) != 1):
        raise ConfigError("key 'q': must be a prime that splits in K and "
                          "differs from p")
    kappa = cfg["kappa"]
    pair = _build_pair(cfg)
    alphas = _satake(cfg)
    ckl = p_constant_klingen(alphas, pair, kappa, p)
    clf = p_constant_lfun(alphas, pair, kappa, p)
    out = {"command": "pullback",
           "p_constant_klingen": ckl,
           "p_constant_lfun": clf,
           "ratio": ckl * clf.inverse()}
    if q is not None:
        tv = pair.at_p1
        tvbar = pair.at_p2
        out["unramified_ratio"] = klingen_ratio_unramified(
            alphas, (tv, tvbar), q, cfg["s"],
            variant=cfg["variant"])
    return out


def cmd_enumerate(cfg):
    _validate_common(cfg)
    betas = _betas(cfg, index_size(_rank(cfg), cfg["variant"]))
    return {"command": "enumerate", "count": len(betas),
            "betas": betas}


def cmd_selftest(cfg):
    checks = []
    chi = DirichletChar.from_exponent(5, 1)
    g = gauss_sum(chi)
    checks.append(("gauss_norm_5",
                   g * gauss_sum(chi.conj()) == chi(-1) * CycNumber.from_rational(5)))
    checks.append(("bernoulli_12", bernoulli_number(12) == Fraction(-691, 2730)))
    v = kl_specialization(DirichletChar.trivial(), 4, 5, prec=10)
    expect = Fraction(-31, 30)
    checks.append(("kl_trivial_k4_p5",
                   (v - PadicElem.from_fraction(expect, 5, 10)).is_zero()))
    ok = all(flag for _, flag in checks)
    return {"command": "selftest", "ok": ok,
            "checks": [{"name": n, "pass": bool(f)} for n, f in checks]}


_COMMANDS = {
    "coeff": cmd_coeff,
    "family": cmd_family,
    "kl": cmd_kl,
    "hecke": cmd_hecke,
    "pullback": cmd_pullback,
    "enumerate": cmd_enumerate,
    "selftest": cmd_selftest,
}


def build_parser():
    ap = argparse.ArgumentParser(prog="eiskling")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility and ignored: cells are "
                         "computed serially")
    ap.add_argument("--prec", type=int, default=None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.command == "selftest":
            cfg = {k: d for k, (_, d) in _KEYS.items()}
            cfg["_raw"] = {}
        else:
            raise ConfigError("--config is required for %r" % args.command)
        if args.prec is not None:
            cfg["prec"] = args.prec
            cfg["_raw"]["prec"] = str(args.prec)
        if cfg["prec"] < 1:
            raise ConfigError("key 'prec': must be at least 1")
        report = _COMMANDS[args.command](cfg)
        report["schema"] = SCHEMA
        report["config_hash"] = config_hash(cfg)
        # schema 1 pins a "seed" key, though nothing here is random
        report["seed"] = 0
        _emit(report, args.out)
    except EisklingError as exc:
        # a ConfigError names the key; the package's other errors mean the
        # config asks for what the formulas do not cover
        if not isinstance(exc, ConfigError):
            exc = "%s: %s" % (type(exc).__name__, exc)
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    if args.command == "selftest" and not report.get("ok"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
