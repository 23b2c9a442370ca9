import contextlib
import enum
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from eiskling.cli import (_emit, config_hash, main, load_config, parse_char,
                          parse_cyc, parse_point)
from eiskling.errors import ConfigError
from eiskling.characters import DirichletChar
from eiskling.exact_arith import CycNumber, HermitianMatrix, euler_phi
from eiskling.padic import PadicElem
from eiskling.values import ExactValue

from oracles import report_text


FAMILY_CFG = """\
p = 5
D = 1
r = 1
ell = 7
sigma = 2,5
kappa = 6
tau1 = exp:5:1
tau2 = exp:5:2
at_p1 = zeta:4:1
at_p2 = zeta:4:3
a = 0
trace_bound = 2
variant = klingen
points = 6:0:Xpb;6:4:Xpb
pairs = 0,1,1
"""


def write(tmp_path, text, name="run.cfg"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_parse_helpers():
    assert parse_char("trivial").modulus == 1
    assert parse_char("exp:5:1").conductor() == 5
    assert parse_cyc("zeta:4:1") == CycNumber.root_of_unity(4)
    from fractions import Fraction
    assert parse_cyc("-3/2") == CycNumber.from_rational(Fraction(-3, 2))
    pt = parse_point("6:4:Xpb")
    assert pt.kappa_phi == 6 and pt.m_phi == 4 and pt.flag == "Xpb"
    pt2 = parse_point("6:0:zeta:5:1")
    assert pt2.zeta1 == CycNumber.root_of_unity(5)
    with pytest.raises(ConfigError):
        parse_char("nonsense")
    with pytest.raises(ConfigError):
        parse_cyc("zeta:4")


def test_unknown_key_fails_closed(tmp_path):
    path = write(tmp_path, "p = 5\nwibble = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, "p = 5\np = 7\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_p_validation(tmp_path):
    for bad in ("2", "1", "0", "9"):
        path = write(tmp_path, FAMILY_CFG.replace("p = 5", "p = " + bad))
        code = main(["family", "--config", path])
        assert code == 2


def test_nonsplit_p_rejected(tmp_path):
    path = write(tmp_path, FAMILY_CFG.replace("p = 5", "p = 7")
                 .replace("ell = 7", "ell = 5"))
    code = main(["family", "--config", path])
    assert code == 2


def test_selftest():
    assert main(["selftest", "--out", "/dev/null"]) == 0


def test_family_runs_and_is_deterministic(tmp_path):
    path = write(tmp_path, FAMILY_CFG)
    out1 = tmp_path / "a.json"
    out8 = tmp_path / "b.json"
    assert main(["family", "--config", path, "--jobs", "1",
                 "--out", str(out1)]) == 0
    assert main(["family", "--config", path, "--jobs", "8",
                 "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == 1
    assert doc["congruences"]["all_pass"] is True
    assert len(doc["config_hash"]) == 64


def test_family_partial_point_failure(tmp_path):
    cfg = FAMILY_CFG.replace("points = 6:0:Xpb;6:4:Xpb",
                             "points = 6:0:Xpb;6:2:Xpb").replace(
        "pairs = 0,1,1", "pairs =")
    path = write(tmp_path, cfg)
    out = tmp_path / "o.json"
    assert main(["family", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "1" in doc["table"]["point_errors"]
    assert all(c["point"] == 0 for c in doc["table"]["cells"])


def test_pair_on_a_rejected_point_is_skipped(tmp_path):
    path = write(tmp_path, FAMILY_CFG.replace("points = 6:0:Xpb;6:4:Xpb",
                                              "points = 6:0:Xpb;6:2:Xpb"))
    out = tmp_path / "o.json"
    assert main(["family", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "1" in doc["table"]["point_errors"]
    records = doc["congruences"]["records"]
    assert records and all(r["status"] == "SKIPPED" for r in records)
    assert doc["congruences"]["all_pass"] is False


def test_enumerate_and_coeff(tmp_path):
    path = write(tmp_path, FAMILY_CFG)
    out = tmp_path / "e.json"
    assert main(["enumerate", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == len(doc["betas"]) > 0
    out2 = tmp_path / "c.json"
    assert main(["coeff", "--config", path, "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert len(doc2["reports"]) == doc["count"]


def test_kl_command(tmp_path):
    cfg = "p = 5\nD = 1\nchi = trivial\nk_min = 2\nk_max = 10\n"
    path = write(tmp_path, cfg)
    out = tmp_path / "kl.json"
    assert main(["kl", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # A_4 = -31/30 has valuation -1 at 5
    assert doc["values"]["4"]["valuation"] == -1
    assert doc["kummer_congruences_mod_p"]["2,6"] is True
    assert doc["kummer_congruences_mod_p"]["6,10"] is True


def test_hecke_and_pullback_commands(tmp_path):
    cfg = ("p = 5\nD = 1\nr = 2\nkappa = 8\ntau1 = exp:5:1\ntau2 = exp:5:2\n"
           "at_p1 = zeta:4:1\nat_p2 = zeta:4:3\na = 1,0\n"
           "satake = zeta:8:1,zeta:8:3\n")
    path = write(tmp_path, cfg)
    out = tmp_path / "h.json"
    assert main(["hecke", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["kappa_set"]) == 2
    assert len(doc["klingen_eigenvalues"]) > len(doc["up_eigenvalues"])
    out2 = tmp_path / "p.json"
    assert main(["pullback", "--config", path, "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert "ratio" in doc2 and "p_constant_klingen" in doc2


def test_kl_unramified_character(tmp_path):
    # exp:7:1 takes values in an unramified extension of Q_5
    path = write(tmp_path, "p = 5\nchi = exp:7:1\nk_min = 1\nk_max = 6\n")
    out = tmp_path / "kl.json"
    assert main(["kl", "--config", path, "--out", str(out)]) == 0
    values = json.loads(out.read_text())["values"]
    nonzero = [v for v in values.values() if "zero_to_precision" not in v]
    assert nonzero
    for v in nonzero:
        assert v["level"] == 6 and v["valuation_bound"] >= 0
        assert len(v["coeffs_mod_p6"]) == 2


@pytest.mark.parametrize("command", ["coeff", "family"])
def test_zero_y_norm_is_config_error(tmp_path, command):
    path = write(tmp_path, FAMILY_CFG + "y_norm = 0\n")
    assert main([command, "--config", path, "--out", "/dev/null"]) == 2


def test_config_hash_covers_prec_override(tmp_path):
    cfg = "p = 5\nchi = trivial\nk_min = 2\nk_max = 4\n"
    path = write(tmp_path, cfg)
    hashes = {}
    for prec in (None, "8", "20"):
        out = tmp_path / ("kl%s.json" % prec)
        argv = ["kl", "--config", path, "--out", str(out)]
        if prec:
            argv += ["--prec", prec]
        assert main(argv) == 0
        hashes[prec] = json.loads(out.read_text())["config_hash"]
    assert hashes[None] == config_hash(load_config(path))
    assert len(set(hashes.values())) == 3
    # the override hashes like the same value written in the config
    same = write(tmp_path, cfg + "prec = 20\n", name="prec20.cfg")
    assert hashes["20"] == config_hash(load_config(same))


def test_family_table_does_not_read_prec(tmp_path):
    """No cell of a family reads a p-adic precision: the README family at
    prec 1 and prec 20 differs only in its congruences and config_hash."""
    from test_golden import README_CFG
    path = write(tmp_path, README_CFG)
    docs = []
    for prec in ("1", "20"):
        out = tmp_path / ("family%s.json" % prec)
        assert main(["family", "--config", path, "--out", str(out),
                     "--prec", prec]) == 0
        docs.append(json.loads(out.read_text()))
    low, high = docs
    assert low.keys() == high.keys()
    assert low["table"] == high["table"]
    assert {key for key in low if low[key] != high[key]} <= {
        "congruences", "config_hash"}


def test_missing_config_is_error():
    assert main(["coeff"]) == 2


@pytest.mark.parametrize("command", ["coeff", "family"])
@pytest.mark.parametrize("ell", ["9", "-7", "1"])
def test_non_prime_ell_is_config_error(tmp_path, capsys, command, ell):
    path = write(tmp_path, FAMILY_CFG.replace("ell = 7", "ell = " + ell))
    assert main([command, "--config", path, "--out", "/dev/null"]) == 2
    assert "key 'ell': must be a prime" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coeff", "family"])
@pytest.mark.parametrize("vol", ["0", "-1"])
def test_nonpositive_vol_y_is_config_error(tmp_path, capsys, command, vol):
    path = write(tmp_path, FAMILY_CFG + "vol_Y = %s\n" % vol)
    assert main([command, "--config", path, "--out", "/dev/null"]) == 2
    assert "key 'vol_Y': must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coeff", "family"])
@pytest.mark.parametrize("edits, message", [
    ({"sigma = 2,5": "sigma = 2"}, "sigma must contain p"),
    ({"ell = 7": "ell = 5"}, "the auxiliary prime is kept outside sigma"),
    # D = 1 ramifies at 2
    ({"ell = 7": "ell = 2", "sigma = 2,5": "sigma = 5"},
     "the auxiliary prime must be unramified"),
    ({"kappa = 6": "kappa = 1"}, "need kappa >= n"),
])
def test_invalid_datum_is_config_error(tmp_path, capsys, command, edits,
                                       message):
    cfg = FAMILY_CFG
    for old, new in edits.items():
        cfg = cfg.replace(old, new)
    path = write(tmp_path, cfg)
    assert main([command, "--config", path, "--out", "/dev/null"]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


def test_enumeration_cap_is_config_error(tmp_path, capsys):
    path = write(tmp_path, FAMILY_CFG.replace("trace_bound = 2",
                                              "trace_bound = 40"))
    assert main(["coeff", "--config", path, "--out", "/dev/null"]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'trace_bound': enumeration cap 200000 exceeded\n")


@pytest.mark.parametrize("command", ["family", "enumerate"])
def test_enumeration_cap_is_config_error_other_commands(tmp_path, capsys,
                                                        command):
    path = write(tmp_path, FAMILY_CFG.replace("trace_bound = 2",
                                              "trace_bound = 40"))
    assert main([command, "--config", path, "--out", "/dev/null"]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'trace_bound': enumeration cap 200000 exceeded\n")


@pytest.mark.parametrize("bound", [-1, 0])
def test_family_without_nonsingular_index_is_config_error(tmp_path, capsys,
                                                          bound):
    path = write(tmp_path, FAMILY_CFG.replace(
        "trace_bound = 2", "trace_bound = %d" % bound))
    assert main(["family", "--config", path, "--out", "/dev/null"]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'trace_bound': no nonsingular index has trace at "
        "most %d\n" % bound)


def edited(**keys):
    """FAMILY_CFG with some keys replaced or added."""
    cfg = dict(line.split(" = ", 1) for line in FAMILY_CFG.splitlines())
    cfg.update(keys)
    return "".join("%s = %s\n" % item for item in cfg.items())


@pytest.mark.parametrize("command, keys, message", [
    ("pullback", {"variant": "lfun", "q": "13", "s": "2"},
     "NonIntegralExponentError: s + shift = 5/2 is not integral"),
    ("pullback", {"q": "13", "s": "1/2"},
     "NonIntegralExponentError: s + shift = 3/2 is not integral"),
    ("pullback", {"tau2": "exp:5:3"}, "ConductorError: tau1, tau2 and "
     "tau1*tau2 must all have conductor p"),
    ("pullback", {"r": "0"}, "need r >= 1"),
    ("pullback", {"satake": "1,1"}, "key 'satake': need 1 values"),
    ("hecke", {"kappa": "2", "at_p1": "1", "at_p2": "1"},
     "UniquenessError: eigenvalues 0 and 2 coincide"),
    ("hecke", {"a": "0,0"}, "key 'a': need 1 values"),
    ("hecke", {"a": "-1"}, "key 'a': must be nonnegative"),
    ("hecke", {"r": "2", "a": "0,1"}, "key 'a': must be nonincreasing"),
    ("family", {"r": "2", "a": "0,1"}, "key 'a': must be nonincreasing"),
    ("coeff", {"kappa": ""}, "missing required key 'kappa'"),
] + [
    ("pullback", {"satake": "zeta:8:1", "q": q, "s": "2"},
     "key 'q': must be a prime that splits in K and differs from p")
    for q in ("0", "3", "4", "5", "-13")
] + [
    ("kl", {"k_min": "0"}, "key 'k_min': must be at least 1"),
] + [
    (command, {"D": "4"}, "key 'D': must be a squarefree positive integer")
    for command in ("family", "coeff", "kl", "hecke")
] + [
    (command, {"dual_scale": "0"}, "key 'dual_scale': must be positive")
    for command in ("family", "enumerate")
] + [
    ("kl", {key: prec}, "key 'prec': must be at least 1")
    for key in ("prec", "--prec") for prec in ("-3", "0")
] + [
    ("kl", {"chi": spec}, "key 'chi': bad character spec %r: %s" % (spec, why))
    for spec, why in (("trivial:0", "the modulus must be positive"),
                      ("trivial:-1", "the modulus must be positive"),
                      ("quadratic:4", "need an odd prime"))
] + [
    ("coeff", {"at_p1": "zeta:-4:1"}, "key 'at_p1': bad cyclotomic spec "
     "'zeta:-4:1': a root of unity needs an order n >= 1"),
] + [
    (command, {"r": "0"}, "need r >= 1")
    for command in ("coeff", "family", "enumerate", "hecke")
] + [
    (command, {"variant": "foo"}, "variant must be 'klingen' or 'lfun'")
    for command in ("coeff", "family", "enumerate")
] + [
    ("pullback", {"satake": "zeta:8:1", "q": "13", "s": "2",
                  "variant": "foo"}, "variant must be 'klingen' or 'lfun'"),
    ("coeff", {"kappa": "6,8"},
     "key 'kappa': invalid literal for int() with base 10: '6,8'"),
    ("coeff", {"at_p2": "0"}, "key 'at_p2': must be nonzero"),
    ("hecke", {"satake": "0"}, "key 'satake': values must be nonzero"),
] + [
    (command, {"sigma": sigma},
     "key 'sigma': entries must be primes, got %d" % bad)
    for sigma, bad in (("2,4,5", 4), ("0,5", 0), ("-3,5", -3))
    for command in ("coeff", "family", "kl")
] + [
    ("kl", {"k_min": "5", "k_max": "2"}, "key 'k_max': must be at least k_min"),
] + [
    ("family", {"pairs": pairs}, "key 'pairs': %s" % why)
    for pairs, why in (("0,9,1", "0,9,1 names a point outside 0..1"),
                       ("-1,0,1", "-1,0,1 names a point outside 0..1"),
                       ("0,1,1;1,2,1", "1,2,1 names a point outside 0..1"),
                       ("0,0,1", "0,0,1 compares a point with itself"),
                       ("0,1,0", "0,1,0 needs k >= 1"),
                       ("1,0,-1", "1,0,-1 needs k >= 1"))
] + [
    ("pullback", {"q": "13"}, "key 's': must be set with 'q'"),
    ("pullback", {"s": "2"}, "key 'q': must be set with 's'"),
    ("coeff", {"at_p1": "zeta:100000:1"}, "key 'at_p1': ResourceBoundError: "
     "cyclotomic level 100000 exceeds the cap 2000"),
    # a key the command never reads is still parsed, and named
    ("coeff", {"chi": "exp:2003:1"}, "key 'chi': ResourceBoundError: "
     "cyclotomic level 2002 exceeds the cap 2000"),
])
def test_command_errors_are_config_errors(tmp_path, capsys, command, keys,
                                          message):
    """Keys that start with -- are command-line flags."""
    flags = [x for k, v in keys.items() if k.startswith("--") for x in (k, v)]
    path = write(tmp_path, edited(**{k: v for k, v in keys.items()
                                     if not k.startswith("--")}))
    assert main([command, "--config", path, "--out", "/dev/null"]
                + flags) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


@pytest.mark.parametrize("where, reason", [
    (("missing", "x.json"), "No such file or directory"),
    ((), "Is a directory"),
])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, where, reason):
    out = str(tmp_path.joinpath(*where))
    assert main(["selftest", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write report %s: " % out)
    assert reason in err and err.count("\n") == 1


def test_seed_flag_is_rejected_and_reports_keep_seed_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert main(["selftest"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_kl_character_defaults_to_trivial(tmp_path):
    values = []
    for cfg in ("p = 5\nk_max = 6\n", "p = 5\nk_max = 6\nchi = trivial\n"):
        out = tmp_path / "kl.json"
        assert main(["kl", "--config", write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        values.append(json.loads(out.read_text())["values"])
    assert values[0] == values[1]


@pytest.mark.parametrize("command, empty", [
    ("kl", ["chi", "prec"]), ("family", ["pairs", "variant", "a"])])
def test_empty_value_is_unset_key(tmp_path, command, empty):
    """The report, config hash included, is the same with the keys left
    out and with the keys set empty."""
    cfg = "".join(line for line in FAMILY_CFG.splitlines(True)
                  if line.split(" = ")[0] not in empty)
    empty = "".join("%s =\n" % key for key in empty)
    texts = []
    for text in (cfg, cfg + empty):
        out = tmp_path / "out.json"
        assert main([command, "--config", write(tmp_path, text),
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def emitted(report):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(report, None)
    return buf.getvalue()


json_text = st.text(st.characters(), max_size=8) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x1f", "\u00e9\u2028", "\U0001f600", "a/b"])
json_scalars = (st.none() | st.booleans() | st.integers() | json_text)


def _nested(leaves, keys):
    return st.recursive(
        leaves, lambda inner: (st.lists(inner, max_size=4)
                               | st.dictionaries(keys, inner, max_size=4)),
        max_leaves=25)


@given(_nested(json_scalars, json_text))
# no shrink phase: shrinking a failing nested report takes minutes
@settings(max_examples=100, deadline=None, derandomize=True,
          phases=set(Phase) - {Phase.shrink})
def test_writer_matches_json_dumps(obj):
    assert emitted(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@st.composite
def cyc_numbers(draw):
    level = draw(st.sampled_from([1, 3, 4, 5, 12]))
    return CycNumber(level, draw(st.lists(
        st.fractions(max_denominator=20), min_size=euler_phi(level),
        max_size=euler_phi(level))))


GAUSS_CHARS = [DirichletChar.from_exponent(5, 1),
               DirichletChar.from_exponent(5, 2), DirichletChar.quadratic(3),
               DirichletChar.from_exponent(13, 1)]


@st.composite
def exact_values(draw):
    exps = draw(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                                st.fractions(max_denominator=4), max_size=4))
    gauss = {chi.key(): (chi, n) for chi, n in draw(st.lists(
        st.tuples(st.sampled_from(GAUSS_CHARS), st.integers(-3, 3)),
        max_size=3))}
    return ExactValue(draw(cyc_numbers()), exps, gauss)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.sampled_from([2, 3, 1, 0]))
    part = st.fractions(-4, 4, max_denominator=6)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(part)
        for j in range(i + 1, n):
            a, b = draw(part), draw(part)
            rows[i][j], rows[j][i] = (a, b), (a, -b)
    return HermitianMatrix(draw(st.sampled_from([1, 2, 3])), rows)


@st.composite
def padic_elems(draw):
    """A 5-adic value at level 1 or 6, zero to precision or not."""
    level = draw(st.sampled_from([1, 6]))
    prec = draw(st.integers(1, 8))
    unit = 5 ** prec if draw(st.booleans()) else 1
    coeffs = draw(st.lists(st.integers(-10 ** 7, 10 ** 7),
                           min_size=euler_phi(level), max_size=euler_phi(level)))
    return PadicElem(5, level, [c * unit for c in coeffs], prec,
                     draw(st.integers(-3, 3)))


exact_objects = (cyc_numbers() | exact_values() | hermitian_matrices()
                 | padic_elems())
exact_leaves = json_scalars | exact_objects


@st.composite
def shared_objects(draw):
    """One exact object, and an ExactValue with its unit, each at several
    depths of one report."""
    x, v = draw(exact_objects), draw(exact_values())
    return [x, {"deeper": [x, v], "unit": v.unit}, [[v.unit, {"x": x}]], v]


# the layouts hypothesis may not draw: a 0x0 matrix ("entries": []), an
# ExactValue with no exponents and no Gauss sums ({} and []) and one with
# both, a level-1 CycNumber, the four forms of a PadicElem, and one object
# at three depths of one report
BOTH = ExactValue(CycNumber(5, [1, Fraction(-2, 3), 0, 4]),
                  {11: Fraction(1, 2), 2: -3},
                  {chi.key(): (chi, n) for chi, n in zip(GAUSS_CHARS, (2, -1))})


@given(_nested(exact_leaves, json_text)
       | st.tuples(exact_leaves, st.dictionaries(json_text, exact_leaves))
       | shared_objects())
@example(HermitianMatrix(2, []))
@example(ExactValue(CycNumber.root_of_unity(4)))
@example(BOTH)
@example(CycNumber(1, [Fraction(-7, 3)]))
@example([PadicElem(5, 1, [0], 4, -1), PadicElem(5, 1, [75], 4, -1),
          PadicElem(5, 6, [0, 25], 2), PadicElem(5, 6, [10, 3], 4, 1)])
@example([BOTH, {"x": [BOTH]}, [[{"y": BOTH}]]])
# no shrink phase: shrinking a failing nested report takes minutes
@settings(max_examples=100, deadline=None, derandomize=True,
          phases=set(Phase) - {Phase.shrink})
def test_writer_matches_old_encoding(obj):
    """Exact leaves and tuples are written as converting the report first
    and calling json.dumps wrote them, also where one object appears at
    several depths."""
    assert emitted(obj) == report_text(obj)


class Tag(str):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


@pytest.mark.parametrize("obj, text", [
    ({"t": ("a", (2,)), "e": ((), {})},
     '{\n  "e": [\n    [],\n    {}\n  ],\n  "t": [\n    "a",\n    [\n      2\n'
     '    ]\n  ]\n}\n'),
    ([True, 1, False, 0, None, {"t": True, "f": False, "n": -2}], None),
])
def test_writer_fixed_cases(obj, text):
    if text is None:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert emitted(obj) == text == report_text(obj)


# int keys and subclasses of str and int, which the writer once converted
# or wrote as their base type
@pytest.mark.parametrize("obj", [
    {9: "a", 10: "b", -1: "c"},
    {"tag": Tag("x\"\n\u00e9"), Tag("key"): [Level.LOW, Level.HIGH]},
    Tag("alone"),
    Level.HIGH,
])
def test_writer_rejects_int_keys_and_subclasses(obj):
    with pytest.raises(TypeError):
        emitted(obj)


def test_writer_rejects_what_json_cannot_hold():
    """A dict key that is not a str, also where a str key equal to it was
    written before, a subclass of str or int, and an object without
    to_json raise TypeError."""
    for obj in [{"a": [{"b": {1: "x"}}]},
                {"key": 1, "x": {Tag("key"): 2}},
                {"tag": Tag("x\"\n\u00e9")}, [Level.LOW, Level.HIGH],
                {"x": [Fraction(1, 2)]}, [1.5, float("inf")],
                {"x": object()}]:
        with pytest.raises(TypeError):
            emitted(obj)


CHARS = ["exp:5:1", "exp:5:2", "exp:5:3", "trivial", "trivial:5",
         "teichmuller:5:1", "quadratic:5", "exp:7:1", "exp:9:2", "exp:11:3",
         "trivial:0", "trivial:-1", "quadratic:4", "quadratic:2", "exp:0:1",
         "exp:4:1", "teichmuller:5", "nonsense", ""]
CYCS = ["zeta:4:1", "zeta:4:3", "1", "0", "-1/2", "zeta:8:3", "zeta:-4:1",
        "zeta:0:1", "zeta:4", "zeta:a:1", "1/0", "x", ""]

# The value of each key in the base config comes first in its pool; the
# other values are edges.
FUZZ_POOLS = {
    "p": ["5", "13", "3", "7", "2", "9", "1", "0", "-5", "x"],
    "D": ["1", "2", "3", "4", "12", "0", "-1"],
    "r": ["1", "2", "0", "-1"],
    "ell": ["7", "13", "2", "3", "5", "9", "1", "-7"],
    "sigma": ["2,5", "2", "5", "2,5,7", "2,5,13", "-5,2", "x"],
    "kappa": ["6", "8", "3", "2", "1", "0", "-2", "6,8"],
    "tau1": CHARS,
    "tau2": ["exp:5:2"] + CHARS,
    "chi": CHARS,
    "at_p1": CYCS,
    "at_p2": ["zeta:4:3"] + CYCS,
    "a": ["0", "0,0", "1,0", "0,1", "2", "-1", "-4", "1,2,3", "x"],
    "trace_bound": ["2", "1", "0", "-1"],
    "dual_scale": ["1", "2", "0", "-1"],
    "prec": ["12", "1", "2", "0", "-3"],
    "embedding_choice": ["0", "1", "-1", "7"],
    "variant": ["klingen", "lfun", "foo"],
    "y_norm": ["1", "49", "1/7", "7/2", "0", "-7", "x"],
    "vol_Y": ["1", "1/3", "0", "-1"],
    "points": ["6:0:Xpb;6:4:Xpb", "6:0", "8:0:X;8:4:X", "6:1:X;6:2:Xpb",
               "6:-1", "2:0:Xpb", "0:0", "-6:0", "6:0:zeta:5:1",
               "6:0:zeta:5:2:zeta:5:3", "6:0:zeta:4:1", "6:0:zeta:0:1",
               "6:0:zeta:-5:1", "6:0:zeta:5", "6:0:Y", "6", "x"],
    "pairs": ["0,1,1", "0,1,2;1,0,1", "0,0,1", "0,1", "0,5,1", "-1,0,1",
              "0,1,0", "0,1,-1", "a,b,c"],
    "k_min": ["1", "2", "0", "-2", "9"],
    "k_max": ["6", "1", "0", "-1", "12"],
    "q": ["13", "3", "5", "4", "0", "-13", "x"],
    "s": ["2", "1/2", "0", "x"],
    "satake": ["zeta:8:1", "1,1", "0", "x"],
}
FUZZ_COMMANDS = ["coeff", "family", "kl", "enumerate", "hecke", "pullback"]


@st.composite
def flat_configs(draw):
    """The base config with up to four keys set to an edge value, set
    empty or left out."""
    keys = draw(st.sets(st.sampled_from(sorted(FUZZ_POOLS)), max_size=4))
    lines = []
    for key, pool in FUZZ_POOLS.items():
        value = pool[0]
        if key in keys:
            value = draw(st.sampled_from(pool[1:] + ["", None]))
        if value is not None:
            lines.append("%s = %s\n" % (key, value))
    return "".join(lines)


@given(st.sampled_from(FUZZ_COMMANDS), flat_configs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_random_configs_exit_0_or_2(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out.json")
        assert main([command, "--config", path, "--out", out]) in (0, 2)
