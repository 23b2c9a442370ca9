"""Reports pinned byte for byte.

Runs the seed-0 inputs of the family-p5 and family-r2 workloads and the kl
run of every kl-sweep character with a committed digest (bench/workloads.py)
through the command line and compares the sha256 of each report with
bench/digests.json.  The commands and configs the benchmark does not run are
listed in CLI_CASES below, their digests in tests/golden_cli.json, next
to the sha256 of what each demo in demos/ prints;
`python tests/test_golden.py` (with src on PYTHONPATH) rewrites that file
from the current code.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

import pytest

from eiskling.cli import main

from oracles import unit_difference_check

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(TESTS), "bench")
DEMOS = os.path.join(os.path.dirname(TESTS), "demos")
SRC = os.path.join(os.path.dirname(TESTS), "src")
GOLDEN_CLI = os.path.join(TESTS, "golden_cli.json")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


digests = workloads.load_digests()

README_CFG = """\
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
trace_bound = 3
variant = klingen
points = 6:0:Xpb;6:4:Xpb;6:8:Xpb;6:12:Xpb
pairs = 0,1,1;0,2,1;0,3,1;1,2,1;1,3,1;2,3,1
"""


def readme_config(**edits):
    """The README family config with some keys replaced or added."""
    keys = dict(line.split(" = ", 1) for line in README_CFG.splitlines())
    keys.update(edits)
    return "".join("%s = %s\n" % item for item in keys.items())


CLI_CASES = {
    "coeff": ("coeff", README_CFG),
    # entries in (1/7)O_K: indices not integral at ell (a zero ell factor),
    # good-prime errors at many primes and plain rows, several indices per
    # local invariant
    "coeff r=1 dual_scale=7": ("coeff", readme_config(dual_scale="7")),
    # 3 x 3 indices, singular ones among them, sharing few local invariants
    "coeff r=2 trace 5": ("coeff", readme_config(r="2", trace_bound="5")),
    "coeff lfun": ("coeff", readme_config(variant="lfun")),
    # tau1*tau2 is trivial: every positive definite index whose good-prime
    # check passes ends in a ConductorError at p
    "coeff tau2=exp:5:3": ("coeff", readme_config(tau2="exp:5:3")),
    "enumerate": ("enumerate", README_CFG),
    "hecke r=1": ("hecke", README_CFG),
    "hecke r=2 a=1,0": ("hecke", readme_config(r="2", a="1,0")),
    "pullback satake q s": ("pullback", readme_config(
        satake="zeta:8:1", q="13", s="2")),
    # shift 1/2: s + 1/2 and 2s + n - i integral with s half-integral
    "pullback lfun s=3/2": ("pullback", readme_config(
        satake="zeta:8:1", q="13", s="3/2", variant="lfun")),
    "family lfun": ("family", readme_config(variant="lfun")),
    "family D=3 p=7 r=2": ("family", readme_config(
        p="7", D="3", r="2", ell="5", sigma="3,7", tau1="exp:7:1",
        tau2="exp:7:2", at_p1="zeta:6:1", at_p2="zeta:6:5", a="0,0",
        trace_bound="5", points="6:0:Xpb;6:6:Xpb", pairs="0,1,1")),
    # a different kappa at each point, y_norm away from 1, the second
    # embedding and half-integral off-diagonal entries: the datum fields
    # that key the facts an index shares across points
    "family kappa=6,8,7,6 y_norm=7/3 choice=1 dual_scale=2": (
        "family", readme_config(
            points="6:0:Xpb;8:4:Xpb;7:8:Xpb;6:12:Xpb", y_norm="7/3",
            embedding_choice="1", dual_scale="2",
            pairs="0,1,1;0,2,1;0,3,1")),
    # prec = 1 leaves too few p-adic digits for the larger targets: the
    # INSUFFICIENT records next to PASS and FAIL ones
    "family kappa=6,8,7,6 prec=1": ("family", readme_config(
        points="6:0:Xpb;8:4:Xpb;7:8:Xpb;6:12:Xpb", prec="1",
        pairs="0,1,1;0,2,1;0,3,1;1,2,2;1,3,3;2,3,1")),
    # two specialized datums interleaved (m = 0, 4 and m = 1, 5): each
    # point's cells come from the row of the first point with its datum
    "family m=0,1,4,5": ("family", readme_config(
        points="6:0:Xpb;6:1:X;6:4:Xpb;6:5:X", pairs="0,2,1;1,3,1;0,1,1")),
    # 4 x 4 indices: screened minors with and without the last pair
    "enumerate r=3": ("enumerate", readme_config(r="3", trace_bound="3")),
    "kl exp:7:1": ("kl", workloads.kl_config("exp:7:1")),
    # an imprimitive character (conductor 5 at modulus 25), k_min > 1 and a
    # third Euler factor: the kl path the kl-sweep characters leave out
    "kl exp:25:5 k=3..40 sigma=2,3,5": ("kl", "p = 5\nsigma = 2,3,5\n"
                                          "chi = exp:25:5\nk_min = 3\n"
                                          "k_max = 40\n"),
    # points with wild characters of conductor 25 and 125 (zeta of order 5
    # and 25): specialization twists by them, and most cells end in a
    # ConductorError
    "family zeta points": ("family", readme_config(
        points="6:0:Xpb;6:0:X:zeta:5:1;6:4:X:zeta:5:1:zeta:5:2;"
               "6:1:X:zeta:25:5",
        pairs="0,1,1;1,2,1;0,3,1")),
    # a quadratic tau1: values +-1 at level 1 multiplied into level 4
    "family tau1=quadratic:5 tau2=exp:5:1": ("family", readme_config(
        tau1="quadratic:5", tau2="exp:5:1")),
    "kl quadratic:5 k=1..40": ("kl", "p = 5\nsigma = 2,5\n"
                                     "chi = quadratic:5\nk_min = 1\n"
                                     "k_max = 40\n"),
    # a wild character of order 125 at the second point
    "family zeta:125 point": ("family", readme_config(
        points="6:0:Xpb;6:0:X:zeta:125:1", pairs="0,1,1")),
    # chi(29) = 1 zeroes the k = 1 value in Q_p, while the odd k >= 3 values
    # stay in an unramified extension: the pairs (1,5) and (1,9) subtract a
    # carrier of level 6 from one of level 1
    "kl exp:7:1 k=1..9 sigma=2,5,29": ("kl", "p = 5\nsigma = 2,5,29\n"
                                             "chi = exp:7:1\nk_min = 1\n"
                                             "k_max = 9\n"),
}


DEMO_CASES = {"demo " + name: name for name in sorted(os.listdir(DEMOS))
              if name.endswith(".py")}


def report_bytes(text, argv):
    """The report that main(argv(path)) writes, path being a file that holds
    the config text."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        out = os.path.join(tmp, "out.json")
        with open(cfg, "w") as fh:
            fh.write(text)
        assert main(argv(cfg) + ["--out", out]) == 0
        with open(out, "rb") as fh:
            return fh.read()


def report_digest(text, argv):
    return hashlib.sha256(report_bytes(text, argv)).hexdigest()


def cli_digest(name):
    command, text = CLI_CASES[name]
    return report_digest(text, lambda path: [command, "--config", path])


def demo_digest(name):
    """sha256 of what the demo prints, run with src on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                         env=env, capture_output=True, check=True).stdout
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("name", ["family-p5", "family-r2"])
def test_seed0_family_report_matches_digest(name):
    (label, text), = workloads.make_inputs(name, 0)
    assert (report_digest(text, lambda path: workloads.cli_argv(name, path))
            == digests[name][label])


@pytest.mark.parametrize("chi", sorted(digests["kl-sweep"]))
def test_kl_report_matches_digest(chi):
    assert (report_digest(workloads.kl_config(chi),
                          lambda path: workloads.cli_argv("kl-sweep", path))
            == digests["kl-sweep"][chi])


def _golden_cli():
    with open(GOLDEN_CLI) as fh:
        return json.load(fh)


def test_golden_cli_covers_every_case():
    assert sorted(_golden_cli()) == sorted([*CLI_CASES, *DEMO_CASES])


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_matches_golden(name):
    assert cli_digest(name) == _golden_cli()[name]


@pytest.mark.parametrize("name", sorted(DEMO_CASES))
def test_demo_output_matches_golden(name):
    assert demo_digest(DEMO_CASES[name]) == _golden_cli()[name]


def test_readme_quick_start_runs():
    """The first python block of README.md runs, with src on PYTHONPATH,
    and prints the JSON form of one exact value."""
    with open(os.path.join(os.path.dirname(TESTS), "README.md")) as fh:
        code = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("{'unit': {'level': ") and "'gauss': " in out


# every golden family case, and one more input for the check alone: the
# second embedding changes sqrt(-D) mod p and so the cell values, and four
# pairs of unit parts that agree under the first differ under it
UNIT_DIFFERENCE_CASES = {
    name: text for name, (command, text) in CLI_CASES.items()
    if command == "family"}
UNIT_DIFFERENCE_CASES["family m=0,1,4,5 choice=1"] = (
    CLI_CASES["family m=0,1,4,5"][1] + "embedding_choice = 1\n")
# the records whose detail is "unit difference has valuation ..." per case,
# by the embedding the check reads them in; the other cases have none
UNIT_DIFFERENCE_KINDS = {
    "family kappa=6,8,7,6 y_norm=7/3 choice=1 dual_scale=2": {
        "unramified": 52},
    "family kappa=6,8,7,6 prec=1": {"split": 24},
    "family m=0,1,4,5": {"split": 4},
    "family m=0,1,4,5 choice=1": {"split": 8},
}


@pytest.mark.parametrize("name", sorted(UNIT_DIFFERENCE_CASES))
def test_unit_difference_verdicts_match_independent_check(name):
    """Each verdict on a unit difference, and its target, is what
    oracles.unit_difference_check recomputes from the report's JSON."""
    text = UNIT_DIFFERENCE_CASES[name]
    report = json.loads(report_bytes(
        text, lambda path: ["family", "--config", path]))
    keys = dict(line.split(" = ", 1) for line in text.splitlines())
    kinds, wrong = unit_difference_check(
        report, int(keys["p"]), int(keys.get("embedding_choice", 0)))
    assert wrong == []
    assert kinds == {"split": 0, "unramified": 0,
                     **UNIT_DIFFERENCE_KINDS.get(name, {})}


if __name__ == "__main__":
    golden = {name: cli_digest(name) for name in CLI_CASES}
    golden.update((name, demo_digest(demo))
                  for name, demo in DEMO_CASES.items())
    with open(GOLDEN_CLI, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
