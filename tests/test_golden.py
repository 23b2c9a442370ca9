"""The reference reports of the benchmark, byte for byte.

Runs the seed-0 inputs of the family-p5 and family-r2 workloads and the kl
run of every kl-sweep character with a committed digest (bench/workloads.py)
through the command line and compares the sha256 of each report with
bench/digests.json.
"""

import hashlib
import importlib.util
import os

import pytest

from eiskling.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


digests = workloads.load_digests()


def _report_digest(tmp_path, capsys, name, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(workloads.cli_argv(name, str(path))) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", ["family-p5", "family-r2"])
def test_seed0_family_report_matches_digest(tmp_path, capsys, name):
    (label, text), = workloads.make_inputs(name, 0)
    assert (_report_digest(tmp_path, capsys, name, text)
            == digests[name][label])


@pytest.mark.parametrize("chi", sorted(digests["kl-sweep"]))
def test_kl_report_matches_digest(tmp_path, capsys, chi):
    assert (_report_digest(tmp_path, capsys, "kl-sweep",
                           workloads.kl_config(chi))
            == digests["kl-sweep"][chi])
