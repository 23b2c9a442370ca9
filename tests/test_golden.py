"""The seed-0 family reports of the benchmark, byte for byte.

Runs the reference inputs of the family-p5 and family-r2 workloads
(bench/workloads.py) through the command line and compares the sha256 of
each report with bench/digests.json.
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


@pytest.mark.parametrize("name", ["family-p5", "family-r2"])
def test_seed0_family_report_matches_digest(tmp_path, capsys, name):
    (label, text), = workloads.make_inputs(name, 0)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(workloads.cli_argv(name, str(path))) == 0
    report = capsys.readouterr().out.encode()
    expected = workloads.load_digests()[name][label]
    assert hashlib.sha256(report).hexdigest() == expected
