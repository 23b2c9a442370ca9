"""Benchmark of the eiskling command line.

    python3 bench/run.py --workload family-p5 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 10          # every workload, one table

Each workload is a closed loop with one client: one `eiskling.cli.main`
call at a time, each in a fresh interpreter (bench/op.py), as a user of the
command line runs it.  The report is captured in memory and checked.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it alternates
traced and untraced operations and prints the per-layer metrics of the
traced ones (bench/tracer.py).  The last line of stdout is one JSON object.
See bench/DESIGN.md for why each workload and metric was chosen.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP = os.path.join(HERE, "op.py")
SETUP_PROBES = 10
OP_TIMEOUT_S = 120

END_TO_END = [("report_s.p50", "s"), ("items_per_s", "items/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio")]
STATUSES = ["PASS", "FAIL", "SKIPPED", "INCOMPARABLE", "INSUFFICIENT"]
SPAN_LAYERS = ["characters", "values", "bernoulli_kl"]
COUNTS = (list(tracer.COUNTERS.values())
          + list(tracer.YIELD_COUNTERS.values()))


def spawn(args):
    """Run bench/op.py in a fresh interpreter and return (setup_s, result);
    when the child printed no result, (None, {"error": ...})."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, OP] + args, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, {"error": "op exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-300:])}
    return result["imported"] - t0, result


# reason is None when the operation succeeded
Op = namedtuple("Op", "label traced result reason")


def run_workload(name, seed, seconds, trace, workdir):
    inputs = workloads.make_inputs(name, seed)
    digests = workloads.load_digests()
    paths = []
    for i, (_, text) in enumerate(inputs):
        path = os.path.join(workdir, "%s-%d.cfg" % (name, i))
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    setups = [spawn(["probe"])[0] for _ in range(SETUP_PROBES)]
    ops = []
    correct = True
    matched = 0  # reports compared with a committed digest
    digests_seen = {}
    min_ops = len(inputs) * (2 if trace else 1)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < min_ops:
        i = len(ops)
        label = inputs[i % len(inputs)][0]
        traced = bool(trace) and (i // len(inputs)) % 2 == 0
        argv = workloads.cli_argv(name, paths[i % len(paths)])
        setup_s, result = spawn(["run", "1" if traced else "0"] + argv)
        reason = result.get("error")
        if reason is None and result["rc"] != 0:
            reason = "exit code %s" % result["rc"]
        if reason is None:
            summary = result["summary"]
            reason = workloads.check(name, label, summary, digests)
            sha = summary["sha256"]
            if digests_seen.setdefault(label, sha) != sha:
                reason = "report differs between runs of the same input"
            if reason is not None:
                correct = False
            elif label in digests.get(name, {}):
                matched += 1
        ops.append(Op(label, traced, result, reason))
        if setup_s is not None:
            setups.append(setup_s)
    return inputs, ops, setups, correct, matched


def probe_defect(name, workdir):
    """Run kl once on workloads.DEFECT_CHI, outside the measured loop, and
    return a line saying whether it still ends in the known defect."""
    if workloads.WORKLOADS[name].command != "kl":
        return None
    path = os.path.join(workdir, "defect.cfg")
    with open(path, "w") as fh:
        fh.write(workloads.kl_config(workloads.DEFECT_CHI))
    _, result = spawn(["run", "0"] + workloads.cli_argv(name, path))
    if result.get("error") == workloads.KNOWN_DEFECT:
        return "  known defect: kl chi=%s still ends in %s" % (
            workloads.DEFECT_CHI, workloads.KNOWN_DEFECT)
    return ("  known defect: kl chi=%s no longer ends in it (exit %s, %s); "
            "the unramified pool can join kl-sweep" % (
                workloads.DEFECT_CHI, result.get("rc"), result.get("error")))


def median_of(values):
    return statistics.median(values) if values else 0.0


def end_to_end(name, ops, setups):
    untraced = [op for op in ops if not op.traced]
    ok = [op for op in untraced if op.reason is None]
    spent = sum(op.result.get("report_s", 0.0) for op in untraced)
    done = sum(workloads.items(name, op.result["summary"]) for op in ok)
    return {
        "report_s.p50": median_of([op.result["report_s"] for op in ok]),
        "items_per_s": done / spent if spent else 0.0,
        "setup_s": median_of(setups),
        "peak_rss_mb": max(op.result["peak_rss_mb"] for op in ok),
        "ok_ratio": len(ok) / len(untraced),
    }


def mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(ops):
    """Per-layer metrics, as means over the traced operations; those read
    from the report are means over the traced operations that succeeded."""
    traces = [op.result["trace"] for op in ops
              if op.traced and "trace" in op.result]
    summaries = [op.result["summary"] for op in ops
                 if op.traced and op.reason is None]
    out = {}
    for layer in tracer.LAYERS:
        out[layer + ".self_s"] = (mean([t["self_s"][layer] for t in traces]),
                                  "s")
    for layer in SPAN_LAYERS:
        out[layer + ".spans"] = (mean([t["spans"][layer] for t in traces]),
                                 "count")
    for counter in COUNTS:
        out[counter] = (mean([t["counts"].get(counter, 0) for t in traces]),
                        "count")
    out["interpolation.pool_wait_s"] = (mean(
        [t["pool_wait_s"].get("interpolation", 0.0) for t in traces]), "s")
    cells = sum(s.get("cells", 0) for s in summaries)
    out["interpolation.cells"] = (mean([s.get("cells", 0) for s in summaries]),
                                  "count")
    out["interpolation.cells_ok_ratio"] = (
        sum(s.get("cells_ok", 0) for s in summaries) / cells if cells else 0.0,
        "ratio")
    for status in STATUSES:
        out["interpolation.congruence." + status] = (mean(
            [s.get("congruence", {}).get(status, 0) for s in summaries]),
            "count")
    out["cli.report_bytes"] = (mean([s["bytes"] for s in summaries]), "bytes")
    traced_p50 = median_of([op.result["report_s"] for op in ops
                            if op.traced and op.reason is None])
    plain_p50 = median_of([op.result["report_s"] for op in ops
                           if not op.traced and op.reason is None])
    out["trace.overhead_ratio"] = (traced_p50 / plain_p50 if plain_p50 else 0.0,
                                   "ratio")
    return out


def describe(name, seed, inputs, ops, setups, correct, matched, defect):
    """Human-readable lines printed before the JSON result."""
    lines = ["%s seed=%d: %d operations, %d setup samples" % (
        name, seed, len(ops), len(setups))]
    for label, _ in inputs:
        mine = [op for op in ops if op.label == label]
        failed = [op for op in mine if op.reason is not None]
        lines.append("  input %s: %d ops, %d failed" % (label, len(mine),
                                                          len(failed)))
        for reason in sorted({op.reason for op in failed}):
            lines.append("    failure: %s" % reason)
    lines.append("  output check: %s, %d reports matched committed digests" % (
        "ok" if correct else "FAILED", matched))
    if defect is not None:
        lines.append(defect)
    return lines


def bench(name, seed, seconds, trace):
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs, ops, setups, correct, matched = run_workload(
            name, seed, seconds, trace, workdir)
        defect = probe_defect(name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not any(op.reason is None for op in ops):
        raise RuntimeError("%s: every operation failed: %s" % (
            name, ops[0].reason))
    if trace:
        metrics = per_layer(ops)
    else:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k])
                   for k, v in end_to_end(name, ops, setups).items()}
    lines = describe(name, seed, inputs, ops, setups, correct, matched,
                     defect)
    for key in sorted(metrics):
        lines.append("  %-38s %14.6g %s" % (key, metrics[key][0],
                                            metrics[key][1]))
    result = {"correct": correct, "attempted": len(ops),
              "failed": sum(1 for op in ops if op.reason is not None),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "eiskling", "cli.py")):
        sys.stderr.write("bench: no eiskling sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        try:
            lines, results[name] = bench(name, args.seed, args.seconds,
                                         args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write("bench: %s\n" % exc)
            return 1
        print("\n".join(lines), flush=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
