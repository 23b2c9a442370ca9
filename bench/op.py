"""One benchmark operation in a fresh interpreter.

    python3 bench/op.py probe
    python3 bench/op.py run TRACE ARGV...

`probe` imports eiskling.cli and reports when the import returned.  `run`
also calls eiskling.cli.main(ARGV) with stdout captured in memory, traced
when TRACE is 1, and reports the time, peak memory and a summary of the
report.  The result is one JSON line on stdout.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import eiskling.cli  # noqa: E402  (the import is what setup_s measures)

IMPORTED = time.perf_counter()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def summarize(text):
    """Digest, size and counts of a report: its shape and status histograms."""
    data = text.encode()
    report = json.loads(text)
    out = {"command": report.get("command"), "schema": report.get("schema"),
           "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    if "table" in report:
        table = report["table"]
        out["points"] = len(table["points"])
        out["betas"] = len(table["betas"])
        out["cells"] = len(table["cells"])
        out["cells_ok"] = sum(1 for c in table["cells"] if "report" in c)
        records = report.get("congruences", {}).get("records", [])
        out["records"] = len(records)
        statuses = {}
        for rec in records:
            statuses[rec["status"]] = statuses.get(rec["status"], 0) + 1
        out["congruence"] = statuses
    if "values" in report:
        out["values"] = len(report["values"])
    return out


def run(trace, argv):
    layers = None
    if trace:
        import tracer
        layers = tracer.Tracer()
        layers.install()
    buf = io.StringIO()
    saved = sys.stdout
    sys.stdout = buf
    error = None
    t0 = time.perf_counter()
    try:
        rc = eiskling.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:
        rc = None
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    finally:
        t1 = time.perf_counter()
        sys.stdout = saved
    result = {"imported": IMPORTED, "report_s": t1 - t0, "rc": rc,
              "error": error,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if layers is not None:
        result["trace"] = layers.totals()
    if rc == 0 and error is None:
        result["summary"] = summarize(buf.getvalue())
    return result


def main():
    if sys.argv[1] == "probe":
        result = {"imported": IMPORTED}
    else:
        result = run(sys.argv[2] == "1", sys.argv[3:])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
