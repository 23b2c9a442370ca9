"""Write bench/digests.json: the sha256 of each reference report.

    python3 bench/make_digests.py

Covers the seed-0 inputs of the family workloads, each computed with
--jobs 1 and --jobs 2 (the two must agree byte for byte), and every kl
pool character whose run succeeds.  Run it only when a change to the
program's output is deliberate, and say so in CHANGES.md.
"""

import json
import os
import shutil
import sys

import run
import workloads


def digest(name, path, jobs):
    argv = workloads.cli_argv(name, path)
    argv[argv.index("--jobs") + 1] = str(jobs)
    _, result = run.spawn(["run", "0"] + argv)
    if result.get("error") or result.get("rc") != 0:
        return None
    return result["summary"]["sha256"]


def main():
    workdir = os.path.join(run.ROOT, ".bench_work", "digests")
    os.makedirs(workdir, exist_ok=True)
    out = {}
    try:
        for name, w in sorted(workloads.WORKLOADS.items()):
            if w.command == "kl":
                labels = [chi for _, pool in workloads.KL_POOLS for chi in pool]
                inputs = [(chi, workloads.kl_config(chi)) for chi in labels]
            else:
                inputs = workloads.make_inputs(name, 0)
            out[name] = {}
            for i, (label, text) in enumerate(inputs):
                path = os.path.join(workdir, "%d.cfg" % i)
                with open(path, "w") as fh:
                    fh.write(text)
                shas = {digest(name, path, jobs) for jobs in
                        ((1, 2) if w.command == "family" else (1,))}
                if len(shas) != 1:
                    sys.exit("%s %s: --jobs 1 and --jobs 2 differ" % (name, label))
                sha = shas.pop()
                if sha is not None:
                    out[name][label] = sha
                print(name, label, sha)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(workloads.HERE, "digests.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
