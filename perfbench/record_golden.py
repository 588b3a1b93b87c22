"""Record the trace.csv sha256 of every run job into golden.json.

    python3 perfbench/record_golden.py 0 91

Runs one round of each workload per seed against ``src/`` and stores the
hashes under golden.json[workload][seed].  Record from the commit whose
traces later commits must reproduce byte for byte.
"""

import json
import os
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402


def main(seeds):
    path = os.path.join(run.HERE, "golden.json")
    with open(path) as fh:
        golden = json.load(fh)
    recorder = workloads.Recorder()
    for name in run.WORKLOADS:
        for seed in seeds:
            wl = workloads.Workload(name, seed, run.OUT, recorder)
            records = []
            wl.setup(records)
            wl.round(0, records)
            bad = [r for r in records if not r["ok"]]
            if bad:
                raise SystemExit("not recording %s seed %d: %s failed (%s)"
                                 % (name, seed, bad[0]["id"], bad[0].get("reason")))
            golden.setdefault(name, {})[str(seed)] = {
                r["id"]: r["sha256"] for r in records if r["kind"] == "run"}
            print("recorded %s seed %d" % (name, seed), flush=True)
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0])
