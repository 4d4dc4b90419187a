#!/usr/bin/env python3
"""Self-test of the decentnet benchmark, at reduced N and horizon.

    python3 perfbench/selftest.py

Run from the root of a source checkout; builds like run.py. Checks, for
every workload:
  * the same seed gives the same digest twice;
  * the traced pass gives the untraced pass's digest;
  * a different seed gives a different digest;
  * no invariant is violated;
  * run.py emits every metric of BENCHMARK.json with its unit, at
    --trace 0 and --trace 1, and calls the run correct;
and that gossip_sharded gives the same digest at 1 and min(nproc, 4)
threads. Prints one line per check; exits 1 if any fails.
"""
import json
import os
import subprocess
import sys

import run

failures = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def passes_check(binary, workload):
    a = run.one_pass(binary, workload, 1, small=True)
    b = run.one_pass(binary, workload, 1, small=True)
    t = run.one_pass(binary, workload, 1, traced=True, small=True)
    c = run.one_pass(binary, workload, 2, small=True)
    expect(a["digest"] == b["digest"],
           "%s: same seed, same digest (%s)" % (workload, a["digest"]))
    expect(t["digest"] == a["digest"],
           "%s: traced digest %s equals untraced" % (workload, t["digest"]))
    expect(c["digest"] != a["digest"],
           "%s: seed 2 digest %s differs from seed 1" % (workload,
                                                         c["digest"]))
    expect(not (a["violations"] or t["violations"] or c["violations"]),
           "%s: no invariant violated %s" % (
               workload, a["violations"] + t["violations"] + c["violations"]))
    expect(a["ops"] > 0 and a["ops_failed"] == 0,
           "%s: %d ops, %d failed" % (workload, a["ops"], a["ops_failed"]))


def result_check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--small"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    expect(out.returncode == 0, "%s --trace %d: run.py exits 0" %
           (workload, trace))
    if out.returncode != 0:
        print(out.stderr)
        return
    res = json.loads(out.stdout.strip().splitlines()[-1])
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
           "%s --trace %d: result keys" % (workload, trace))
    expect(res["correct"] is True and res["failed"] == 0 and
           res["attempted"] >= 1,
           "%s --trace %d: correct, %d attempted, %d failed" % (
               workload, trace, res["attempted"], res["failed"]))
    want = spec["end_to_end" if trace == 0 else "per_layer"]
    got = res["metrics"]
    bad = [m["name"] for m in want
           if got.get(m["name"], {}).get("unit") != m["unit"]
           or not isinstance(got[m["name"]].get("value"), (int, float))]
    expect(not bad and len(got) == len(want),
           "%s --trace %d: all %d metrics with units %s" % (
               workload, trace, len(want), bad))


def main():
    spec = run.load_json(os.path.join(os.pardir, "BENCHMARK.json"))
    binary = run.build()
    for workload in run.WORKLOADS:
        passes_check(binary, workload)
    threads = max(1, min(4, os.cpu_count() or 1))
    one = run.one_pass(binary, "gossip_sharded", 1, small=True, threads=1)
    many = run.one_pass(binary, "gossip_sharded", 1, small=True,
                        threads=threads)
    expect(one["digest"] == many["digest"],
           "gossip_sharded: same digest at 1 and %d threads" % threads)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result_check(workload, trace, spec)
    print("%d check(s) failed" % len(failures) if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
