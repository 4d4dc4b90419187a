#!/usr/bin/env python3
"""decentnet benchmark: build, run one workload for a fixed time, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (and through it the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

Each pass of the workload is one process of the decentbench binary, so
peak RSS is that workload's own. Passes repeat until --seconds is used up
(at least MIN_PASSES of them); the end-to-end metrics are the medians over
the passes. A single-threaded workload's passes are pinned to the CPUs in
turn, so that a CPU a shared host slows for a while holds only its share
of the passes. With --trace 1, untraced and traced passes alternate, each
pair on one CPU, and the per-layer metrics are the medians over the traced
passes.

Every pass must report the same digest of simulated statistics, with no
invariant violated, and the digest must equal the one pinned in
digests.json for this workload and seed when there is one. If not, the
result says "correct": false and every op counts as failed.

The last line of stdout is the JSON result; progress goes to stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pow_chain", "pbft_commit", "kad_lookup", "gossip_sharded")
MIN_PASSES = 3          # untraced passes per --trace 0 run
PASS_TIMEOUT_S = 170    # one pass; a run must end within 180 s
# Per-layer metric prefixes each workload exercises; the others read 0.
LAYERS = {
    "pow_chain": ("sim.events", "sim.ns_per_event", "net.", "chain.",
                  "crypto.", "setup.", "trace."),
    "pbft_commit": ("sim.events", "sim.ns_per_event", "net.", "bft.",
                    "setup.", "trace."),
    "kad_lookup": ("sim.events", "sim.ns_per_event", "net.",
                   "overlay.kademlia.", "setup.", "trace."),
    "gossip_sharded": ("sim.", "net.", "overlay.gossip.", "setup.",
                       "trace."),
}
# Per-layer metrics run.py derives from both kinds of pass.
DERIVED = ("sim.ns_per_event", "trace.overhead")
# Workloads that run more than one thread; their passes are not pinned.
MULTI_THREADED = ("gossip_sharded",)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build():
    """Configure (once) and build the binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "decentbench",
                  "-j", jobs])
    for cmd in steps:
        # The build's output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "decentbench")


def one_pass(binary, workload, seed, traced=False, small=False, threads=None,
             cpu=None):
    """Run one pass in its own process, on `cpu` if given; returns its JSON
    report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if small:
        cmd.append("--small")
    if threads is not None:
        cmd += ["--threads", str(threads)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=PASS_TIMEOUT_S, preexec_fn=pin)
    if out.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd),
                                                 out.returncode,
                                                 out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_passes(binary, workload, seed, seconds, trace, small):
    """Alternate passes until `seconds` is used up; returns all reports."""
    start = time.monotonic()
    cpus = sorted(os.sched_getaffinity(0))
    passes, took = [], []
    while True:
        traced = trace == 1 and len(passes) % 2 == 1
        cpu = (None if workload in MULTI_THREADED else
               cpus[len(passes) // (1 + trace) % len(cpus)])
        t0 = time.monotonic()
        p = one_pass(binary, workload, seed, traced=traced, small=small,
                     cpu=cpu)
        took.append(time.monotonic() - t0)
        passes.append(p)
        log("  pass %d %s cpu %s: setup %.4f s  run %.4f s  wall %.4f s"
            "  rss %.1f MB  digest %s" % (
                len(passes), "traced  " if traced else "untraced",
                "any" if cpu is None else cpu, p["setup_s"], p["run_s"],
                p["wall_s"], p["peak_rss_mb"], p["digest"]))
        untraced = sum(1 for q in passes if not q["traced"])
        enough = untraced >= (1 if trace == 1 else MIN_PASSES)
        if trace == 1:
            enough = enough and any(q["traced"] for q in passes)
        # Start another pass only if it should end within the budget.
        if enough and time.monotonic() - start + max(took) > seconds:
            return passes


def check(workload, seed, passes, small):
    """List of problems with the simulated outputs; empty when correct."""
    problems = []
    for i, p in enumerate(passes):
        problems += ["pass %d: %s" % (i + 1, v) for v in p["violations"]]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("digest differs between passes: %s" %
                        sorted({p["digest"] for p in passes}))
    if len({(p["ops"], p["ops_failed"]) for p in passes}) != 1:
        problems.append("ops / ops_failed differ between passes")
    pinned = {} if small else load_json("digests.json").get(workload, {})
    want = pinned.get(str(seed))
    if want is not None and passes[0]["digest"] != want:
        problems.append("digest %s differs from the pinned %s" %
                        (passes[0]["digest"], want))
    return problems


def layer_metrics(passes, spec):
    """Per-layer metric values: medians over the traced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    run_u = statistics.median(p["run_s"] for p in untraced)
    run_t = statistics.median(p["run_s"] for p in traced)
    values = {
        "sim.ns_per_event": run_u * 1e9 / max(1, untraced[0]["events"]),
        "trace.overhead": run_t / run_u,
    }
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        samples = [p["layer"][name] for p in traced if name in p["layer"]]
        values[name] = statistics.median(samples) if samples else 0.0
    return values


def missing_layer_metrics(workload, passes, spec):
    """Per-layer metrics of this workload's layers that a traced pass lacks."""
    owned = [m["name"] for m in spec["per_layer"]
             if m["name"].startswith(LAYERS[workload])
             and m["name"] not in DERIVED]
    return [name for p in passes if p["traced"]
            for name in owned if name not in p["layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Reduced N / horizon, for selftest.py only.
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (one of %s)" %
                 (args.workload, ", ".join(WORKLOADS)))
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        spec = load_json(os.path.join(os.pardir, "BENCHMARK.json"))
        binary = build()
        log("%s seed %d, %s s, trace %d" % (args.workload, args.seed,
                                            args.seconds, args.trace))
        passes = run_passes(binary, args.workload, args.seed, args.seconds,
                            args.trace, args.small)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        return 1

    problems = check(args.workload, args.seed, passes, args.small)
    if args.trace == 1:
        problems += ["traced pass lacks %s" % n for n in
                     missing_layer_metrics(args.workload, passes, spec)]
    for p in problems:
        log("INCORRECT: " + p)
    attempted = sum(p["ops"] for p in passes)
    failed = attempted if problems else sum(p["ops_failed"] for p in passes)

    if args.trace == 0:
        values = {m["name"]: statistics.median(p[m["name"]] for p in passes)
                  for m in spec["end_to_end"]}
        metrics = spec["end_to_end"]
    else:
        values = layer_metrics(passes, spec)
        metrics = spec["per_layer"]
    stats = passes[0]["stats"]
    log("  ops %d, failed %d, digest %s, stats %s" % (
        passes[0]["ops"], passes[0]["ops_failed"], passes[0]["digest"],
        json.dumps(stats)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
