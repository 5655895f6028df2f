#!/usr/bin/env python3
"""Paper-scale benchmark of permadead: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py prepare
    python3 perfbench/run.py steady --workload NAME [--runs N] [--seconds S]
    python3 perfbench/run.py ladder [--rates 400,800,1600] [--seconds S]

A run builds the program from source (`cargo build --release`, into
$CARGO_TARGET_DIR or .bench_build), makes sure this build's paper-scale
snapshot exists (generating it once, untimed, on the first run of a
build), then starts the measuring harness. The harness refuses to run
without the snapshot, so generation never lands inside a measurement.
The last line of standard output is the result object.

`prepare` only builds and generates the snapshot, printing its generation
time and size. `steady` runs two interleaved sets (ABAB...) of one
workload and prints, per end-to-end metric, each set's median and
quartiles and whether the sets agree within the metric's bound.
`ladder` runs the serve workload's traffic at a series of offered rates
against one server and prints where latency bends.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("audit-paper", "rediscover-paper", "serve-paper")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def root():
    here = os.getcwd()
    for need in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml"),
                 os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(here, need)):
            fail(f"run from the repository root: {need} not found", 2)
    return here


def target_dir(top):
    return os.path.abspath(os.path.join(top, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def build(top, target):
    """Build the `permadead` binary and the harness; return their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (["-p", "permadead-cli"],
                 ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                              cwd=top, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"cargo build {' '.join(args)} failed")
    release = os.path.join(target, "release")
    return os.path.join(release, "permadead"), os.path.join(release, "perfbench")


def build_cache(target, server):
    """The world-cache directory of this build, keyed by the program's
    binary, so a snapshot is never reused by another build of the program.
    Other builds' caches are removed."""
    with open(server, "rb") as f:
        digest = hashlib.sha256(f.read())
    worlds = os.path.join(target, "perfbench-worlds")
    key = digest.hexdigest()[:16]
    if os.path.isdir(worlds):
        for old in os.listdir(worlds):
            if old != key:
                shutil.rmtree(os.path.join(worlds, old), ignore_errors=True)
    cache = os.path.join(worlds, key)
    os.makedirs(cache, exist_ok=True)
    return cache


def prepare(harness, cache):
    """Generate the snapshot if this build has none yet."""
    snapshot = os.path.join(cache, "world_seed42_paper.pdw")
    if os.path.isfile(snapshot):
        return
    done = subprocess.run([harness, "prepare", "--cache", cache], stdout=sys.stderr)
    if done.returncode != 0 or not os.path.isfile(snapshot):
        fail("snapshot preparation failed")


def setup():
    top = root()
    target = target_dir(top)
    server, harness = build(top, target)
    cache = build_cache(target, server)
    prepare(harness, cache)
    return target, server, harness, cache


def measure(args):
    target, server, harness, cache = setup()
    trace_out = os.path.join(target, "perfbench-traces", f"{args.workload}-seed{args.seed}.tsv")
    cmd = [harness, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--cache", cache,
           "--server", server, "--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"harness exited with {done.returncode}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail("output checks failed")


def bounds():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"run with seed {seed} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steady(args):
    spec, metrics = bounds()
    seconds = args.seconds or spec["run_seconds"]
    setup()
    sets = ([], [])
    for i in range(2 * args.runs):
        seed = args.first_seed + i
        result = one_run(args.workload, seed, seconds)
        sets[i % 2].append(result)
        values = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"set {'AB'[i % 2]} seed {seed}: {values}", flush=True)
    print(f"\n{args.workload}: {args.runs} runs per set, interleaved A/B")
    ok = True
    for name, m in metrics.items():
        a = [r["metrics"][name]["value"] for r in sets[0]]
        b = [r["metrics"][name]["value"] for r in sets[1]]
        both = a + b
        row = []
        for label, vals in (("A", a), ("B", b), ("all", both)):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row.append(f"{label} median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {(q3 - q1) / med:.3f}")
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        spread = (lambda q: (q[2] - q[0]) / q[1])(statistics.quantiles(both, n=4))
        agree = worse <= m["bound"]
        steady_enough = name == "setup_s" or spread <= m["bound"]
        ok &= agree and steady_enough
        print(f"  {name} (bound {m['bound']}): " + "; ".join(row)
              + f"; B worse than A by {worse:+.3f} -> {'agree' if agree else 'DISAGREE'}"
              + ("" if steady_enough else " SPREAD ABOVE BOUND"))
    shares = {r["failed"] / r["attempted"] for s in sets for r in s}
    print(f"  failed share per run: {sorted(shares)}")
    ok &= len(shares) == 1
    sys.exit(0 if ok else 1)


def ladder(args):
    _, server, harness, cache = setup()
    cmd = [harness, "ladder", "--rates", args.rates, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--cache", cache, "--server", server]
    sys.exit(subprocess.run(cmd).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", nargs="?", choices=("prepare", "steady", "ladder"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--rates", default="200,400,800,1600,2400,3200")
    args = parser.parse_args()
    if args.command == "prepare":
        setup()
    elif args.command == "steady":
        if not args.workload:
            fail("steady needs --workload", 2)
        steady(args)
    elif args.command == "ladder":
        args.seconds = args.seconds or 5
        ladder(args)
    else:
        if not args.workload or args.seconds is None:
            fail("a run needs --workload and --seconds", 2)
        measure(args)


if __name__ == "__main__":
    main()
