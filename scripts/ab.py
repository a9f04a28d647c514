#!/usr/bin/env python3
"""Parent-versus-change timing of one `manet-repro` argv in alternating pairs.

Usage:
  scripts/ab.py [--a-bin PATH | --a-rev REV] [--b-bin PATH | --b-rev REV]
                [--pairs N] [--seconds S] [--build-dir DIR]
                -- ARGV...

Side A defaults to the revision `HEAD`, side B to the working tree.
A side given as `--*-rev REV` is exported with `git archive` into
`<build-dir>/<rev>/src` (a plain source tree; no worktree is
registered) and built into its own target dir there; the working tree
builds into `<build-dir>/worktree/target`. Every build passes
`-C llvm-args=-align-all-functions=6` through `RUSTFLAGS`, so that
function placement, which alone moves some argvs by 3-5%, is pinned on
both sides. `--*-bin PATH` takes a prebuilt binary as it is.

Each pair runs A and B once each on ARGV plus `--out <fresh dir>`; the
first side alternates from pair to pair so that host drift cancels.
Runs continue until at least `--pairs` pairs are done and `--seconds`
have passed. The artifacts of A and B must match byte for byte in
every pair (a pair that differs stops the script with exit code 1).

The last stdout line is JSON: for `wall_s` and `cpu_s` (children's
user plus system time), the medians of A and B, the median of the
per-pair B/A ratios, how many pairs B won, and the two-sided sign-test
p-value of that count, plus a host block.

Example (the A-vs-A floor: the same binary on both sides):
  scripts/ab.py --a-bin target/release/manet-repro \\
      --b-bin target/release/manet-repro --pairs 20 -- figs --quick --threads 1
"""

import argparse
import filecmp
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALIGN_FLAGS = "-C llvm-args=-align-all-functions=6"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo_build(src, target_dir):
    """Builds `manet-repro` from the workspace at `src` with pinned
    function alignment; returns the binary's path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    env["RUSTFLAGS"] = (env.get("RUSTFLAGS", "") + " " + ALIGN_FLAGS).strip()
    cmd = ["cargo", "build", "--release", "--offline", "-p", "manet-experiments",
           "--bin", "manet-repro"]
    if subprocess.run(cmd, cwd=src, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit(f"ab.py: build failed in {src}")
    return os.path.join(target_dir, "release", "manet-repro")


def build_rev(rev, build_dir):
    """Exports revision `rev` with `git archive` and builds it."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    base = os.path.join(build_dir, sha[:12])
    src = os.path.join(base, "src")
    if not os.path.isfile(os.path.join(src, "Cargo.toml")):
        os.makedirs(src, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab.py: git archive {rev} failed")
    log(f"ab.py: building {rev} ({sha[:12]})")
    return cargo_build(src, os.path.join(base, "target"))


def side(binary, rev, build_dir, default_rev):
    if binary:
        return os.path.abspath(binary)
    if rev or default_rev:
        return build_rev(rev or default_rev, build_dir)
    log("ab.py: building the working tree")
    return cargo_build(ROOT, os.path.join(build_dir, "worktree", "target"))


def run_once(binary, argv, out_dir):
    """Runs one child; returns (wall seconds, cpu seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    child = subprocess.Popen([binary, *argv, "--out", out_dir], stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"ab.py: {binary} {' '.join(argv)} failed")
    return wall, usage.ru_utime + usage.ru_stime


def artifact_files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def same_artifacts(a, b):
    files = artifact_files(a)
    if files != artifact_files(b):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    return not mismatch and not errors


def sign_test_p(wins, n):
    """Two-sided sign-test p-value of `wins` successes in `n` fair trials."""
    if n == 0:
        return 1.0
    k = min(wins, n - wins)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def summary(a, b):
    ratios = [y / x for x, y in zip(a, b)]
    decided = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in decided if y < x)
    return {
        "median_a": statistics.median(a),
        "median_b": statistics.median(b),
        "median_ratio": statistics.median(ratios),
        "b_wins": wins,
        "decided_pairs": len(decided),
        "sign_p": sign_test_p(wins, len(decided)),
    }


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_model": model, "available_parallelism": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a-bin")
    parser.add_argument("--a-rev")
    parser.add_argument("--b-bin")
    parser.add_argument("--b-rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--build-dir", default=os.path.join(ROOT, ".ab_build"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        parser.error("give the manet-repro argv after --")
    if (args.a_bin and args.a_rev) or (args.b_bin and args.b_rev):
        parser.error("give each side a binary or a revision, not both")

    build_dir = os.path.abspath(args.build_dir)
    a = side(args.a_bin, args.a_rev, build_dir, "HEAD")
    b = side(args.b_bin, args.b_rev, build_dir, None)
    walls = {"a": [], "b": []}
    cpus = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(prefix="ab_") as work:
        outs = {"a": os.path.join(work, "a"), "b": os.path.join(work, "b")}
        start = time.perf_counter()
        pair = 0
        while pair < args.pairs or time.perf_counter() - start < args.seconds:
            order = ("a", "b") if pair % 2 == 0 else ("b", "a")
            for name in order:
                wall, cpu = run_once(a if name == "a" else b, argv, outs[name])
                walls[name].append(wall)
                cpus[name].append(cpu)
            if not same_artifacts(outs["a"], outs["b"]):
                log(f"ab.py: pair {pair}: A and B wrote different artifacts")
                sys.exit(1)
            log(f"pair {pair:3d}  wall A {walls['a'][-1]:.4f} B {walls['b'][-1]:.4f}"
                f"  cpu A {cpus['a'][-1]:.4f} B {cpus['b'][-1]:.4f}")
            pair += 1
    print(json.dumps({
        "argv": argv,
        "a": a,
        "b": b,
        "pairs": pair,
        "wall_s": summary(walls["a"], walls["b"]),
        "cpu_s": summary(cpus["a"], cpus["b"]),
        "host": host(),
    }))


if __name__ == "__main__":
    main()
