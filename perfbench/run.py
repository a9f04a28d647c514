#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `manet-repro` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload figs --seed 1 --seconds 20 --trace 0

It builds the release `manet-repro` binary and the benchmark's own
`layers` binary (`perfbench/Cargo.toml`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then:

* `--trace 0` spawns the CLI with `--seed` (on `trace-large`, a seed
  derived from it; see `RANGE_TARGET`) again and again, one child
  at a time (a closed loop with one client), until `--seconds` have
  passed, and repeats the workload's set-up in-process (see `layers
  setup`) before each child. Each child is timed from spawn to exit
  with every artifact written and tracing off, and its outputs are
  checked. The host-speed probe (`layers probe`, fixed work that uses
  nothing from the library) runs before the first child and after
  every child; each child's and set-up's times are scaled by
  `PROBE_REFERENCE_S` over the mean of the two probes around them, so
  the host's drift cancels and the program's own cost does not. It
  reports the medians of the scaled `wall_s`, `setup_s` and `cpu_s`,
  and of `peak_rss_mb`.
* `--trace 1` runs the CLI once, then replays the workload in-process
  with spans around each layer's calls (`layers replay`) until
  `--seconds` have passed, checks the replay against the CLI's
  artifacts, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Everything the runs leave behind
goes to `.bench_runs/`. The process starts no threads and runs one
child at a time.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("figs", "trace-large", "critical-scaling")
# The CLI's default master seed. Artifacts made with it are recorded
# in reference/default_seed.json and must match byte for byte
# (critical-scaling cells: within the bisection tolerance).
DEFAULT_SEED = 20020623
# Minimum time spent repeating the set-up before each child; `setup_s`
# is the median of all of a run's passes, so it samples the host over
# the whole run, as `wall_s` does.
SETUP_SECONDS = 0.1
# Seconds the host-speed probe takes on an unloaded host of the kind the
# benchmark was written on (a 2-vCPU Intel Xeon virtual machine). Times
# are reported in seconds of a host on which the probe takes this long.
PROBE_REFERENCE_S = 0.2
# trace-large's cost grows with the square of its calibrated range, and
# that range, r_stationary at n = 2000 (the 0.99 quantile of 50
# placements' critical ranges), moves by about ±8% from seed to seed, so
# its times followed the seed more than the host or the program. Its
# children run the one of SEED_CANDIDATES seeds derived from --seed whose
# r_stationary is closest to this target (about its median over seeds),
# so every run measures an input of the same typical size.
RANGE_TARGET = {"trace-large": 54.0}
SEED_CANDIDATES = 8
SEED_STRIDE = 7919
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120
# The bisection tolerance of `CriticalRangeSearch`, as a share of the
# region side.
SEARCH_REL_TOL = 1e-3


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds `manet-repro` and `layers`; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "experiments")
    ):
        raise BenchError("run from the repository root: no workspace Cargo.toml here")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml",
         "-p", "manet-experiments", "--bin", "manet-repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "manet-repro"), os.path.join(release, "layers")


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def layers(binary, *args, timeout=170, serial=False):
    """Runs `layers`. With `serial` it may use one CPU only, so the
    engine's worker pool, which sizes itself from the CPUs the process
    may use, runs one worker: the r_stationary calibration then costs
    the same whether or not the host's other CPUs are free."""
    out = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE,
                         timeout=timeout, check=False, preexec_fn=one_cpu if serial else None)
    if out.returncode != 0:
        raise BenchError("layers " + " ".join(args) + " failed")
    return json.loads(out.stdout)


def source_digest():
    """sha256 over the sources the two binaries are built from."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "src", "vendor", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "reference"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    paths.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in paths:
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(rel.encode() + b"\0" + f.read())
    return h.hexdigest()


def host_block(layers_bin):
    host = layers(layers_bin, "host")
    host["cpu_model"] = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    host["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False)
    host["commit"] = commit.stdout.strip() if commit.returncode == 0 else None
    host["source_sha256"] = source_digest()
    return host


def run_child(binary, argv, out_dir):
    """Runs one CLI child to completion; returns (exit code, wall s, rusage)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([binary, *argv, "--out", out_dir], cwd=ROOT,
                                stdout=out, stderr=err)

        def kill(_sig, _frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path) as f:
        lines = f.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def expect(cond, msg):
    if not cond:
        raise BenchError(msg)


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def non_increasing(values):
    return all(a >= b for a, b in zip(values, values[1:]))


FIG_ROWS = {"fig2": 4, "fig3": 4, "fig4": 4, "fig5": 4, "fig6": 4, "fig7": 15, "fig8": 6,
            "fig9": 7}
FIG_HEADERS = {
    "fig2": "l,n,r_stat,r100/rs,r90/rs,r10/rs,r0/rs,r100_sd,r90_sd",
    "fig4": "l,n,at_r90,at_r10,at_r0",
    "fig6": "l,n,r_stat,rl90/rs,rl75/rs,rl50/rs",
    "fig7": "p_stat,r100/rs,r100_sd/rs",
    "fig8": "t_pause,r100/rs,r100_sd/rs",
    "fig9": "vmax/l,r100/rs,r100_sd/rs",
}
FIG_HEADERS["fig3"] = FIG_HEADERS["fig2"]
FIG_HEADERS["fig5"] = FIG_HEADERS["fig4"]


def check_figs(out_dir, calib):
    r_stat = {round(c["side"]): c["formatted"] for c in calib} if calib else None
    for name, rows_expected in FIG_ROWS.items():
        header, rows = read_csv(os.path.join(out_dir, name + ".csv"))
        expect(",".join(header) == FIG_HEADERS[name], f"{name}: header {header}")
        expect(len(rows) == rows_expected, f"{name}: {len(rows)} rows")
        for row in rows:
            expect(len(row) == len(header), f"{name}: ragged row {row}")
            vals = [float(v) for v in row]
            if name in ("fig2", "fig3", "fig6"):
                l, n = vals[0], int(row[1])
                expect(n == round(math.sqrt(l)), f"{name}: n={n} at l={l}")
                if r_stat is not None:
                    expect(row[2] == r_stat[round(l)],
                           f"{name}: r_stat {row[2]} != in-process {r_stat[round(l)]}")
            if name in ("fig2", "fig3"):
                expect(non_increasing(vals[3:7]) and vals[6] > 0,
                       f"{name}: r100 >= r90 >= r10 >= r0 > 0 fails: {row}")
            elif name in ("fig4", "fig5"):
                expect(all(0 <= v <= 1 for v in vals[2:]) and non_increasing(vals[2:]),
                       f"{name}: fractions not ordered in [0, 1]: {row}")
            elif name == "fig6":
                expect(non_increasing(vals[3:]) and vals[5] > 0,
                       f"{name}: rl90 >= rl75 >= rl50 > 0 fails: {row}")
            else:
                expect(vals[1] > 0 and vals[2] >= 0, f"{name}: bad row {row}")
    return [n + ".csv" for n in FIG_ROWS]


def kernel_partition_ok(kernel):
    s = kernel["step"]
    return (s["incremental_steps"] + s["bulk_rescan_steps"] + s["cache_verify_steps"]
            + s["fallback_steps"] == s["steps"])


def check_trace(out_dir, calib, seed):
    header, rows = read_csv(os.path.join(out_dir, "trace.csv"))
    expect(len(header) == 12 and len(rows) == 8, f"trace.csv: {len(rows)} rows")
    with open(os.path.join(out_dir, "trace.json")) as f:
        art = json.load(f)
    expect((art["side"], art["nodes"], art["iterations"], art["steps"], art["seed"])
           == (1024.0, 2000, 1, 60, seed), "trace.json: wrong configuration")
    rs = art["r_stationary"]
    if calib:
        expect(rs == calib[0]["value"],
               f"trace.json: r_stationary {rs} != in-process {calib[0]['value']}")
    cells = [(m, x) for m in ("waypoint", "gauss-markov") for x in (0.75, 1.0, 1.25, 1.5)]
    expect(len(art["rows"]) == len(cells), "trace.json: wrong row count")
    for (model, mult), row in zip(cells, art["rows"]):
        s = row["summary"]
        expect(row["model"] == model and row["multiplier"] == mult
               and row["range"] == rs * mult, f"trace.json: unexpected cell {row['model']}")
        expect(0 <= s["availability"] <= 1 and 0 <= s["path_availability"] <= 1,
               f"trace.json: availability outside [0, 1] in {model} x{mult}")
        expect((s["iterations"], s["nodes"], s["steps"]) == (1, 2000, 60),
               f"trace.json: wrong shape in {model} x{mult}")
        expect(kernel_partition_ok(s["kernel"]), f"trace.json: path partition in {model}")
    return ["trace.csv", "trace.json"]


def check_scaling(out_dir, reference):
    header, rows = read_csv(os.path.join(out_dir, "critical_scaling.csv"))
    expect(len(rows) == 12, f"critical_scaling.csv: {len(rows)} rows")
    with open(os.path.join(out_dir, "critical_scaling.json")) as f:
        art = json.load(f)
    models = ("waypoint", "drunkard", "gauss-markov", "rpgm")
    cells = [(m, n) for n in (16, 32, 64) for m in models]
    expect(len(art["cells"]) == len(cells), "critical_scaling.json: wrong cell count")
    for (model, n), cell in zip(cells, art["cells"]):
        expect((cell["model"], cell["n"]) == (model, n), f"unexpected cell {cell['model']}")
        expect(cell["r_c"] > 0 and cell["rho_c"] == cell["r_c"] / cell["side"]
               and cell["rho_c"] <= math.sqrt(2), f"bad critical point in {model}@{n}")
        expect(cell["probes"] >= 1 and kernel_partition_ok(cell["kernel"]),
               f"bad probe counts in {model}@{n}")
    expect([f["model"] for f in art["fits"]] == list(models)
           and all(f["fit"] is not None for f in art["fits"]), "missing scaling fits")
    if reference is not None:
        for cell, ref in zip(art["cells"], reference):
            tol = SEARCH_REL_TOL * ref["side"]
            expect(abs(cell["r_c"] - ref["r_c"]) <= tol,
                   f"{cell['model']}@{cell['n']}: r_c {cell['r_c']} vs recorded {ref['r_c']}")
    return []


def check_outputs(workload, out_dir, seed, calib):
    """Raises BenchError unless the CLI's artifacts are correct."""
    with open(os.path.join(BENCH_DIR, "reference", "default_seed.json")) as f:
        reference = json.load(f)[workload] if seed == DEFAULT_SEED else None
    if workload == "figs":
        hashed = check_figs(out_dir, calib)
    elif workload == "trace-large":
        hashed = check_trace(out_dir, calib, seed)
    else:
        hashed = check_scaling(out_dir, reference and reference["cells"])
    if reference is not None:
        for name in hashed:
            expect(sha256_file(os.path.join(out_dir, name)) == reference["sha256"][name],
                   f"{name} differs from the recorded default-seed artifact")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def artifact_digests(out_dir):
    return {f: sha256_file(os.path.join(out_dir, f))
            for f in sorted(os.listdir(out_dir)) if f.endswith((".csv", ".json"))}


class Probe:
    """Times the host-speed probe; its checksum must never change."""

    def __init__(self, layers_bin):
        self.layers_bin = layers_bin
        self.checksum = None
        self.times = []

    def __call__(self):
        probe = layers(self.layers_bin, "probe")
        self.checksum = self.checksum or probe["checksum"]
        expect(probe["checksum"] == self.checksum, "host-speed probe checksum changed")
        self.times.append(probe["seconds"])
        return probe["seconds"]


def input_seed(args, layers_bin):
    """The seed every child of the run is given (see RANGE_TARGET).

    At the default seed the children run that seed itself, so their
    artifacts are checked against the recorded ones.
    """
    target = RANGE_TARGET.get(args.workload)
    if target is None or args.seed == DEFAULT_SEED:
        return args.seed

    def distance(seed):
        setup = layers(layers_bin, "setup", "--workload", args.workload, "--seed", str(seed),
                       "--seconds", "0")
        return abs(setup["r_stationary"][0]["value"] - target)

    return min((args.seed + k * SEED_STRIDE for k in range(SEED_CANDIDATES)), key=distance)


def run_end_to_end(args, seed, cli, layers_bin, argv, work):
    samples, setup_passes, failures = [], [], []
    first_digests = calibration = None
    out_dir = os.path.join(work, "out")
    probe = Probe(layers_bin)
    before = probe()
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < args.seconds:
        setup = layers(layers_bin, "setup", "--workload", args.workload, "--seed",
                       str(seed), "--seconds", str(SETUP_SECONDS), serial=True)
        calibration = calibration or setup["r_stationary"]
        code, wall, usage = run_child(cli, argv + ["--seed", str(seed)], out_dir)
        after = probe()
        scale = PROBE_REFERENCE_S / (0.5 * (before + after))
        before = after
        setup_passes += [p * scale for p in setup["passes_s"]]
        ok = code == 0
        if ok:
            try:
                expect(setup["r_stationary"] == calibration, "set-up calibration changed")
                check_outputs(args.workload, out_dir, seed, calibration)
                # Every child runs the same input, so its artifacts must
                # repeat the first child's byte for byte.
                digests = artifact_digests(out_dir)
                first_digests = first_digests or digests
                expect(digests == first_digests, "artifacts differ from the run's first child")
            except (BenchError, OSError, ValueError, KeyError) as e:
                ok = False
                failures.append(f"child {len(samples)}: {e}")
        else:
            failures.append(f"child {len(samples)}: exited with {code}")
        cpu = usage.ru_utime + usage.ru_stime
        samples.append({"ok": ok, "scale": scale, "raw_wall_s": wall, "raw_cpu_s": cpu,
                        "wall_s": wall * scale, "cpu_s": cpu * scale,
                        "peak_rss_mb": usage.ru_maxrss / 1024.0})
    med = lambda key: statistics.median(s[key] for s in samples)  # noqa: E731
    metrics = {
        "wall_s": metric(med("wall_s"), "s"),
        "setup_s": metric(statistics.median(setup_passes), "s"),
        "cpu_s": metric(med("cpu_s"), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MiB"),
    }
    failed = sum(not s["ok"] for s in samples)
    print(f"{args.workload}: {len(samples)} runs of manet-repro {' '.join(argv)} --seed {seed}")
    print(f"  host-speed probe: median {statistics.median(probe.times):.4f} s of "
          f"{len(probe.times)} (reference {PROBE_REFERENCE_S} s); times below are "
          f"scaled to the reference, raw medians in brackets")
    counts = {"setup_s": len(setup_passes)}
    raw = {"wall_s": med("raw_wall_s"), "cpu_s": med("raw_cpu_s")}
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:.6f} {m['unit']}  "
              f"(median of {counts.get(name, len(samples))})"
              + (f"  [raw {raw[name]:.6f} s]" if name in raw else ""))
    print(f"  {'failed_runs':<12} {failed / len(samples):.6f} fraction  ({failed} of "
          f"{len(samples)})")
    for f in failures[:5]:
        print(f"  failure: {f}")
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}, {"samples": samples, "setup_passes_s": setup_passes,
                                  "probe_s": probe.times, "failures": failures}


def run_traced(args, seed, cli, layers_bin, argv, work):
    out_dir = os.path.join(work, "out")
    code, _, _ = run_child(cli, argv + ["--seed", str(seed)], out_dir)
    failures = []
    if code != 0:
        failures.append(f"child exited with {code}")
    else:
        try:
            check_outputs(args.workload, out_dir, seed, None)
        except (BenchError, OSError, ValueError, KeyError) as e:
            failures.append(str(e))
    replay = layers(layers_bin, "replay", "--workload", args.workload, "--seed",
                    str(seed), "--seconds", str(args.seconds), "--artifacts", out_dir)
    failures += [f"{c['name']}: {c['detail']}" for c in replay["checks"] if not c["ok"]]
    metrics = {m["name"]: metric(m["value"], m["unit"]) for m in replay["metrics"]}
    print(f"{args.workload}: traced replay x{replay['replays']} "
          f"({replay['spans']} spans per replay)")
    for c in replay["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:.6f} {m['unit']}")
    overhead = metrics["tracing.overhead_s"]["value"]
    wall = metrics["replay.wall_s"]["value"]
    if args.workload != "critical-scaling" and wall > 0:
        print(f"  tracing overhead: {overhead:.4f} s of {wall:.4f} s traced replay")
    for f in failures[:5]:
        print(f"  failure: {f}")
    result = {"correct": not failures, "attempted": 1 + replay["replays"],
              "failed": len(failures), "metrics": metrics}
    return result, {"replay": replay, "failures": failures}


def record_reference(cli, layers_bin):
    """Rewrites reference/default_seed.json from this checkout's CLI."""
    reference = {}
    for workload in WORKLOADS:
        argv = layers(layers_bin, "argv", "--workload", workload)
        out_dir = os.path.join(RUNS_DIR, "reference", workload)
        code, _, _ = run_child(cli, argv + ["--seed", str(DEFAULT_SEED)], out_dir)
        expect(code == 0, f"{workload}: child exited with {code}")
        entry = {"sha256": artifact_digests(out_dir)}
        if workload == "critical-scaling":
            with open(os.path.join(out_dir, "critical_scaling.json")) as f:
                entry["cells"] = [{k: c[k] for k in ("model", "n", "side", "r_c")}
                                  for c in json.load(f)["cells"]]
        reference[workload] = entry
    with open(os.path.join(BENCH_DIR, "reference", "default_seed.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite reference/default_seed.json at seed {DEFAULT_SEED}")
    args = parser.parse_args()
    if not args.record_reference and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    try:
        cli, layers_bin = build()
        if args.record_reference:
            record_reference(cli, layers_bin)
            return 0
        host = host_block(layers_bin)
        argv = layers(layers_bin, "argv", "--workload", args.workload)
        work = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        os.makedirs(work, exist_ok=True)
        print("host: " + json.dumps(host, sort_keys=True))
        seed = input_seed(args, layers_bin)
        mode = run_traced if args.trace else run_end_to_end
        result, detail = mode(args, seed, cli, layers_bin, argv, work)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"host": host, "argv": argv, "seed": args.seed, "input_seed": seed,
                   "result": result, "detail": detail}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
