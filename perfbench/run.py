#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds what it measures from source
(into $CARGO_TARGET_DIR, default .bench_build), runs the workload, checks
the simulated results, prints every metric by name and unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
gives the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
DIGESTS = BENCH / "digests.txt"
WORK = ROOT / ".bench_build" / "perfbench-work"

WORKLOADS = ("sim_mix", "paper_tiny")

# The experiments paper_tiny regenerates: the four that share the
# default-config cells, each with CSV output, as `figures all --csv` would.
EXPERIMENTS = ("fig11", "fig14", "fig16", "ext_energy")
FIGURES_ARGS = ("--scale", "tiny", "--jobs", "2", "--csv", "csv", "--bench-timings")

# Each isolated replay's metric and the in-situ metric it approximates.
REPLAYED = (("l1.replay_hit_rate", "l1.hit_rate"),
            ("mem.replay_buffer_hit_rate", "mem.buffer_hit_rate"),
            ("prefetch.targets", "prefetch.fills"))

# Passes every run makes, however long they take.
MIN_PASSES = 2

# The memory-latency probe's reading, in ns, on this benchmark's reference
# host (a shared 2-core Xeon VM) when other tenants leave memory idle. A
# run's host times are scaled by REFERENCE_PROBE_NS / its median probe, so
# they read as on that host unloaded (README, Noise).
REFERENCE_PROBE_NS = 120.0

# Log lines already written to stderr.
LOGGED = set()


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def release_profile_flags():
    """The repository's [profile.release] as cargo --config flags, so the
    benchmark package is built with the settings the repository ships."""
    manifest = tomllib.loads((ROOT / "Cargo.toml").read_text())
    flags = []

    def walk(prefix, table):
        for key, value in table.items():
            name = key if re.fullmatch(r"[A-Za-z0-9_-]+", key) else json.dumps(key)
            if isinstance(value, dict):
                walk(f"{prefix}.{name}", value)
            else:
                literal = json.dumps(value) if isinstance(value, (bool, str)) else str(value)
                flags.extend(["--config", f"{prefix}.{name}={literal}"])

    walk("profile.release", manifest.get("profile", {}).get("release", {}))
    return flags


def build(workload):
    """Builds perfbench-cells (and, for paper_tiny, the figures binary);
    returns the target directory."""
    # Absolute, since figures is also launched from a work directory.
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [[*cargo, "--manifest-path", str(BENCH / "Cargo.toml"), *release_profile_flags()]]
    if workload == "paper_tiny":
        builds.append([*cargo, "-p", "mda-bench", "--bin", "figures"])
    for cmd in builds:
        # Cargo's output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release"


def wait(proc):
    """Waits for `proc`; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def log(line):
    """Writes a log line to stderr, unless an earlier pass already did."""
    if line not in LOGGED:
        LOGGED.add(line)
        sys.stderr.buffer.write(line)


def perfbench_cells(bin_dir, *args):
    """Runs perfbench-cells; returns (its result object, its peak RSS in MB)."""
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "perfbench-cells.err", "w+b") as err:
        proc = subprocess.Popen([bin_dir / "perfbench-cells", *map(str, args)],
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            code, rss_mb = wait(proc)
        err.seek(0)
        for line in err:
            log(line)
    if code != 0:
        raise BenchError(f"perfbench-cells exited with {code}")
    return json.loads(out.decode().strip().splitlines()[-1]), rss_mb


def probe_ns(bin_dir):
    """The host's current memory latency, from one probe process."""
    return perfbench_cells(bin_dir, "--probe")[0]["probe_ns"]


def cells_pass(bin_dir, workload, seed):
    """One process that sets up and simulates each cell of `workload` once,
    after a memory-latency probe."""
    probes = [probe_ns(bin_dir)]
    start = time.perf_counter()
    r, rss_mb = perfbench_cells(bin_dir, "--workload", workload, "--seed", seed, "--trace", 0)
    parts = {label: {"wall": c["wall_s"], "sim": c["sim_s"], "mem_ops": c["mem_ops"]}
             for label, c in r["cells"].items()}
    return {"wall": time.perf_counter() - start, "rss_mb": rss_mb, "setup": [r["setup_s"]],
            "attempted": r["attempted"], "failed": r["failed"], "parts": parts, "probes": probes}


def read_digests():
    digests = {}
    for line in DIGESTS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, value = line.split()
            digests[key] = value
    return digests


def output_digests(workdir):
    """Digests of the pass's stdout and of each CSV it wrote."""
    files = {"paper_tiny/stdout": workdir / "stdout.txt"}
    for csv in sorted((workdir / "csv").glob("*.csv")):
        files[f"paper_tiny/csv/{csv.name}"] = csv
    return {key: hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
            for key, path in files.items()}


def check_outputs(got, expected):
    """Names every paper_tiny output that is missing, unexpected or differs
    from its recorded digest."""
    want = {k: v for k, v in expected.items() if k.startswith("paper_tiny/stdout")
            or k.startswith("paper_tiny/csv/")}
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def figures_run(figures, experiment, workdir, env):
    """Runs one experiment as a user would. Returns (wall seconds, seconds
    from launch until figures starts the experiment, peak RSS in MB); the
    experiment's stdout is left in stdout-<experiment>.txt."""
    with open(workdir / f"stdout-{experiment}.txt", "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([figures, experiment, *FIGURES_ARGS], cwd=workdir, env=env,
                                stdout=out, stderr=subprocess.PIPE)
        launch = None
        try:
            # figures prints `scale: ...` just before its first experiment.
            for line in proc.stderr:
                if launch is None and line.startswith(b"scale:"):
                    launch = time.perf_counter() - start
                sys.stderr.buffer.write(line)
        finally:
            code, rss_mb = wait(proc)
        wall = time.perf_counter() - start
    if code != 0 or launch is None:
        raise BenchError(f"figures {experiment} exited with {code}")
    return wall, launch, rss_mb


def figures_pass(bin_dir, expected, mem_ops):
    """Regenerates each experiment once, as a user would, and checks the
    output. `mem_ops` is what one experiment's render simulates. Each
    experiment follows a memory-latency probe, as a pass holds only four
    parts."""
    workdir = WORK / "pass"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in ("MDA_PANIC_CELL", "MDA_JOBS")}
    p = {"wall": 0.0, "rss_mb": 0.0, "setup": [], "attempted": 0, "parts": {}, "probes": []}
    degraded, stdout = 0, b""
    for experiment in EXPERIMENTS:
        p["probes"].append(probe_ns(bin_dir))
        wall, launch, rss_mb = figures_run(bin_dir / "figures", experiment, workdir, env)
        p["wall"] += wall
        [timing] = json.loads((workdir / "BENCH_harness.json").read_text())
        text = (workdir / f"stdout-{experiment}.txt").read_bytes()
        stdout += text
        degraded += text.count(b"degraded")
        p["rss_mb"] = max(p["rss_mb"], rss_mb)
        p["setup"].append(launch)
        p["attempted"] += timing["cells"]
        p["parts"][experiment] = {"wall": wall, "sim": timing["seconds"], "mem_ops": mem_ops}
    (workdir / "stdout.txt").write_bytes(stdout)
    got = output_digests(workdir)
    for key, value in got.items():
        log(f"digest {key} {value}\n".encode())
    bad = check_outputs(got, expected)
    for key in bad:
        print(f"FAILED {key}: output differs from its recorded digest", file=sys.stderr)
    p["failed"] = p["attempted"] if bad else min(degraded, p["attempted"])
    return p


def paper_tiny_mem_ops(bin_dir):
    """Trace memory operations of the cells one experiment's render
    simulates: every kernel on four default-config designs, one baseline
    and three MDA, whose op counts equal those of the four shared designs."""
    return perfbench_cells(bin_dir, "--workload", "paper_tiny", "--count-mem-ops")[0]["mem_ops"]


def repeat(one_pass, seconds):
    """Makes passes until the next would overrun `seconds`, and at least
    MIN_PASSES of them."""
    passes, start = [], time.perf_counter()
    while True:
        p = one_pass()
        passes.append(p)
        print(f"pass {len(passes)}: {p['wall']:.6g} s, probe {statistics.median(p['probes']):.6g} ns;",
              json.dumps({k: [v["wall"], v["sim"]] for k, v in p["parts"].items()}),
              json.dumps(p["probes"]), file=sys.stderr)
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            return passes


def summarise(passes):
    """The end-to-end metrics of a run. Host times are per part (a cell, or
    a paper_tiny experiment): each part's fastest pass, summed, because the
    shared host runs the same code in a fast and a much slower state from
    seconds to minutes at a time, and a median lands in either. Set-up
    time is the fastest pass's median set-up. Every host time is then
    scaled by REFERENCE_PROBE_NS / the run's median probe, which removes
    most of the slow states that outlast a run (README, Noise)."""
    parts = passes[0]["parts"]
    latency = statistics.median(x for p in passes for x in p["probes"])
    scale = REFERENCE_PROBE_NS / latency

    def fastest(field):
        return sum(min(p["parts"][k][field] for p in passes) for k in parts)

    mem_ops = sum(max(p["parts"][k]["mem_ops"] for p in passes) for k in parts)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall, sim = fastest("wall"), fastest("sim")
    setup = min(statistics.median(p["setup"]) for p in passes)
    print(f"{len(passes)} passes, {len(parts)} parts each; median probe {latency:.6g} ns;"
          f" unscaled: wall_s {wall:.6g}, sim {sim:.6g} s, setup_s {setup:.6g}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {
        "maccess_per_s": {"value": mem_ops / 1e6 / (sim * scale), "unit": "M/s"},
        "wall_s": {"value": wall * scale, "unit": "s"},
        "setup_s": {"value": setup * scale, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in passes), "unit": "MB"},
        "cells_ok_frac": {"value": (attempted - failed) / max(attempted, 1), "unit": "fraction"},
    }}


def run_workload(bin_dir, workload, seed, seconds, trace):
    if workload == "paper_tiny":
        expected = read_digests()
        mem_ops = paper_tiny_mem_ops(bin_dir)
        one_pass = lambda: figures_pass(bin_dir, expected, mem_ops)
    else:
        one_pass = lambda: cells_pass(bin_dir, workload, seed)
    if not trace:
        return summarise(repeat(one_pass, seconds))
    result = perfbench_cells(bin_dir, "--workload", workload, "--seed", seed, "--trace", 1)[0]
    if workload == "paper_tiny":
        p = one_pass()
        result["attempted"] += p["attempted"]
        result["failed"] += p["failed"]
        result["correct"] = result["failed"] == 0
        render = sum(part["sim"] for part in p["parts"].values())
        result["metrics"].update({
            "harness.cells": {"value": p["attempted"], "unit": "count"},
            "harness.render_s": {"value": render, "unit": "s"},
            "harness.csv_s": {"value": p["wall"] - render - sum(p["setup"]), "unit": "s"},
        })
    return result


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError("run from the repository root: the simulator sources are missing")

    bin_dir = build(args.workload)
    result = run_workload(bin_dir, args.workload, args.seed, args.seconds, args.trace)

    declared = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(declared.items()))}")

    note = " (unused: paper_tiny runs the figures binary, which takes no seed)" \
        if args.workload == "paper_tiny" else ""
    print(f"workload: {args.workload}  seed: {args.seed}{note}  trace: {args.trace}")
    print(f"cells: {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        # The isolated replays approximate; show them beside what ran in situ.
        for replay, in_situ in REPLAYED:
            print(f"  replay vs in situ: {replay} {metrics[replay]['value']:.6g}"
                  f" vs {in_situ} {metrics[in_situ]['value']:.6g}")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        sys.exit(1)
