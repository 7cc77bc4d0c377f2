#!/usr/bin/env python3
"""Build and run the eventscale benchmark; print one result line.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds `benchmark/` (a cargo package of its own) from source, runs the
`eventscale-bench` binary for one workload, checks every simulator run
against `results/figures.json`, prints each metric by name with its unit,
the operation counts and the host fingerprint, records the full result
under `.bench_results/`, and prints as the last stdout line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. `--workload all` runs every workload in both modes.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "benchmark"
MANIFEST = ROOT / "BENCHMARK.json"
FIGURES = ROOT / "results" / "figures.json"
RESULTS = ROOT / ".bench_results"
BINARY = "eventscale-bench"
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark in release mode; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(PACKAGE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die("build failed")
    target = os.environ.get("CARGO_TARGET_DIR")
    target = Path(target) if target else PACKAGE / "target"
    binary = target / "release" / BINARY
    if not binary.is_file():
        die(f"built binary not found at {binary}")
    return binary


def run_binary(binary, workload, seed, seconds, mode):
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--out-dir", str(RESULTS),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        die(f"{workload}: {BINARY} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        die(f"{workload}: {BINARY} printed no result")
    return json.loads(lines[-1])


def expected_runs():
    """(figure, series label, clients) -> run record from results/figures.json."""
    try:
        doc = json.loads(FIGURES.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {FIGURES}: {e}")
    out = {}
    for fig in doc["figures"]:
        for series in fig["series"]:
            for run in series["runs"]:
                out[(fig["id"], run["label"], run["clients"])] = run
    return out


def check_sim(raw):
    """Compare every simulator run with results/figures.json; returns the
    number of runs that differ and a description of the first few."""
    if not raw["sim_runs"]:
        return 0, []
    expected = expected_runs()
    bad = []
    for entry in raw["sim_runs"]:
        run = entry["run"]
        key = (entry["figure"], run["label"], run["clients"])
        want = expected.get(key)
        if want != run:
            diff = sorted(k for k in run if want is None or want.get(k) != run[k])
            bad.append(f"{key[0]} {key[1]} @{key[2]} clients differs in {diff}")
    return len(bad), bad[:5]


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "benchmark"):
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "not a git checkout"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(io_uring):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "cpu_model": cpu_model(),
        "io_uring_granted": io_uring,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "build_profile": "release",
    }


def run_workload(binary, manifest, workload, seed, seconds, trace):
    mode = "traced" if trace else "timed"
    raw = run_binary(binary, workload, seed, seconds, mode)
    sim_failed, sim_errors = check_sim(raw)
    failed = raw["failed"] + sim_failed
    checks = raw["checks"] + [{
        "name": "simulator runs match results/figures.json",
        "ok": sim_failed == 0,
        "detail": f"{len(raw['sim_runs']) - sim_failed} of {len(raw['sim_runs'])} match",
    }]
    wanted = manifest["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            die(f"{workload}: metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            die(f"{workload}: metric {m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    host = fingerprint(raw["io_uring_granted"])
    correct = failed == 0 and all(c["ok"] for c in checks)

    print(f"== {workload} ({mode}, seed {seed}, {seconds} s)")
    for name, m in metrics.items():
        n = raw["samples"].get(name)
        suffix = f"  (n={int(n)})" if n is not None else ""
        print(f"   {name:42s} {m['value']:16.4f} {m['unit']}{suffix}")
    print(f"   operations attempted {raw['attempted']}, failed {failed}")
    for c in checks:
        print(f"   check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for e in raw["errors"] + sim_errors:
        print(f"   failure: {e}")
    if not host["io_uring_granted"]:
        print("   note: the kernel refused an io_uring ring; nio_uring ran on its epoll fallback")
    print("   host " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"   request-stream digest {raw['input_digest']}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "mode": mode,
        "host": host, "input_digest": raw["input_digest"],
        "correct": correct, "attempted": raw["attempted"], "failed": failed,
        "metrics": raw["metrics"], "samples": raw["samples"], "checks": checks,
        "errors": raw["errors"] + sim_errors,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-{mode}-seed{seed}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": correct, "attempted": raw["attempted"], "failed": failed, "metrics": metrics}, record


def print_sim_paper(records):
    """The sim-paper figures run inside every workload; show them together."""
    print("== sim-paper (fig1a + fig1b at paper scale, run inside each workload above)")
    for r in records:
        m = r["metrics"]
        for name in ("sim.wall_s", "serversim.run_ms.event_driven", "serversim.run_ms.threaded",
                     "serversim.sim_replies_per_wall_s", "experiments.sweep_efficiency"):
            if name in m:
                print(f"   {r['workload']:16s} {name:34s} {m[name]['value']:16.4f} {m[name]['unit']}")
        sim = [c for c in r["checks"] if c["name"].startswith("simulator")]
        for c in sim:
            print(f"   {r['workload']:16s} check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        manifest = json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {MANIFEST}: {e}")
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die(f"unknown workload {args.workload}; one of {names} or all")
    binary = build()
    if args.workload != "all":
        result, _ = run_workload(binary, manifest, args.workload, args.seed, args.seconds, args.trace)
    else:
        runs = {
            (w, t): run_workload(binary, manifest, w, args.seed, args.seconds, t)
            for w in names for t in (0, 1)
        }
        print_sim_paper([record for _, record in runs.values()])
        results = {key: result for key, (result, _) in runs.items()}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": m
                for (w, t), r in results.items() if t == args.trace
                for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
