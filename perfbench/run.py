#!/usr/bin/env python3
"""Build and run the wall-clock benchmark, and label its report.

One workload run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload train-index --seed 1 --seconds 30 --trace 0

Every workload, untraced then traced, with the full labelled table:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Smoke size, failing if a named metric is missing or an output check fails:

    python3 perfbench/run.py --all --smoke

Run from the repository root. The Rust program (perfbench/src) is built
with cargo into $CARGO_TARGET_DIR (default perfbench/target); its chunk
files go to .perfbench_tmp/ under the root, removed after each run. The last
stdout line of a single-workload run is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Metric units, kinds
(measured or modeled), layers and what each should move are in
perfbench/catalog.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORLD = 2  # ranks (training) or shards (serving) every workload runs
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 150  # beyond --seconds: generation, set-up, the last job


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_specs():
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        catalog = json.loads((HERE / "catalog.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json / catalog.json: {e}")
    metrics = {m["name"]: m for m in catalog["metrics"]}
    for scope in ("end_to_end", "per_layer"):
        for m in bench[scope]:
            c = metrics.get(m["name"])
            if c is None or c["scope"] != scope:
                fail(f"{scope} metric {m['name']} is not in catalog.json as {scope}")
            if (c["unit"], c["better"]) != (m["unit"], m["better"]):
                fail(f"{m['name']}: unit/direction differ between BENCHMARK.json and catalog.json")
    listed = {m["name"] for s in ("end_to_end", "per_layer") for m in bench[s]}
    listed |= {m["name"] for m in catalog["metrics"] if m["scope"] == "reported"}
    if listed != set(metrics):
        fail(f"catalog.json and BENCHMARK.json list different metrics: {sorted(listed ^ set(metrics))}")
    workloads = [w["name"] for w in bench["workloads"]]
    if sorted(workloads) != sorted(catalog["workloads"]):
        fail("catalog.json and BENCHMARK.json list different workloads")
    return bench, catalog, metrics


def source_digest():
    """sha256 over the sources the benchmark builds, so a run is traceable
    to its code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "target" not in p.relative_to(ROOT).parts and p.suffix in (".rs", ".toml", ".lock", ".py", ".json"):
                files.append(p)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", "perfbench/target")).resolve()


def build(tmp):
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")
    binary = target_dir() / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def thread_env(tmp):
    nproc = os.cpu_count() or 1
    env = dict(os.environ, TMPDIR=str(tmp))
    # One kernel thread per rank unless the caller chose: world × threads
    # must fit the host (the program refuses otherwise).
    env.setdefault("ST_NUM_THREADS", str(max(1, nproc // WORLD)))
    return env


def run_binary(binary, tmp, workload, seed, seconds, trace, smoke):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=thread_env(tmp), capture_output=True, text=True, timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {seconds + RUN_SLACK_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True, exist_ok=True)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: program exited {r.returncode} without a report")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: unreadable report line")


def label(report, bench, metrics, workload, trace):
    """Attach units and kinds; every metric of the mode must be present.
    A per-layer metric of a layer the workload does not exercise (per
    catalog.json) reads 0. Returns the gated metrics, the reported-only
    ones, and the names missing."""
    scope = "per_layer" if trace else "end_to_end"
    got = report["metrics"]
    unknown = set(got) - set(metrics)
    if unknown:
        fail(f"{workload}: program reported metrics missing from catalog.json: {sorted(unknown)}")
    reported = {}
    if not trace:
        for name, c in metrics.items():
            if c["scope"] == "reported" and name in got:
                reported[name] = {"value": got[name], "unit": c["unit"], "kind": c["kind"], "layer": "reported, not gated"}
    out, missing = {}, []
    for m in bench[scope]:
        c = metrics[m["name"]]
        value = got.get(m["name"])
        if value is None:
            if workload in c["workloads"]:
                missing.append(m["name"])
                continue
            value = 0.0
        out[m["name"]] = {"value": value, "unit": c["unit"], "kind": c["kind"], "layer": c["layer"]}
    return out, reported, missing


def describe(workload, trace, report, labelled, reported, env_extra):
    print(f"== {workload} ({'traced, per-layer' if trace else 'untraced, end-to-end'}) ==")
    env = dict(report["env"], **env_extra)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name, m in {**labelled, **reported}.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:8s} {m['kind']:9s} {m['layer']}")
    for k, v in sorted(report["info"].items()):
        print(f"  info {k} = {v}")
    for c in report["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  failed_ratio = {failed / max(attempted, 1):.6g} ({int(failed)} of {int(attempted)} operations)")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--smoke", action="store_true", help="smoke-size inputs")
    args = ap.parse_args()
    bench, catalog, metrics = load_specs()
    if not args.all and args.workload not in catalog["workloads"]:
        fail(f"--workload must be one of {catalog['workloads']} (or pass --all)")
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else float(bench["run_seconds"]))

    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        started = time.time()
        binary = build(tmp)
        print(f"perfbench: built in {time.time() - started:.1f} s", file=sys.stderr)
        env_extra = {"commit": commit(), "source_sha256": source_digest(), "run_seconds": seconds}
        if not args.all:
            report = run_binary(binary, tmp, args.workload, args.seed, seconds, args.trace, args.smoke)
            labelled, reported, missing = label(report, bench, metrics, args.workload, args.trace)
            if missing:
                fail(f"{args.workload}: metrics missing from the report: {missing}")
            describe(args.workload, args.trace, report, labelled, reported, env_extra)
            result = {
                "correct": all(c["ok"] for c in report["checks"]) and report["failed"] == 0,
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in labelled.items()},
            }
            print(json.dumps(result))
            return

        problems = []
        for workload in catalog["workloads"]:
            for trace in (0, 1):
                report = run_binary(binary, tmp, workload, args.seed, seconds, trace, args.smoke)
                labelled, reported, missing = label(report, bench, metrics, workload, trace)
                describe(workload, trace, report, labelled, reported, env_extra)
                problems += [f"{workload}: metric {m} missing" for m in missing]
                problems += [f"{workload}: check {c['name']} failed" for c in report["checks"] if not c["ok"]]
                if report["failed"]:
                    problems.append(f"{workload}: {int(report['failed'])} failed operations")
        if problems:
            for p in problems:
                print(f"FAIL {p}")
            sys.exit(1)
        print(f"perfbench: all {len(catalog['workloads'])} workloads reported every metric; every check passed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
