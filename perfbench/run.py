#!/usr/bin/env python3
"""One benchmark command for the dnacomp exchange stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. The first call builds perfbench_driver from
src/ into .bench_build/perfbench (Release). --trace 0 prints every
end-to-end metric of BENCHMARK.json; --trace 1 runs the workload untraced
and then traced, prints every per-layer metric and writes a Chrome
trace-event file to .bench_out/. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code 0
only when every correctness check passed. Each run also appends a results
record, stamped with a run manifest, to .bench_out/results.jsonl.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "perfbench_driver"
WORKLOADS = ("exchange-cold", "exchange-hot", "grid", "stream-file")
TIME_LIMIT_S = 170.0  # a run must end within 180 s once built


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the driver (a no-op when up to date)."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_driver"])
    # the compiler's temporary files stay inside the checkout too
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def run_driver(workload, seed, seconds, traced, deadline):
    out = OUT_DIR / f"record-{workload}-{seed}-{'traced' if traced else 'plain'}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("DNACOMP_METRICS", None)  # measure the shipped defaults
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--out", str(out)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, "driver timed out"
    if done.returncode != 0 or not out.exists():
        return None, f"driver exited with {done.returncode}"
    return json.loads(out.read_text()), None


def source_digest():
    """sha256 over the files the benchmark builds from; identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(args, record):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": record["hardware_threads"],
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "DNACOMP_METRICS": "unset",
        "DNACOMP_METRICS_in_caller_env": os.environ.get("DNACOMP_METRICS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------- metrics

def usable_samples(record):
    """(windows, latency samples) measured while the hypervisor took at
    most the driver's steal limit of CPU time, or every window and sample
    when too few were usable (the third value says which)."""
    windows = record["windows"]
    lat = [v for v, k in zip(record["latency_ms"], record["latency_window"])
           if k >= 0 and windows[int(k)]["usable"]]
    usable = [w for w in windows if w["usable"]]
    if usable and ledger.tail_percentile(lat, 95.0) is not None:
        return usable, lat, False
    return windows, record["latency_ms"], True


def end_to_end(record):
    """End-to-end metrics of one record, plus notes on how they were
    sampled. Returns (metrics, notes, problems)."""
    problems = []
    windows, lat, all_windows = usable_samples(record)
    tail = ledger.tail_percentile(lat, 95.0)
    if tail is None:
        problems.append(f"latency_p95_ms: {len(lat)} samples leave fewer "
                        f"than {ledger.MIN_BEYOND} beyond p95")
        tail = (0.0, 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "setup_s": ledger.median(record["setup_s"]),
        "throughput_MBps": ledger.median([ratio(w["raw_bytes"] / 1e6,
                                                w["wall_s"])
                                          for w in windows]),
        "latency_p50_ms": ledger.median(lat),
        "latency_p95_ms": tail[0],
        "wire_ratio": ratio(record["wire_bytes"], record["wire_raw_bytes"]),
        # memory does not depend on steal: every window counts
        "peak_rss_MiB": ledger.median([w["peak_rss_mib"]
                                       for w in record["windows"]]),
    }
    notes = {"latency_samples": len(lat), "p95_samples_beyond": tail[1],
             "latency_unit": record["latency_unit"],
             "error_rate": ratio(record["failed"], record["attempted"]),
             "peak_rss_reset": record["peak_rss_reset"],
             "steal_share": record["steal_share"],
             "windows_used": len(windows),
             "windows_measured": len(record["windows"]),
             "steal_gate_fallback": all_windows}
    return m, notes, problems


def per_layer(traced, plain, names):
    """Per-layer metrics from the traced record; layers a workload does not
    exercise read 0."""
    values = dict(traced["layers"])
    for key, samples in traced["layer_samples"].items():
        values[key] = ledger.median(samples)
    values["sequence.generate_s"] = traced["generate_s"]
    for layer, ms in ledger.self_ms_by_layer(traced["spans"]).items():
        values[f"{layer}.self_ms_sum"] = ms
    plain_tput = end_to_end(plain)[0]["throughput_MBps"]
    traced_tput = end_to_end(traced)[0]["throughput_MBps"]
    values["obs.trace_overhead_pct"] = (
        100.0 * (plain_tput / traced_tput - 1.0) if traced_tput > 0 else 0.0)
    return {n: values.get(n, 0.0) for n in names}


def checks(record, expected):
    """Correctness problems in one record (empty list: all passed)."""
    problems = [f"{c['name']}: {c['detail']}" for c in record["checks"]
                if not c["ok"]]
    if record["failed"]:
        problems.append(f"{record['failed']} of {record['attempted']} "
                        "operations failed")
    for name, want in expected["canary"].items():
        got = record["canary_bytes"].get(name)
        if got != want:
            problems.append(f"canary {name}: {got} bytes, expected {want}")
    want = expected["workloads"][record["workload"]].get(
        str(int(record["seed"])))
    if want is not None and record["bytes_checked"] != want:
        problems.append(f"compressed bytes {record['bytes_checked']:.0f}, "
                        f"expected {want} for this seed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no library sources under {ROOT / 'src'}; run from a "
            "full checkout of the repository")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    build()
    built = time.monotonic()
    deadline = built + TIME_LIMIT_S

    # A traced run splits its time between the untraced and traced passes.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain, err = run_driver(args.workload, args.seed, seconds, False,
                            deadline)
    records = [plain] if plain else []
    traced = None
    if plain and args.trace:
        traced, err = run_driver(args.workload, args.seed, seconds, True,
                                 deadline)
        if traced:
            records.append(traced)
    if err:
        log(f"perfbench: {err}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    problems = [p for r in records for p in checks(r, expected)]
    e2e, notes, e2e_problems = end_to_end(plain)
    problems += e2e_problems
    man = manifest(args, plain)
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = per_layer(traced, plain, units)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(ledger.chrome_trace(
            traced["spans"], f"perfbench {args.workload} seed {args.seed}",
            man)))
        log(f"perfbench: wrote {trace_path.relative_to(ROOT)} "
            f"({len(traced['spans'])} spans)")
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = e2e

    print(f"# {args.workload} seed {args.seed}: {man['nproc']} cpus, "
          f"{man['compiler']}, {man['build_type']}, DNACOMP_METRICS unset, "
          f"build {built - start:.1f}s")
    print(f"# {notes['latency_samples']} latency samples "
          f"({notes['latency_unit']}), {notes['p95_samples_beyond']} beyond "
          f"p95; error_rate {notes['error_rate']:.4g}")
    print(f"# CPU steal {100 * notes['steal_share']:.1f} %; "
          f"{notes['windows_used']} of {notes['windows_measured']} windows "
          "used" + (" (too few under the steal limit: all used)"
                    if notes["steal_gate_fallback"] else ""))
    for name, unit in units.items():
        print(f"{name:44s} {values[name]:14.6g} {unit}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = not problems
    with open(OUT_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps({"manifest": man, "correct": correct,
                            "attempted": attempted, "failed": failed,
                            "end_to_end": e2e, "notes": notes,
                            "per_layer": values if args.trace else None,
                            "problems": problems}) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
