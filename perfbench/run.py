#!/usr/bin/env python3
"""The exchange benchmark: builds exchange_bench from source, runs one
workload and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload search-k9 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the run's spans next to the build). The result
line is {"correct", "attempted", "failed", "metrics"}; "failed" counts
verification failures, and any makes "correct" false. The line before it,
"stamp: {...}", records the box, the build and the scale of the run; the
same record, with every count, is saved under <build dir>/results/.

--self-test checks that the inputs depend only on the seed: in short runs
(--seconds 0.2), two runs with one seed must give byte-identical counts,
and another seed different ones.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) inside
the checkout. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("search-k9", "batched-k6", "storm-fed")
RUN_TIMEOUT_S = 170
SELF_TEST_SECONDS = 0.2


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    target = target.resolve()
    if ROOT not in target.parents and target != ROOT:
        target = ROOT / ".bench_build"  # stay inside the checkout
    return target / "perfbench"


def build(out):
    """Configures (once) and builds exchange_bench; returns its path."""
    if not (ROOT / "src" / "svc" / "exchange.hpp").is_file():
        fail(f"no ftcs sources under {ROOT / 'src'}; nothing to benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed", 3)
    exe = out / "exchange_bench"
    if not exe.is_file():
        fail("build produced no exchange_bench", 3)
    return exe


def run_bench(exe, workload, seed, seconds, trace, spans=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"exchange_bench exited with {p.returncode}", 4)
    return json.loads(lines[-1])


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    spec = json.loads(path.read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def cache_value(out, key):
    cache = out / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    return ""


def first_line(cmd):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                           cwd=ROOT)
        return p.stdout.strip().splitlines()[0] if p.returncode == 0 else None
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this names the code that ran)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.[ch]pp")) + sorted(
        p for p in BENCH_DIR.rglob("*") if p.is_file()
        and p.suffix in (".cpp", ".hpp", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def box_stamp(out):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l2 = None
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        pass
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    build_type = cache_value(out, "CMAKE_BUILD_TYPE")
    flags = " ".join(f for f in (
        cache_value(out, "CMAKE_CXX_FLAGS"),
        cache_value(out, "CMAKE_CXX_FLAGS_" + build_type.upper())) if f)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_cache": l2,
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "cxx_flags": flags + " -std=c++20 -Wall -Wextra",
        "build_type": build_type,
        "git_commit": first_line(["git", "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else None,
        "source_sha256": source_digest(),
    }


def measure(args):
    out = build_dir()
    exe = build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = results / f"{tag}.spans.tsv" if args.trace else None
    rep = run_bench(exe, args.workload, args.seed, args.seconds, args.trace,
                    spans)

    metrics = rep["metrics"]
    problems = []
    declared = declared_metrics(args.trace)
    for name, unit in declared:
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name]["unit"] != unit:
            problems.append(f"metric {name} has unit "
                            f"{metrics[name]['unit']}, declared {unit}")
    names = {n for n, _ in declared}
    metrics = {k: v for k, v in metrics.items() if k in names}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    stamp = box_stamp(out)
    stamp.update({"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "ops": rep["scale"]})
    record = {"stamp": stamp, "verify_failures": rep["verify_failures"],
              "attempted": rep["attempted"], "counts": rep["counts"],
              "timing_counts": rep["timing_counts"], "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    failed = rep["verify_failures"]
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": rep["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))


def self_test():
    """Same seed -> byte-identical counts; another seed -> different ones."""
    exe = build(build_dir())
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs = [run_bench(exe, workload, seed, SELF_TEST_SECONDS, trace)
                    for seed in (7, 7, 8)]
            same = [json.dumps(r["counts"]) for r in runs]
            good = (same[0] == same[1] and same[0] != same[2]
                    and all(r["verify_failures"] == 0 for r in runs))
            ok = ok and good
            print(f"{workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} ({same[0]})")
    print("self-test " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        measure(args)


if __name__ == "__main__":
    main()
