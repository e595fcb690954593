#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One measured run:

    python3 perfbench/run.py --workload mlp-infer --seed 7 --seconds 30 --trace 0

builds the program and the benchmark from source into $CARGO_TARGET_DIR
(default .bench_build), runs one workload with every ACE_* environment
knob cleared, and prints the metrics with their units; the last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 1 reports the per-layer metrics instead and writes
a Chrome trace under the build directory.

    python3 perfbench/run.py --self-test

runs every workload in short mode and checks that every metric prints
with its unit, that counts and precision repeat exactly for one seed,
and that another seed changes the inputs but not the op counts.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mlp-infer", "mlp-serve")
# Leaves time under the 180 s limit for a run to report its failure.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    """The build directory of this checkout. It is keyed by the checkout's
    path, so checkouts that share $CARGO_TARGET_DIR never build each
    other's sources."""
    key = hashlib.sha256(str(HERE).encode()).hexdigest()[:12]
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "perfbench" / key)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(out), "--target",
                        "ace_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return out / "ace_perfbench"


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def clean_env():
    """The environment without any ACE_* knob: measure builtin defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ACE_")}


def run_once(binary, workload, seed, seconds, trace, requests=0, rev=None):
    """Runs one workload; returns (stdout lines, parsed result) or exits."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rev", rev or revision()]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{workload}-seed{seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    if requests:
        cmd += ["--requests", str(requests)]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        fail(f"{workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} result has keys {sorted(result)}")
    if trace:
        print(f"perfbench: Chrome trace in {trace_file}", file=sys.stderr)
    return lines, result


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def meta_of(lines):
    for line in lines:
        if line.startswith("meta "):
            return json.loads(line[5:])
    fail("no meta line")


def self_test():
    """Short-mode checks of the benchmark itself."""
    binary = build()
    rev = revision()
    contract = load_contract()
    e2e = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in contract["per_layer"]}
    # Op counts depend only on the compiled program, never on the data
    # (FHE execution is data-oblivious). The support layer's pool and
    # allocator counts follow thread interleavings, so only the other
    # counts must repeat exactly.
    def op_count(name):
        return (layers[name] == "count"
                and name.split(".")[0] in ("fhe", "passes", "air"))

    def repeatable(name):
        return layers[name] == "count" and not name.startswith("support.")

    problems = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    def check_units(result, wanted, what):
        got = result["metrics"]
        missing = [n for n in wanted if n not in got]
        extra = [n for n in got if n not in wanted]
        wrong = [n for n in wanted
                 if n in got and got[n].get("unit") != wanted[n]]
        expect(not missing and not extra and not wrong,
               f"{what}: every metric with its unit "
               f"(missing {missing}, extra {extra}, wrong unit {wrong})")

    short = {"mlp-infer": 4, "mlp-serve": 8}
    for w in WORKLOADS:
        n = short[w]
        runs = {}
        for key, seed, trace in (("a0", 101, 0), ("a0'", 101, 0),
                                 ("a1", 101, 1), ("a1'", 101, 1),
                                 ("b1", 202, 1)):
            runs[key] = run_once(binary, w, seed, 1, trace, n, rev)
        for key, (_, result) in runs.items():
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{w} {key}: correct, {result['attempted']} attempted")
        check_units(runs["a0"][1], e2e, f"{w} end-to-end")
        check_units(runs["a1"][1], layers, f"{w} per-layer")
        m = {k: r[1]["metrics"] for k, r in runs.items()}
        expect(m["a0"]["precision_bits"] == m["a0'"]["precision_bits"],
               f"{w}: precision_bits repeats for one seed")
        counts = [n for n in layers if repeatable(n)]
        same = [n for n in counts if m["a1"][n] == m["a1'"][n]]
        expect(len(same) == len(counts),
               f"{w}: per-layer counts repeat for one seed "
               f"(differ: {sorted(set(counts) - set(same))})")
        digest = {k: meta_of(r[0])["input_digest"] for k, r in runs.items()}
        expect(digest["a1"] == digest["a1'"] and digest["a1"] != digest["b1"],
               f"{w}: inputs follow the seed")
        moved = [n for n in layers if op_count(n)
                 and m["a1"][n]["value"] != m["b1"][n]["value"]]
        expect(not moved, f"{w}: another seed leaves fhe/passes/air counts "
                          f"unchanged (moved: {moved})")
    print("self-test " + ("passed" if not problems else
                          f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    lines, _ = run_once(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
