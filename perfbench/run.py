#!/usr/bin/env python3
"""End-to-end benchmark of ltns: four seeded workloads, one per process.

    python3 perfbench/run.py --workload amp_solo --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds libltns and the
ltns_perfbench driver from source into .bench_build/. Each run generates its
inputs from --seed, computes (or reuses) reference answers in a separate
process, then runs the workload in a fresh process that times the calls into
the program and checks every answer. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import hashlib
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "ltns_perfbench")

# Per-layer metrics that a workload does not exercise, by name prefix. A
# traced run reports them as 0 when ltns_perfbench leaves them out; leaving
# out any other metric of BENCHMARK.json fails the run.
UNEXERCISED = {
    "amp_solo": ("dist.", "query."),
    "amp_elastic": ("query.",),
    "query_mix": ("dist.",),
    "plan_sycamore": ("api.", "cache.", "device.", "runtime.", "dist.", "query.",
                      "exec.permute", "exec.gemm", "exec.staging", "exec.stem",
                      "exec.flops", "exec.main"),
}

# The grid circuits, `gen grid <rows> <cols> <cycles> <seed>`. Each is sized
# so that one timed pass takes 1 to 3 s on 4 threads and a run makes several
# passes to take the median of: amp_* contracts 25 qubits in 8 slices (256
# subtasks, 1.6e10 flops), query_mix 63 contractions of 20 qubits.
GRID = {"amp": (5, 5, 11), "query_mix": (4, 5, 10)}

# A run must end within this many seconds; the first one in a checkout may
# take longer because it builds.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 800


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def call(args, deadline, capture=False):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {os.path.basename(args[0])}")
    try:
        proc = subprocess.run(args, cwd=ROOT, timeout=left, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(args)}")
    return proc.stdout


def build():
    """Configures once, then builds incrementally; serialized by a lock."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            call(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], deadline)
        call(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "ltns_perfbench"], deadline)


def digest(*texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def read(path):
    with open(path) as f:
        return f.read()


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def build_id():
    """Hash of the ltns_perfbench binary, which links libltns statically.
    Cached answers are keyed by it, so a rebuild never checks against an
    answer another build computed."""
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def random_bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def make_queries(seed, n):
    """69 queries over n qubits. The seed picks every bit value, Pauli letter
    and sample seed. The open sets and the order of query kinds are fixed:
    which qubits are open sets a contraction's cost (bit values do not), so
    seeds then differ in values only, not in the work a pass does. Every
    sample query has a batch query with the same pattern, so its stream can
    be checked against Simulator::sample_from_batch on that batch."""
    shape = random.Random("query_mix:open-sets")
    batch_sets = [set(shape.sample(range(n), 5)) for _ in range(4)]
    sample_sets = [set(shape.sample(range(n), 6)) for _ in range(3)]
    expect_sets = [set(shape.sample(range(n), 3)) for _ in range(8)]
    rng = random.Random(f"query_mix:{seed}")

    def pattern(open_set):
        base = random_bits(rng, n)
        return "".join("?" if q in open_set else base[q] for q in range(n))

    others = []
    for open_set in batch_sets:              # 4 open sets x 3 bases, 5 open
        others += [f"batch {pattern(open_set)}" for _ in range(3)]
    for open_set in sample_sets:             # 3 open sets x 2 bases, 6 open
        for _ in range(2):
            p = pattern(open_set)
            others += [f"batch {p}", f"sample 16 {rng.randrange(1 << 30)} {p}"]
    for support in expect_sets:              # 8 supports, 3-qubit Paulis
        paulis = "".join(rng.choice("XYZ") if q in support else "I" for q in range(n))
        others.append(f"expect {paulis} {random_bits(rng, n)}")
    amps = []
    while len(amps) < 37:
        b = random_bits(rng, n)
        if b not in amps:
            amps.append(b)
    # Fixed interleaving: one amp, then one other query, while both last.
    lines = []
    for i in range(max(len(amps), len(others))):
        lines += [f"amp {amps[i]}"] if i < len(amps) else []
        lines += [others[i]] if i < len(others) else []
    return "\n".join(lines) + "\n"


def prepare_inputs(workload, seed, deadline):
    """Writes the workload's generated inputs. Returns the ltns_perfbench
    arguments and the (temporary, final) names of answer files it writes,
    which are kept only if its run is correct."""
    family = "amp" if workload.startswith("amp_") else workload
    work = os.path.join(WORK_DIR, f"{family}-{seed}")
    os.makedirs(work, exist_ok=True)
    path = lambda name: os.path.join(work, name)
    rng = random.Random(f"{family}:{seed}")

    if family == "plan_sycamore":
        circuits = []
        for m in (12, 14, 16):
            call([BINARY, "gen", "sycamore", str(m), str(seed), path(f"sycamore{m}.qc")], deadline)
            circuits.append(path(f"sycamore{m}.qc"))
        write(path("bits.txt"), "\n".join(random_bits(rng, 53) for _ in circuits) + "\n")
        return ["--circuits", " ".join(circuits), "--bits", path("bits.txt")], []

    rows, cols, cycles = GRID[family]
    call([BINARY, "gen", "grid", str(rows), str(cols), str(cycles), str(seed), path("circuit.qc")],
         deadline)
    circuit = read(path("circuit.qc"))
    if family == "query_mix":
        write(path("queries.txt"), make_queries(seed, rows * cols))
        ref = path(f"ref-{digest(circuit, read(path('queries.txt')), build_id())}.txt")
        if not os.path.exists(ref):
            log("computing the statevector reference")
            call([BINARY, "reference", "queries", path("circuit.qc"), path("queries.txt"),
                  ref + ".tmp"], deadline)
            os.replace(ref + ".tmp", ref)
        return ["--circuit", path("circuit.qc"), "--queries", path("queries.txt"),
                "--ref", ref], []

    write(path("bits.txt"), random_bits(rng, rows * cols) + "\n")
    key = digest(circuit, read(path("bits.txt")), build_id())
    ref, solo = path(f"ref-{key}.txt"), path(f"solo-{key}.txt")
    if not os.path.exists(ref):
        log("computing the statevector reference")
        call([BINARY, "reference", "amp", path("circuit.qc"), path("bits.txt"), ref + ".tmp"],
             deadline)
        os.replace(ref + ".tmp", ref)
    args = ["--circuit", path("circuit.qc"), "--bits", path("bits.txt"), "--ref", ref]
    # `solo` is the in-process amplitude of this build, which amp_elastic
    # must equal bit for bit. amp_solo records it; amp_elastic computes it
    # when no amp_solo run of this build has.
    if workload == "amp_solo" and not os.path.exists(solo):
        tmp = f"{solo}.{os.getpid()}.tmp"
        return args + ["--answer-out", tmp], [(tmp, solo)]
    if workload == "amp_elastic":
        if not os.path.exists(solo):
            log("computing the in-process amplitude the elastic run must equal")
            call([BINARY, "solo", path("circuit.qc"), path("bits.txt"), solo + ".tmp"], deadline)
            os.replace(solo + ".tmp", solo)
        args += ["--solo", solo]
    return args, []


def main():
    # BENCHMARK.json is the one definition of the workloads and metrics.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        build()
        deadline = time.monotonic() + RUN_LIMIT_S
        inputs, answers = prepare_inputs(args.workload, args.seed, deadline)
        results = os.path.join(WORK_DIR, "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        cmd = [BINARY, "run", args.workload, "--seconds", repr(args.seconds),
               "--trace", str(args.trace)] + inputs
        if args.trace:
            cmd += ["--spans-out", stem + ".spans.json"]
        lines = call(cmd, deadline, capture=True).strip().splitlines()
        if not lines:
            raise BenchError("ltns_perfbench printed nothing")
        report = json.loads(lines[-1])
    except (BenchError, OSError, ValueError) as e:
        log(f"failed: {e}")
        return 1

    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = report["metrics"]
    for k in wanted:
        if k not in metrics and args.trace and k.startswith(UNEXERCISED[args.workload]):
            metrics[k] = 0
    missing = [k for k in wanted if k not in metrics]
    if missing:
        log(f"ltns_perfbench did not report {missing}")
        return 1
    for reason in report["failures"]:
        log(f"failed answer: {reason}")
    for tmp, final in answers:
        if report["failed"] == 0 and os.path.exists(tmp):
            os.replace(tmp, final)
        elif os.path.exists(tmp):
            os.remove(tmp)
    record = dict(report, seed=args.seed, seconds=args.seconds, trace=args.trace)
    write(stem + ".json", json.dumps(record, indent=1) + "\n")
    print("# env " + json.dumps(report["env"], sort_keys=True))
    result = {
        "correct": report["attempted"] > 0 and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
