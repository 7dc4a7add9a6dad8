#!/usr/bin/env python3
"""Self-check of the benchmark definition and its output.

    python3 perfbench/selfcheck.py              # BENCHMARK.json is well formed
    python3 perfbench/selfcheck.py --run 1      # also run every workload in
                                                # both modes and check output

Checks that BENCHMARK.json is well formed and that run.py knows every
workload it names. run.py takes the metric names and units from
BENCHMARK.json; with --run this checks that each workload's last output
line carries every metric of its mode with its unit, and that every answer
was correct. Exits non-zero if any check fails.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_definition(bench, errors):
    def need(cond, msg):
        if not cond:
            errors.append(msg)

    need(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"top-level keys: {sorted(bench)}")
    cmd = bench.get("command", [])
    need(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
         all(isinstance(a, str) and len(a) <= 200 and not a.startswith("/") and ".." not in a
             for a in cmd), "command")
    paths = bench.get("paths", [])
    need(1 <= len(paths) <= 16, "paths count")
    for p in paths:
        need(bool(PATH.match(p)) and ".." not in p.split("/") and not p.startswith("/"),
             f"path {p}")
        need(os.path.isdir(os.path.join(ROOT, p)), f"path {p} is not a directory")
    need(isinstance(bench.get("run_seconds"), int) and 1 <= bench["run_seconds"] <= 60,
         "run_seconds")

    workloads = bench.get("workloads", [])
    need(2 <= len(workloads) <= 8, "workload count")
    for w in workloads:
        need(set(w) == {"name", "why"} and NAME.match(w["name"]) and
             0 < len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w}")
    need(set(w["name"] for w in workloads) == set(run.UNEXERCISED),
         "workloads differ from those run.py knows")

    e2e, layers = bench.get("end_to_end", []), bench.get("per_layer", [])
    need(1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128, "metric counts")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {m}")
        need(0 < m.get("bound", 0) <= 0.25, f"bound of {m['name']}")
    for m in layers:
        need(set(m) == {"name", "unit", "better"}, f"per_layer keys {m}")
    names = [m["name"] for m in e2e + layers]
    need(len(names) == len(set(names)), "metric names repeat")
    for m in e2e + layers:
        need(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"])) and
             m["better"] in ("lower", "higher"), f"metric {m}")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "setup_s must be an end-to-end metric in s, lower is better")
    if setup:
        need(all(m["bound"] <= setup[0]["bound"] for m in e2e),
             "setup_s must have the largest bound")
    need(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json larger than 64 KiB")


def check_result(line, expected_units, errors, label):
    try:
        res = json.loads(line)
    except ValueError:
        errors.append(f"{label}: last line is not JSON")
        return
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: keys {sorted(res)}")
        return
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and
            isinstance(res["failed"], int)):
        errors.append(f"{label}: attempted/failed")
    if res["correct"] is not True or res["failed"] != 0:
        errors.append(f"{label}: correct={res['correct']} failed={res['failed']}")
    if set(res["metrics"]) != set(expected_units):
        errors.append(f"{label}: metrics {sorted(set(res['metrics']) ^ set(expected_units))}")
    for k, v in res["metrics"].items():
        if k in expected_units and (v.get("unit") != expected_units[k] or
                                    not isinstance(v.get("value"), (int, float)) or
                                    not math.isfinite(v["value"])):
            errors.append(f"{label}: metric {k} = {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", type=int, default=0, metavar="SECONDS",
                    help="also run every workload for SECONDS in both modes")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    check_definition(bench, errors)
    if args.run and not errors:
        units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                 1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
        for w in [w["name"] for w in bench["workloads"]]:
            for trace in (0, 1):
                label = f"{w} --trace {trace}"
                proc = subprocess.run(
                    bench["command"] + ["--workload", w, "--seed", str(args.seed),
                                        "--seconds", str(args.run), "--trace", str(trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    errors.append(f"{label}: exit {proc.returncode}")
                    continue
                check_result(lines[-1], units[trace], errors, label)
                print(f"{label}: {lines[-1]}", flush=True)
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
