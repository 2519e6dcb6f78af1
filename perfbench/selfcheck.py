#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root. Checks that BENCHMARK.json and
perfbench/metrics.json name the same metrics, then runs every workload at
self-check sizes (--tiny, one second) with tracing off and on, through the
command BENCHMARK.json gives, and fails if a run is wrong or if any metric
of BENCHMARK.json is missing, lacks its unit or is not a number: every
workload reports every metric.
"""
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "metrics.json").read_text())
    problems = []

    units = {}
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        mapped = set(spec[kind])
        for name in declared.keys() - mapped:
            problems.append(f"{name}: in BENCHMARK.json, not in metrics.json")
        for name in mapped - declared.keys():
            problems.append(f"{name}: in metrics.json, not in BENCHMARK.json")
        units.update(declared)
    workloads = [w["name"] for w in bench["workloads"]]
    if set(spec["workloads"]) != set(workloads):
        problems.append("metrics.json and BENCHMARK.json name different "
                        "workloads")
    for name, entry in spec["per_layer"].items():
        for w in entry["on"]:
            if w not in workloads:
                problems.append(f"{name}: unknown workload {w}")
        for target in entry["moves"]:
            if target not in spec["end_to_end"]:
                problems.append(f"{name}: moves unknown metric {target}")

    for w in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = list(spec[kind])
            cmd = bench["command"] + ["--workload", w, "--seed", "1",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--tiny"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            tag = f"{w} --trace {trace}"
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append(f"{tag}: exit code {r.returncode}, no result")
                continue
            res = json.loads(lines[-1])
            if set(res) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']}")
            got = res["metrics"]
            for name in want:
                m = got.get(name)
                if m is None:
                    problems.append(f"{tag}: missing {name}")
                elif m.get("unit") != units[name]:
                    problems.append(f"{tag}: {name} unit {m.get('unit')!r}, "
                                    f"expected {units[name]!r}")
                elif not isinstance(m.get("value"), (int, float)) or \
                        not math.isfinite(m["value"]):
                    problems.append(f"{tag}: {name} value {m.get('value')!r}")
            for name in got.keys() - set(want):
                problems.append(f"{tag}: undeclared metric {name}")
            print(f"{tag}: {len(got)} metrics", file=sys.stderr)

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
