#!/usr/bin/env python3
"""Smoke and schema test of dmac_e2e (the e2e_smoke ctest).

    check_result.py --run DMAC_E2E --benchmark BENCHMARK.json --workdir DIR

Runs a --quick invocation of every workload with the traced pass and
checks its result file against BENCHMARK.json: every declared end-to-end and
per-layer metric is present for every workload, finite, with its declared
unit; the ledger rows sum to the traced wall time within 1%; no run failed.
Then runs one single-workload --trace 0 invocation and checks that its last
stdout line carries exactly the end-to-end metrics. Exit 0 when all hold.
"""

import argparse
import json
import math
import os
import subprocess
import sys


def last_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def check_line(line, metrics, problems, where):
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result line keys {sorted(line)}")
        return
    if line["correct"] is not True or line["failed"] != 0:
        problems.append(f"{where}: correct={line['correct']} "
                        f"failed={line['failed']}")
    if not isinstance(line["attempted"], int) or line["attempted"] < 1:
        problems.append(f"{where}: attempted={line['attempted']}")
    if set(line["metrics"]) != set(metrics):
        problems.append(f"{where}: metrics {sorted(line['metrics'])} != "
                        f"{sorted(metrics)}")
        return
    for name, unit in metrics.items():
        m = line["metrics"][name]
        if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"{where}: {name} = {m}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--run", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    repo = os.path.dirname(os.path.abspath(args.benchmark))
    os.makedirs(args.workdir, exist_ok=True)
    out = os.path.join(args.workdir, "quick.json")
    common = [f"--calibration={os.path.join(repo, 'CALIBRATION.json')}",
              f"--trace-dir={os.path.join(args.workdir, 'traces')}"]
    run = subprocess.run([args.run, "--quick", "--trace", "1", f"--out={out}"]
                         + common, capture_output=True, text=True, check=False)
    sys.stderr.write(run.stderr)
    problems = []
    if run.returncode != 0:
        problems.append(f"full --quick run exited {run.returncode}")
    with open(out, encoding="utf-8") as f:
        result = json.load(f)

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if sorted(result["workloads"]) != sorted(workloads):
        problems.append(f"workloads {sorted(result['workloads'])}")
    for name in workloads:
        w = result["workloads"].get(name, {})
        for metric, unit in e2e.items():
            m = w.get("end_to_end", {}).get(metric)
            if (m is None or m["unit"] != unit or m["n"] < 3
                    or not all(math.isfinite(m[k])
                               for k in ("median", "q1", "q3"))):
                problems.append(f"{name}: end_to_end {metric} = {m}")
        if w.get("end_to_end", {}).get("fail_frac", {}).get("value") != 0:
            problems.append(f"{name}: failed runs: {w.get('errors')}")
        for metric, unit in layer.items():
            m = w.get("per_layer", {}).get(metric)
            if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
                problems.append(f"{name}: per_layer {metric} = {m}")
        ledger = w.get("ledger", {})
        total = sum(ledger.get("rows_s", {}).values())
        wall = ledger.get("wall_s", 0)
        if wall <= 0 or abs(total - wall) > 0.01 * wall:
            problems.append(f"{name}: ledger rows sum {total} vs wall {wall}")
        if not os.path.isfile(w.get("trace", {}).get("file", "")):
            problems.append(f"{name}: no trace file")
    try:
        check_line(last_line(run.stdout),
                   {f"{w}.{m}": u for w in workloads for m, u in layer.items()},
                   problems, "--trace 1 line")
    except ValueError as e:
        problems.append(f"--trace 1 line: {e}")

    single = subprocess.run([args.run, "--quick", "--workload", workloads[0],
                             "--seed", "7", "--seconds", "1", "--trace", "0"]
                            + common, capture_output=True, text=True,
                            check=False)
    try:
        check_line(last_line(single.stdout), e2e, problems, "--trace 0 line")
    except ValueError as e:
        problems.append(f"--trace 0 line: {e}")

    for p in problems:
        print("FAIL:", p)
    print("e2e smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
