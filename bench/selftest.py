"""Self-test of the benchmark's result-line contract.

    python3 bench/selftest.py

Runs every workload for one second, untraced and traced, then the command
exactly as BENCHMARK.json writes it (no workload named), and parses the last
stdout line of each: one JSON object with exactly the keys correct,
attempted, failed and metrics, carrying every end-to-end (untraced) or
per-layer (traced) metric with its unit. Last, it runs the benchmark from a
directory that holds only BENCHMARK.json and the files under its paths, and
expects a non-zero exit and no result line. Exits 0 when every case passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args, cwd) -> tuple[int, str]:
    done = subprocess.run(list(SPEC["command"]) + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def problems(code: int, line: str, wanted: list) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:80]!r}"]
    out = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result) if isinstance(result, dict) else type(result)}"]
    if result["correct"] is not True:
        out.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        out.append(f"attempted {result['attempted']!r}, failed {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        out.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, float) or not math.isfinite(value):
            out.append(f"{m['name']}: {got}")
        elif "bound" in m and value <= 0.0:
            out.append(f"{m['name']} is {value}, an end-to-end metric must not be 0")
    return out


def main() -> int:
    failures = 0

    def report(case, found):
        nonlocal failures
        failures += bool(found)
        print(f"{'FAIL' if found else 'ok  '} {case}" + "".join(f"\n     {p}" for p in found))

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            report(f"{workload} --trace {trace}", problems(*run(args, ROOT), wanted))
    report("no workload named", problems(*run([], ROOT), SPEC["end_to_end"]))

    bare = BENCH / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("work", "__pycache__"))
    code, line = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                      "--trace", "0"], bare)
    report("directory without the program", [] if code != 0 and not line
           else [f"exit code {code}, last line {line[:80]!r}"])
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
