"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced twice and traced once. Each
run must exit 0, end with the result line, pass its output checks and print
exactly the metric names and units that BENCHMARK.json lists; the behaviour
fingerprint must repeat across the three runs. Last, the benchmark must
refuse to run, without a result line, in a directory holding only
BENCHMARK.json and the benchmark's files. Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def check_run(res, expected: dict, what: str) -> str:
    """The run's fingerprint line; raises on any mismatch."""
    if res.returncode != 0:
        raise AssertionError(f"{what}: exit {res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: {lines[-1]}\n{res.stderr}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{what}: metrics {got} != {expected}")
    return next(ln for ln in lines if ln.startswith("fingerprint "))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from spans import TRACE_POINTS
    unreported = ({name for name, *_ in TRACE_POINTS}
                  - {name.rpartition(".")[0] for name in units[1]})
    if unreported:
        raise AssertionError(f"spans without a per-layer metric: "
                             f"{sorted(unreported)}")
    for w in (w["name"] for w in spec["workloads"]):
        prints = [check_run(run(ROOT, w, trace), units[trace],
                            f"{w} trace={trace}")
                  for trace in (0, 0, 1)]
        if len(set(prints)) != 1:
            raise AssertionError(f"{w}: fingerprints differ: {prints}")
        print(f"ok {w} {prints[0]}")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        res = run(bare, spec["workloads"][0]["name"], 0)
        if res.returncode == 0 or '"metrics"' in res.stdout:
            raise AssertionError(f"bare directory: exit {res.returncode}, "
                                 f"stdout {res.stdout!r}")
        print(f"ok bare directory refused: {res.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
