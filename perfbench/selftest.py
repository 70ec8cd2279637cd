"""Self-test of the benchmark; the package's test suite does not collect it.

    python3 perfbench/selftest.py

For every workload in ``workloads.json``, including those kept only for
runs by hand, it runs one tiny op (``run.py --smoke``), untraced and
traced, and checks that every op passed the gate and that every metric
BENCHMARK.json names is printed with its unit. It then checks that a
perturbed reference makes the gate count every op as failed, and that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files. Takes about a
minute; exit code 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, *flags: str, root: Path = ROOT) -> tuple:
    """Run the benchmark; return (exit code, stdout, final JSON result or None)."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0", *flags]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout, result


def check_metrics(label: str, stdout: str, result: dict, declared: list) -> list:
    problems = []
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {expected}")
    for name, unit in expected.items():
        value = result["metrics"].get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} has value {value!r}")
        if not any(line.split()[:1] == [name] and unit in line.split() for line in stdout.splitlines()):
            problems.append(f"{label}: no printed line names {name} with unit {unit}")
    if "fail_ratio" not in stdout:
        problems.append(f"{label}: fail_ratio not printed")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    problems = []
    for workload in config["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            code, stdout, result = run(workload, "--smoke", "--trace", trace)
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            problems += check_metrics(label, stdout, result, bench[key])
        code, _, result = run(workload, "--smoke", "--perturb-reference")
        if code == 0 or result is None or result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{workload}: a perturbed reference did not fail every op (exit {code}, result {result})")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, _, result = run(bench["workloads"][0]["name"], root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append(f"without the package source the run exited {code} with result {result}")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
