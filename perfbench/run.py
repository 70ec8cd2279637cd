"""torusfp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gibbs-dense-2d --seed 1 --seconds 40 --trace 0

Run it from a checkout of the repository; it imports the package from
``src/``. It first times a few fresh interpreters importing ``torusfp.cli``
(set-up), then starts one fresh worker process (``worker.py``) that calls
``torusfp.cli.main`` in a closed loop for ``--seconds`` seconds: one client,
ops back to back, each op gated for correctness. ``--trace 1`` alternates
traced replays (``replay.py``) with plain ops and reports per-layer metrics
instead of end-to-end ones.

Metric names and units come from ``BENCHMARK.json``; workloads, references
and tolerances from ``perfbench/workloads.json``. A result file with the
environment and every sample goes to ``.perfbench-results/``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 when every op passed, 1 when an op
failed or the run could not finish, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one run must end within 180 s; leave room for set-up and reporting
TIME_LIMIT_S = 170.0
PROBE = "import time, torusfp.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(threads: int) -> dict:
    """The package from this checkout, BLAS threads set through TORUSFP_THREADS."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["TORUSFP_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def setup_probe(env: dict) -> float:
    """Seconds from spawning an interpreter until ``import torusfp.cli`` returns."""
    t0 = now()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0


def tail_percentile(values: list):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def end_to_end(report: dict, setups: list) -> dict:
    ops = report["ops"]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(op["wall_s"] for op in ops),
        "op_cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report: dict) -> dict:
    traced = [rec for rec in report["traced"] if rec["values"]]
    if not traced:
        raise RuntimeError("no traced op finished")
    metrics = {name: statistics.median(rec["values"][name] for rec in traced) for name in traced[0]["values"]}
    metrics["trace.overhead_s"] = statistics.median(rec["wall_s"] for rec in traced) - statistics.median(
        op["wall_s"] for op in report["ops"]
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op sizes, at least one measured op (self-test)")
    parser.add_argument("--perturb-reference", action="store_true", help="shift the reference gap so every op must fail (self-test)")
    args = parser.parse_args(argv)
    start = now()

    if not (ROOT / "src" / "torusfp" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {ROOT / 'src' / 'torusfp'}; run from a repository checkout\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(config['workloads'])}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    threads = min(config["blas_threads"], len(os.sched_getaffinity(0)))
    env = child_env(threads)
    work = ROOT / ".perfbench-work" / f"{args.workload}.seed{args.seed}.trace{args.trace}.{os.getpid()}"
    try:
        # the first interpreter compiles byte code on a fresh checkout: a
        # one-time cost that later invocations do not pay, so it is not timed
        setup_probe(env)
        setups = [setup_probe(env) for _ in range(config["setup_probes"])]
        work.mkdir(parents=True)
        request = {
            "root": str(ROOT),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "perturb_reference": args.perturb_reference,
            "work_dir": str(work / "ops"),
            "report_path": str(work / "report.json"),
            "budget_s": TIME_LIMIT_S - (now() - start),
        }
        (work / "request.json").write_text(json.dumps(request))
        spawned = now()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "request.json")],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=TIME_LIMIT_S + 5 - (now() - start),
            check=True,
        )
        report = json.loads((work / "report.json").read_text())
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n{exc.stderr[-4000:]}")
        return 1
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(report["imported_monotonic"] - spawned)

    try:
        computed = per_layer(report) if args.trace else end_to_end(report, setups)
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    except (RuntimeError, KeyError) as exc:
        sys.stderr.write(f"perfbench: cannot compute the metrics: {exc!r}\n")
        return 1

    records = [report["warmup"]] + report["ops"] + report["traced"]
    failed = sum(1 for rec in records if rec["failures"])
    walls = [op["wall_s"] for op in report["ops"]]
    tail = tail_percentile(walls)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "op_count": len(walls),
        "traced_op_count": len(report["traced"]),
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "warmup_wall_s": report["warmup"]["wall_s"],
        "tail": {f"op_p{tail[0]}_s": tail[1]} if tail else None,
        "setup_samples_s": setups,
        "environment": dict(report["environment"], blas_threads=threads, seed=args.seed, op_count=len(walls)),
        "argv": report["argv"],
        "metrics": metrics,
        "ops": report["ops"],
        "traced": report["traced"],
        "warmup": report["warmup"],
    }
    results = ROOT / ".perfbench-results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(json.dumps(summary, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  argv {' '.join(report['argv'])}")
    print(f"ops {len(walls)} measured + 1 warm-up ({summary['warmup_wall_s']:.4f} s)" + (f" + {len(report['traced'])} traced" if args.trace else ""))
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    for name, metric in metrics.items():
        n = samples.get(name, len(report["traced"]) if args.trace else len(walls))
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']:<6} (n={n})")
    if tail:
        print(f"  {'op_p%d_s' % tail[0]:<26} {tail[1]:>14.6g} {'s':<6} (n={len(walls)})")
    print(f"  {'fail_ratio':<26} {summary['fail_ratio']:>14.6g} {'':<6} ({failed} of {len(records)} ops failed)")
    for failure in [f for rec in records for f in rec["failures"]][:5]:
        print(f"  FAILED: {failure.strip()}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
