"""Benchmark worker: one fresh interpreter runs one workload in a closed loop.

One client sends ops back to back; an op is one ``torusfp.cli.main`` call,
including the artifacts it writes. Each op writes into a fresh directory and
passes through the correctness gate before the next one starts. With tracing
on, the loop alternates a traced replay (``replay.py``) with a plain CLI op
and checks that both produce the same outputs.

Started by ``run.py`` as ``python3 perfbench/worker.py REQUEST.json``; the
report goes to the path the request names.
"""

import time

import torusfp.cli  # first, so that IMPORTED marks the end of set-up

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import torusfp  # noqa: E402
from gate import HERE, Gate, mismatches  # noqa: E402
from replay import STAGES, cpu_s, replay  # noqa: E402


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "TORUSFP_THREADS": os.environ.get("TORUSFP_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "torusfp": torusfp.__version__,
        "torusfp_source": str(Path(torusfp.__file__).resolve().parent.relative_to(root)),
    }


class OpRunner:
    """Runs ops of one workload, each in a fresh directory, and gates them."""

    def __init__(self, argv: list, seeded: bool, gate: Gate, work: Path):
        self.argv = argv
        self.seeded = seeded
        self.gate = gate
        self.work = work
        self.count = 0

    def _op_argv(self, seed: int) -> list:
        return self.argv + ["--seed", str(seed)] if self.seeded else list(self.argv)

    def _fresh_dir(self) -> Path:
        out = self.work / f"op-{self.count:05d}"
        self.count += 1
        if out.exists():
            raise RuntimeError(f"{out} already exists")
        return out

    def _finish(self, record: dict, out: Path, seed: int) -> tuple[dict, dict]:
        fingerprint = {}
        if not record["failures"]:
            record["failures"], fingerprint = self.gate.check(out, seed if self.seeded else None)
        shutil.rmtree(out, ignore_errors=True)
        return record, fingerprint

    def cli_op(self, seed: int) -> tuple[dict, dict]:
        out = self._fresh_dir()
        failures = []
        cpu0 = cpu_s()
        t0 = time.perf_counter()
        try:
            rc = torusfp.cli.main(self._op_argv(seed) + ["--out", str(out)])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises counts as failed; keep going
            rc = None
            failures.append("raised: " + traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        cpu = cpu_s() - cpu0
        if rc != 0 and not failures:
            failures.append(f"exit code {rc}")
        return self._finish({"wall_s": wall, "cpu_s": cpu, "failures": failures}, out, seed)

    def traced_op(self, seed: int) -> tuple[dict, dict]:
        out = self._fresh_dir()
        failures = []
        values = {}
        wall = math.nan
        try:
            wall, values = replay(self._op_argv(seed), out)
        except Exception:  # a replay that raises counts as failed
            failures.append("replay raised: " + traceback.format_exc(limit=3))
        else:
            spans = sum(values[name] for name in STAGES)
            if values["cli.other_s"] < 0 or abs(spans + values["cli.other_s"] - wall) > 1e-9:
                failures.append("stage spans overlap or do not add up to the op time")
        return self._finish({"wall_s": wall, "values": values, "failures": failures}, out, seed)


def parity_failures(cli_fp: dict, replay_fp: dict, tolerances: dict) -> list:
    """The replay must reproduce the CLI op's TV, gap and sample bytes."""
    found = mismatches(replay_fp, cli_fp, tolerances, "CLI op")
    if replay_fp.get("samples_sha256") != cli_fp.get("samples_sha256"):
        found.append("replay samples.csv differs from the CLI op")
    return ["replay " + item for item in found]


def run(req: dict) -> dict:
    started = time.perf_counter()
    root = Path(req["root"])
    config = json.loads((HERE / "workloads.json").read_text())
    spec = config["workloads"][req["workload"]]
    if req["smoke"]:
        spec = dict(spec, **spec["smoke"])
    default_seed = config["default_seed"]
    gate = Gate(spec, config["tolerances"], default_seed, perturb=req["perturb_reference"])
    runner = OpRunner(spec["argv"], spec["seeded"], gate, Path(req["work_dir"]))
    min_ops = 1 if req["smoke"] else config["min_ops"]

    # the warm-up op runs at the default seed, so every run checks the
    # reference samples.csv digest; it is gated and counted as attempted
    warmup, _ = runner.cli_op(default_seed)
    ops, traced = [], []
    loop_start = time.perf_counter()
    last = warmup["wall_s"]
    while True:
        now = time.perf_counter()
        if ops and now - started + last * (2 if req["trace"] else 1) > req["budget_s"]:
            break
        if len(ops) >= min_ops and now - loop_start >= req["seconds"]:
            break
        if req["trace"]:
            rec, replay_fp = runner.traced_op(req["seed"])
            traced.append(rec)
        op, cli_fp = runner.cli_op(req["seed"])
        ops.append(op)
        last = op["wall_s"]
        if req["trace"] and cli_fp and replay_fp:
            rec["failures"] += parity_failures(cli_fp, replay_fp, config["tolerances"])
    return {
        "imported_monotonic": IMPORTED,
        "environment": environment(root),
        "argv": spec["argv"],
        "warmup": warmup,
        "ops": ops,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    request = json.loads(Path(sys.argv[1]).read_text())
    report = run(request)
    Path(request["report_path"]).write_text(json.dumps(report))
