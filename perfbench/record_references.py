"""Record the correctness gate's references into workloads.json.

    python3 perfbench/record_references.py

Runs every workload's op, and its smoke variant, once at the default seed
through ``torusfp.cli.main`` with the benchmark's BLAS thread count, and
stores the TV, gap, M and samples.csv digest (gibbs) or the gap and the
eigenvalue file (spectrum). Run it only when a change is meant to alter
those outputs, and say so in that change.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = HERE / "workloads.json"
config = json.loads(CONFIG.read_text())
os.environ["TORUSFP_THREADS"] = str(config["blas_threads"])
sys.path.insert(0, str(ROOT / "src"))

import torusfp.cli  # noqa: E402
from gate import sha256_file  # noqa: E402


def record(argv: list, seeded: bool, ref: dict, out: Path) -> None:
    seed = ["--seed", str(config["default_seed"])] if seeded else []
    if torusfp.cli.main(argv + seed + ["--out", str(out), "--assert"]) != 0:
        raise SystemExit(f"op failed: {' '.join(argv)}")
    resolved = json.loads((out / "run-manifest.json").read_text())["resolved"]
    ref["gap"] = resolved["gap"]
    if seeded:
        ref["tv"] = json.loads((out / "tv.json").read_text())["tv"]
        ref["M"] = resolved["M"]
        ref["samples_sha256"] = sha256_file(out / "samples.csv")
    else:
        shutil.copyfile(out / "spectrum.csv", HERE / ref["eigenvalues"])


def main() -> None:
    scratch = ROOT / ".perfbench-work" / "references"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for name, spec in config["workloads"].items():
            record(spec["argv"], spec["seeded"], spec["reference"], scratch / name)
            record(spec["smoke"]["argv"], spec["seeded"], spec["smoke"]["reference"], scratch / f"{name}-smoke")
            print(name, spec["reference"], spec["smoke"]["reference"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    CONFIG.write_text(json.dumps(config, indent=2) + "\n")


if __name__ == "__main__":
    main()
