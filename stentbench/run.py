"""stentsim benchmark: runs one workload through ``stentsim.cli.run`` and
prints its metrics as one JSON object on the last line of stdout.

    python3 stentbench/run.py --workload release --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from the
checkout's ``src``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones; ``--quick`` runs the
workload once at reduced size with the same checks.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def single_threaded_env() -> dict:
    """Pin BLAS/OpenMP to one thread, here and in child interpreters.
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return dict(os.environ)


def import_program():
    """Import stentsim from this checkout's src, never from elsewhere."""
    if not (SRC / "stentsim" / "cli.py").is_file():
        raise SystemExit(f"stentbench: no stentsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stentsim

    if Path(stentsim.__file__).resolve().parent != SRC / "stentsim":
        raise SystemExit(f"stentbench: imported stentsim from {stentsim.__file__}")


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("release", "study", "crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    env = single_threaded_env()
    import_program()
    units = metric_units()["per_layer" if args.trace else "end_to_end"]

    import measure

    work = HERE / "out" / args.workload
    result = measure.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.quick, work, SRC, env)
    missing = set(units) ^ set(result["metrics"])
    if missing:
        raise SystemExit(f"stentbench: metrics out of step with BENCHMARK.json: "
                         f"{sorted(missing)}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    line = json.dumps(result)
    (work / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
