"""blurbench benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload blur_rasters --seed 1 --seconds 20 --trace 0

Steps, each in its own process so that only the measured one counts
towards peak RSS:

1. ``gen.py`` writes the workload's inputs from the seed.
2. With ``--trace 0``: fresh interpreters import ``blurbench.cli`` to
   time set-up (``setup_s``, the median of cold starts made before and
   after step 3), each timing the speed loop of ``speed.py`` for an
   import around it.
3. ``measure.py`` runs the workload's closed loop of CLI calls for about
   ``--seconds`` seconds (``--trace 0``), or a fixed number of rounds
   untraced and then traced (``--trace 1``).
4. Checks too heavy for the measured process run here: the score CSVs
   against the oracle of ``tests/oracles.py`` and the manifests against
   ``plan_dataset``.

Every timing is scaled to the reference host of ``speed.py``, which
cancels most of a shared host's drift in speed. The last line of standard
output is the JSON result; the lines before it describe the machine (with
``host_speed``, the measured process's median speed per kind of work,
relative to the reference host; raw seconds are scaled seconds divided
by it) and every metric with its sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from speed import loop_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("blur_rasters", "score_split", "plan_report")
#: Cold starts timed for setup_s, half before and half after the measured
#: process, so they sample the machine over the whole run.
SETUP_STARTS = 4
#: Per-process time limits, within the 180 s a run may take.
GEN_TIMEOUT = 60
MEASURE_TIMEOUT = 150
IMPORT_CLI = ("import time, speed; before = speed.loop_times('import'); "
              "start = time.perf_counter(); import blurbench.cli; "
              "seconds = time.perf_counter() - start; "
              "print(speed.scaled(seconds, 'import', before, "
              "speed.loop_times('import')))")


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def import_seconds(starts: int) -> list[float]:
    """Scaled import time of blurbench.cli in each of `starts` fresh
    interpreters."""
    times = []
    for _ in range(starts):
        done = subprocess.run([sys.executable, "-c", IMPORT_CLI], env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=30)
        times.append(float(done.stdout))
    return times


def calibration_seconds() -> float:
    """Median of 15 runs of the interpreter speed loop; a value well above
    its reference time marks a run taken while the cores were busy."""
    return statistics.median(loop_seconds("interpreter") for _ in range(15))


def machine_record() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "calibration_s": calibration_seconds()}


def deferred_problems(deferred: list[dict]) -> list[list[str]]:
    """Run the checks the measured process left; one problem list each."""
    from checks import check_plan, check_scores

    results = []
    for item in deferred:
        if item["check"] == "score":
            split = Path(item["split"])
            flags = dict(line.split(",") for line in
                         (split / "flags.csv").read_text().split()[1:])
            results.append(check_scores(
                item["scores"], "No-Aug",
                json.loads((split / "dataset.json").read_text()),
                json.loads((split / "predictions.json").read_text()), flags))
        else:
            results.append(check_plan(Path(item["keys"]), item["technique"],
                                      item["seed"], Path(item["manifest"])))
    return results


_LAYER_UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "rows": "count",
                "entries": "count", "useful_ratio": "ratio", "overhead_ratio": "ratio"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its kind: `<layer>.<kind>[.<level>]`."""
    return next(unit for kind, unit in _LAYER_UNITS.items()
                if name.endswith("." + kind) or f".{kind}." in name)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "blurbench" / "cli.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a blurbench checkout, missing {missing}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        machine = machine_record()
        inputs = work / "inputs"
        subprocess.run([sys.executable, str(HERE / "gen.py"), args.workload,
                        str(args.seed), str(inputs)], env=child_env(), check=True,
                       timeout=GEN_TIMEOUT)
        timed = args.trace == 0
        # the first start compiles bytecode, so it is not counted
        imports = import_seconds(SETUP_STARTS // 2 + 1)[1:] if timed else []
        result_path = work / "result.json"
        subprocess.run([sys.executable, str(HERE / "measure.py"), args.workload,
                        str(args.seed), str(args.seconds), str(args.trace),
                        str(inputs), str(result_path)],
                       env=child_env(), check=True, timeout=MEASURE_TIMEOUT)
        if timed:
            imports += import_seconds(SETUP_STARTS // 2)
        result = json.loads(result_path.read_text())
        failed, problems = result["failed"], result["problems"]
        for found in deferred_problems(result["deferred"]):
            failed += bool(found)
            problems += found
        machine["calibration_after_s"] = calibration_seconds()
        machine["host_speed"] = result["host_speed"]  # of the measured process
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine))
    metrics = {}
    if args.trace == 0:
        rows = dict(result["end_to_end"],
                    setup_s=(statistics.median(imports), "s", len(imports)))
        for name, (value, unit, count) in rows.items():
            print(f"metric {name} = {fmt(value)} {unit} (n={count})")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, value in result["per_layer"].items():
            unit = layer_unit(name)
            print(f"layer {name} = {fmt(value)} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"errors {failed}/{attempted} (error_rate {fmt(failed / attempted)})")
    for problem in problems[:20]:
        print(f"problem {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
