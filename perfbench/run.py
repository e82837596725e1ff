"""curveflow benchmark: time a seeded workload from outside the library.

    python3 perfbench/run.py --workload csf-shrink --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the root of a checkout: it imports curveflow from ``src/`` of
the checkout it sits in, and writes only into ``.perfbench_work/`` there,
which it removes again. ``--trace 0`` reports the end-to-end metrics named
in BENCHMARK.json, ``--trace 1`` the per-layer metrics. Each is printed by
name with its unit, then a detail line, then one JSON object as the last
line. ``--workload all`` runs every workload in turn and prefixes the
metric names with the workload.

Every workload runs in a fresh worker process (worker.py) with the BLAS
thread count fixed, so one process generates the load and its peak RSS is
the workload's own. Set-up time is the median over several fresh
processes, because imports cannot be repeated inside one.
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

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("csf-shrink", "filament", "soliton-gallery")
SETUP_SAMPLES = 7
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 140
SETUP_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_block() -> dict:
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "caches": _cache_sizes(), "blas_threads": BLAS_THREADS}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PERFBENCH_SRC"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return its metrics as {name: (value, unit)} plus detail."""
    work_dir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    load_before = os.getloadavg()
    common = ["--workload", name, "--seed", str(seed), "--work-dir", str(work_dir)]
    try:
        result = _worker([*common, "--seconds", repr(seconds), "--trace", str(trace)],
                         WORKER_TIMEOUT_S)
        detail = {"passes": result["passes"], "digest": result["digest"],
                  "counts": result["counts"], "failures": result["failures"],
                  "versions": result["versions"]}
        if trace:
            metrics = {k: tuple(v) for k, v in result["layer_metrics"].items()}
            detail.update(microbench=result["microbench"], spans=result["spans"],
                          plain_run_s=_spread(result["plain_run_s"]),
                          traced_run_s=_spread(result["traced_run_s"]))
        else:
            setup = [result["setup_s"]]
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(_worker([*common, "--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
            run_s, run_rel = result["run_s_samples"], result["run_rel_samples"]
            metrics = {"run_rel": (statistics.median(run_rel), "ref"),
                       "run_s": (statistics.median(run_s), "s"),
                       "setup_s": (statistics.median(setup), "s"),
                       "peak_rss_mb": (result["peak_rss_mb"], "MB")}
            detail.update(run_rel=_spread(run_rel), run_s=_spread(run_s),
                          setup_s=_spread(setup),
                          reference_s=_spread(result["reference_s"]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    attempted, failed = result["attempted"], result["failed"]
    detail["machine"] = dict(machine_block(), loadavg_before=load_before,
                             loadavg_after=os.getloadavg())
    detail["fail_ratio"] = failed / attempted
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail}


def _declared(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curveflow" / "__init__.py").is_file():
        print(f"error: no curveflow sources under {SRC}", file=sys.stderr)
        return 2
    declared = _declared(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, (value, unit) in res["metrics"].items():
                print(f"{name:16s} {metric:44s} {value:14.6g} {unit}")
            for metric in declared:
                if metric["name"] not in res["metrics"]:
                    raise BenchError(f"metric {metric['name']} was not measured")
                value, unit = res["metrics"][metric["name"]]
                if unit != metric["unit"]:
                    raise BenchError(f"metric {metric['name']} has unit {unit}")
                final["metrics"][prefix + metric["name"]] = {"value": value, "unit": unit}
            print(f"{name:16s} {'fail_ratio':44s} {res['detail']['fail_ratio']:14.6g} "
                  f"ratio ({res['failed']} of {res['attempted']} checks failed)")
            print("detail " + json.dumps({"workload": name, "seed": args.seed,
                                          "trace": args.trace, **res["detail"],
                                          "all_metrics": res["metrics"]}))
            final["attempted"] += res["attempted"]
            final["failed"] += res["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final["correct"] = final["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
