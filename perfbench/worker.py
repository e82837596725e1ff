"""One benchmark process: timed set-up, then timed or traced passes.

run.py starts this script in a fresh interpreter for every run, so imports
count towards set-up and peak RSS belongs to this process alone. It prints
one JSON object as its last line of standard output.

Modes:

* ``--setup-only``: import and generate the inputs, report the set-up time.
* ``--trace 0``: one warm-up pass, then timed passes until ``--seconds``
  have passed, each between two timings of a fixed reference kernel.
  Checks and digests of each pass run after its clock stops.
* ``--trace 1``: untraced and traced passes in turn until ``--seconds`` have
  passed, the layer metrics of the traced ones, and the isolated per-layer
  call timings.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy, scipy and curveflow)


class Run:
    """Checks and digests of every pass in this process."""

    def __init__(self, workload, inputs, work_dir: Path):
        self.workload = workload
        self.inputs = inputs
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[dict] = []
        self.digest = None
        self.counts = None
        self.passes = 0

    def record(self, name: str, ok: bool, value=None, bound=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"pass": self.passes, "check": name,
                                  "value": value, "bound": bound})

    def one_pass(self, tracer=None) -> float:
        """Run one pass; return its wall time. Checks run after the clock."""
        out_dir = self.work_dir / f"pass{self.passes:04d}"
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            outcome = self.workload.run_once(self.inputs, out_dir)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        for c in self.workload.check(self.inputs, outcome):
            self.record(c.name, c.ok, c.value, c.bound)
        if self.digest is None:
            self.digest, self.counts = outcome.digest, outcome.counts
        else:
            # every pass of one seed must give byte-identical outputs,
            # traced or not
            self.record("digest_repeats", outcome.digest == self.digest)
            self.record("counts_repeat", outcome.counts == self.counts)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.passes += 1
        return elapsed

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:20], "digest": self.digest,
                "counts": self.counts, "passes": self.passes}


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip()}


def _reference_s() -> float:
    """Median time of a fixed kernel that does not use curveflow.

    Like the workloads, it mixes small-array numpy calls and interpreter
    work with large broadcast temporaries. The host's speed drifts by tens
    of percent within minutes; pass times divided by this kernel's time
    drift far less.
    """
    import numpy as np

    a, b = np.random.default_rng(0).standard_normal((2, 800, 2))

    def kernel():
        th = np.linspace(0.0, 2.0 * np.pi, 256)
        x = np.column_stack([np.cos(th), np.sin(th)])
        for _ in range(300):
            float(np.linalg.norm(np.diff(x, axis=0), axis=1).sum())
            x = x + 1e-3 * (np.roll(x, 1, axis=0) - 2.0 * x + np.roll(x, -1, axis=0))
        for _ in range(2):
            np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min(axis=1)

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_passes(run: Run, seconds: float) -> dict:
    run.one_pass()                                    # warm-up, not a sample
    # read before the reference kernel first runs: its temporaries would
    # otherwise set the peak of the smaller workloads
    peak_rss_mb = _peak_rss_mb()
    samples, relative = [], []
    reference = [_reference_s()]
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(run.one_pass())
        reference.append(_reference_s())
        # the kernel is timed right before and right after each pass
        relative.append(samples[-1] / (0.5 * (reference[-2] + reference[-1])))
    return {"run_s_samples": samples, "run_rel_samples": relative,
            "reference_s": reference, "peak_rss_mb": peak_rss_mb}


def traced_passes(run: Run, seed: int, seconds: float) -> dict:
    import microbench
    import tracing

    run.one_pass()                                    # warm-up, not a sample
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    # untraced and traced passes alternate, so drift of the host's speed
    # reaches both sides of trace.overhead_s alike
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(run.one_pass())
        tracer = tracing.Tracer()
        traced.append(run.one_pass(tracer))
        summary = tracer.summary()
        layers.append(tracing.layer_metrics(summary, run.counts))
    counted = [{k: v for k, (v, unit) in m.items() if unit not in ("s", "us")}
               for m in layers]
    run.record("layer_counts_repeat", all(c == counted[0] for c in counted))
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    micro = microbench.run(seed, run.work_dir)
    for name, stats in micro.items():
        metrics[name] = (stats["median_us"], "us")
    # calls and seconds of every traced function in the last traced pass
    spans = {name: {"calls": summary["calls"][name], "self_s": summary["self_s"][name],
                    "total_s": summary["total_s"][name]} for name in summary["calls"]}
    return {"layer_metrics": metrics, "microbench": micro, "spans": spans,
            "plain_run_s": plain, "traced_run_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path(os.environ.get("PERFBENCH_SRC", "")).resolve()
    imported = Path(workloads.cli.__file__).resolve()
    if not imported.is_relative_to(src):
        raise SystemExit(f"curveflow was imported from {imported}, not from {src}")

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, "full", work_dir)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        run = Run(workload, inputs, work_dir)
        if args.trace:
            result.update(traced_passes(run, args.seed, args.seconds))
        else:
            result.update(timed_passes(run, args.seconds))
        result.update(run.result())
        result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
