"""Benchmark for klsmooth: one workload per run, untraced or traced.

    python3 klbench/run.py --workload figures --seed 1 --seconds 35 --trace 0
    python3 klbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; klsmooth is imported from its ``src/``.
Set-up (a fresh interpreter importing klsmooth, writing the inputs, a toy
warm-up) is repeated, each time after a fresh interpreter that imports only
numpy; ``setup_s`` is the set-up median divided by that start-up median, in
seconds at its nominal time (reference.py). Then whole batches of the
workload's experiments run back to back until ``--seconds`` would be
exceeded, and every experiment's output is checked. After every experiment
a fixed reference kernel (reference.py) runs in a short block; ``wall_s`` is
the sum over experiments of each one's median time, divided by the median
of the blocks' mean kernel time and given in seconds at the kernel's
nominal speed, so the host's drifting speed cancels out. The raw times are
printed beside both. ``--trace 0`` prints the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` splits the time between untraced and
span-traced batches, adds one tracemalloc batch, prints the per-layer
metrics and writes the spans to ``.bench_work/``. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
# Kernel time after each experiment, as a share of the experiment's time.
KERNEL_SHARE = 0.1
_SC_LEVEL3_CACHE_SIZE = 194   # glibc sysconf name; answered from cpuid, no file read


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def prepare() -> None:
    """Pin BLAS threads, then import klsmooth from this checkout's src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    src = ROOT / "src"
    if not (src / "klsmooth" / "__init__.py").is_file():
        raise SystemExit(f"klbench: no klsmooth sources under {src}")
    sys.path.insert(0, str(src))
    import klsmooth
    if Path(klsmooth.__file__).resolve().parent != (src / "klsmooth").resolve():
        raise SystemExit(f"klbench: imported klsmooth from {klsmooth.__file__}, not {src}")


def fresh_import(module: str) -> float:
    """Seconds for a new interpreter to import ``module`` with this checkout's src/ on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
    return time.perf_counter() - t0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "llc_bytes": int(libc.sysconf(_SC_LEVEL3_CACHE_SIZE)),
            "workload_seed": seed, "git_commit": _git_commit()}


class Tally:
    """Experiments attempted and failed, and the closed-form mu errors seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mu_errors: list[float] = []

    def run(self, exp, context) -> float:
        """Run one experiment inside ``context``; returns its wall time."""
        from workloads import CheckFailed
        for path in exp.outputs:
            path.unlink(missing_ok=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with context:
                out = exp.run()
        except Exception:
            elapsed = time.perf_counter() - t0
            self._fail(exp, traceback.format_exc(limit=3))
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            err = exp.check(out)
        except (CheckFailed, KeyError, TypeError, OSError) as exc:
            self._fail(exp, f"{type(exc).__name__}: {exc}")
            return elapsed
        if err is not None:
            self.mu_errors.append(err)
        return elapsed

    def _fail(self, exp, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"klbench: experiment {exp.name} failed: {message}", file=sys.stderr)


def run_batches(experiments, seconds: float, tally: Tally, ref, tracer_factory=None):
    """Whole batches until the next one would overrun ``seconds`` (at least one).

    After each experiment the reference kernel ``ref`` runs until it has
    taken ``KERNEL_SHARE`` of the experiment's time (at least once). Returns
    per-batch lists of experiment wall times, the mean kernel time of each
    such block, and, when traced, one tracer per batch.
    """
    from contextlib import nullcontext
    times, kernel, tracers, durations = [], [], [], []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        tracer = tracer_factory() if tracer_factory else None
        batch = []
        with tracer.installed() if tracer else nullcontext():
            for i, exp in enumerate(experiments):
                ctx = tracer.experiment(f"{len(times)}:{i}:{exp.name}") if tracer else nullcontext()
                batch.append(tally.run(exp, ctx))
                block = [ref.time()]
                while sum(block) < KERNEL_SHARE * batch[-1]:
                    block.append(ref.time())
                kernel.append(statistics.fmean(block))
        times.append(batch)
        tracers.append(tracer)
        durations.append(time.perf_counter() - batch_start)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return times, kernel, tracers


def batch_wall(times) -> float:
    """Typical batch time: the sum over experiments of each one's median."""
    return sum(statistics.median(column) for column in zip(*times))


def normalized_wall(times, kernel, ref) -> float:
    """``batch_wall`` at the reference kernel's nominal speed."""
    return batch_wall(times) * ref.nominal_s / statistics.median(kernel)


def layer_metrics(tracer) -> dict:
    """Per-layer figures of one traced batch."""
    spans = tracer.spans
    cov = tracer.covered_s
    runs = [s for s in spans if s.name == "landweber.run"]
    iters = sum(s.count for s in runs)
    loop_s = sum(s.self_s for s in runs)
    out = {
        "problems.build_s": cov("problems.build"),
        "problems.noise_s": cov("problems.noise"),
        "operators.norm_s": cov("operators.norm"),
        "operators.svd_s": cov("operators.svd"),
        "operators.mtx_read_s": cov("operators.mtx_read"),
        "landweber.run_s": cov("landweber.run"),
        "landweber.us_per_iter": 1e6 * loop_s / iters if iters else 0.0,
        "landweber.iters": iters,
        "landweber.computed_gb_per_s":
            sum(s.computed_bytes for s in runs) / loop_s / 1e9 if loop_s else 0.0,
        "landweber.csv_s": cov("landweber.csv"),
        "estimator.track_s": cov("estimator.track"),
        "estimator.window_s": cov("estimator.window"),
        "estimator.takeover_s": cov("estimator.takeover"),
        "estimator.saturation_s": cov("estimator.saturation"),
        "estimator.prefixes": sum(s.count for s in spans if s.name == "estimator.track"),
        "validation.rate_s": cov("validation.rate"),
        "validation.solves": sum(1 for s in spans if s.name == "validation.solve"),
        "validation.summability_s": cov("validation.summability"),
        "validation.bounds_s": cov("validation.bounds"),
        "cli.parse_s": cov("cli.parse"),
        "cli.pipeline_s": cov("cli.pipeline"),
        "cli.write_s": cov("cli.write"),
    }
    from spans import LAYERS
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.layer == layer)
    return out


def memory_metrics(tracer) -> dict:
    from spans import LAYERS
    out = {f"{layer}.peak_mb": max((s.peak_mb for s in tracer.spans if s.layer == layer),
                                   default=0.0) for layer in LAYERS}
    out["operators.svd_peak_mb"] = max((s.peak_mb for s in tracer.spans
                                        if s.name == "operators.svd"), default=0.0)
    return out


def working_sets(tracer, llc_bytes: int) -> list[str]:
    """Landweber array sizes against the last-level cache, one line per shape."""
    lines = []
    for kind, m, n in sorted({s.shape for s in tracer.spans if s.shape}):
        matrix = 0 if kind == "diagonal" else 8 * m * n
        vectors = 8 * 6 * max(m, n)
        lines.append(f"landweber working set {kind} {m}x{n}: matrix {matrix / 2**20:.2f} MiB, "
                     f"vectors {vectors / 2**20:.3f} MiB, LLC {llc_bytes / 2**20:.0f} MiB "
                     f"({'fits' if matrix + vectors <= llc_bytes else 'exceeds'}); "
                     f"landweber.computed_gb_per_s is computed from these sizes, not measured")
    return lines


def _median_dict(dicts: list[dict]) -> dict:
    # median_low returns a sample, so counts stay whole numbers
    return {k: statistics.median_low(d[k] for d in dicts) for k in dicts[0]}


def bench(workload: str, seed: int, seconds: float, trace: bool,
          tiny: bool = False, expect=None) -> dict:
    """Run one workload; returns the result object printed as the last line.

    ``expect`` may edit the workload's expected values before it runs (the
    self-test uses it to plant a wrong one).
    """
    import workloads
    from reference import SPAWN_NOMINAL_S, Reference
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    ref = Reference(workloads.WORKLOADS[workload].reference)
    setup_times, spawn_times = [], []
    try:
        for _ in range(SETUP_REPEATS):
            spawn_times.append(fresh_import("numpy"))
            t0 = time.perf_counter()
            fresh_import("klsmooth.cli")
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = workloads.WORKLOADS[workload](work, seed, tiny)
            if expect is not None:
                expect(wl)
            wl.setup()
            wl.warm_up()
            setup_times.append(time.perf_counter() - t0)
        experiments = wl.experiments()
        env = environment(seed)
        tally = Tally()
        if not trace:
            times, kernel, _ = run_batches(experiments, seconds, tally, ref)
            values = {
                "wall_s": normalized_wall(times, kernel, ref),
                "setup_s": (statistics.median(setup_times) * SPAWN_NOMINAL_S
                            / statistics.median(spawn_times)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                # 1.0 only when no closed-form experiment produced an estimate
                "mu_abs_err": max(tally.mu_errors, default=1.0),
            }
            names = SPEC["end_to_end"]
            extra = [f"fail_frac {tally.failed / tally.attempted:.6g} "
                     f"({tally.failed} of {tally.attempted} experiments, "
                     f"{len(times)} batches)",
                     f"raw wall_s {batch_wall(times):.6g} s; raw setup_s "
                     f"{statistics.median(setup_times):.6g} s, numpy-only interpreter start "
                     f"{statistics.median(spawn_times):.6g} s (nominal {SPAWN_NOMINAL_S} s); "
                     f"{ref.kind} kernel median {statistics.median(kernel):.6g} s "
                     f"(nominal {ref.nominal_s} s) over {len(kernel)} blocks"]
            span_problems = []
        else:
            from spans import Tracer
            untraced, untraced_kernel, _ = run_batches(experiments, seconds / 2, tally, ref)
            traced, traced_kernel, tracers = run_batches(experiments, seconds / 2, tally, ref,
                                                         Tracer)
            _, _, (mem_tracer,) = run_batches(experiments, 0, tally, ref,
                                              lambda: Tracer(memory=True))
            values = _median_dict([layer_metrics(t) for t in tracers])
            values.update(memory_metrics(mem_tracer))
            values["trace.overhead_s"] = (normalized_wall(traced, traced_kernel, ref)
                                          - normalized_wall(untraced, untraced_kernel, ref))
            span_problems = [p for t in (*tracers, mem_tracer) for p in t.check_accounting()]
            for p in span_problems[:5]:
                print(f"klbench: span accounting: {p}", file=sys.stderr)
            names = SPEC["per_layer"]
            extra = [f"raw untraced wall_s {batch_wall(untraced):.6g} s over {len(untraced)} "
                     f"batches, traced {batch_wall(traced):.6g} s over {len(traced)}",
                     *working_sets(tracers[0], env["llc_bytes"])]
            dump = {"environment": env, "workload": workload,
                    "batches": [t.dump() for t in tracers],
                    "memory_batch": mem_tracer.dump()}
            (WORK / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(dump) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"{workload:10s} {name:28s} {m['value']:.6g} {m['unit']}")
    for line in extra:
        print(f"{workload:10s} {line}")
    print(json.dumps({"environment": env}))
    return {"correct": tally.failed == 0 and not span_problems,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in SPEC["workloads"]):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"klbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    return merged


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        prepare()
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
