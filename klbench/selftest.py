"""Self-test of the benchmark at toy sizes.

    python3 klbench/selftest.py

For every workload: an untraced and a traced run must emit exactly the
metrics BENCHMARK.json names, with their units, and fail no experiment; two
traced runs with different seeds must give the same counts; and a run with
one expected value deliberately wrong must count a failure (fail_frac > 0).
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run

COUNTS = ("landweber.iters", "estimator.prefixes", "validation.solves")


def _plant_wrong_expectation(wl) -> None:
    if wl.name == "figures":
        wl.verdicts["diag2"] = "noise-truncated"
    elif wl.name == "saturation":
        wl.slope_band = (1.5, 2.0)
    else:
        wl.misfit["deriv2"] = True


def _quiet_bench(*args, **kwargs) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.bench(*args, **kwargs)


def check_workload(name: str) -> list[str]:
    errors = []
    traced = []
    for trace, seed in ((False, 0), (True, 0), (True, 1)):
        key = "per_layer" if trace else "end_to_end"
        res = _quiet_bench(name, seed, 0, trace, tiny=True)
        want = {m["name"]: m["unit"] for m in run.SPEC[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            errors.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} "
                          f"missing or unexpected, or units differ")
        if not res["correct"] or res["failed"]:
            errors.append(f"{name} trace={int(trace)}: {res['failed']} of "
                          f"{res['attempted']} experiments failed")
        if trace:
            traced.append({c: res["metrics"][c]["value"] for c in COUNTS})
    if traced[0] != traced[1]:
        errors.append(f"{name}: counts differ between runs: {traced}")
    res = _quiet_bench(name, 0, 0, False, tiny=True, expect=_plant_wrong_expectation)
    if res["failed"] / res["attempted"] <= 0 or res["correct"]:
        errors.append(f"{name}: a wrong expected value left fail_frac at 0")
    return errors


def main() -> int:
    run.prepare()
    errors = []
    for w in run.SPEC["workloads"]:
        found = check_workload(w["name"])
        print(f"{w['name']}: {'ok' if not found else 'FAILED'}")
        errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
