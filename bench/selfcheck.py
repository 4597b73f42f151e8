"""Fast self-check of the benchmark, at tiny input sizes.

    python3 bench/selfcheck.py

For every workload it confirms that an untraced and a traced run print
exactly the metrics BENCHMARK.json names, each with its unit, and with no
failures; that corrupting one answer is caught by the checks and raises
failed_frac; and that in a directory holding only BENCHMARK.json and
bench/ the benchmark exits non-zero without printing a result. Exits 1 on
the first problem.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def expect(ok, message):
    if not ok:
        print(f"selfcheck FAILED: {message}")
        sys.exit(1)


def corrupt(workload, answer):
    """A wrong answer of the workload's kind."""
    if workload.name == "growth-h3":
        row = answer[0]
        return [dataclasses.replace(row, depth=row.depth + 1)] + answer[1:]
    if workload.name == "decide-ut4":
        if hasattr(answer, "z"):
            z = (answer.z[0] + 1,) + answer.z[1:]
            return dataclasses.replace(answer, z=z)
        return dataclasses.replace(answer, level=0)
    conj, detail = answer
    if conj:
        return False, {"order": 4, "part_orders": [], "product_bound": 1,
                       "moduli": [1, 1, 1]}
    return True, detail


def check_metrics(spec, name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run.run(name, run.DEFAULT_SEED, 0.5, trace, tiny=True)
        json.dumps(result)
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == expected, f"{name} --trace {trace} printed {sorted(got)} "
                                f"with units, expected {sorted(expected)}")
        expect(all(isinstance(v["value"], float) for v in result["metrics"].values()),
               f"{name} --trace {trace}: a metric value is not a number")
        expect(result["correct"] and result["failed"] == 0,
               f"{name} --trace {trace} failed: {lines}")


def check_corruption(name):
    workload = run.WORKLOADS[name](tiny=True)
    session = run.new_session(workload, run.DEFAULT_SEED, 0, [])
    batch = run.run_batch(session, 0)
    _, clean, _ = run.summarize_batch(workload, batch)
    expect(not clean, f"{name}: clean tiny batch failed its checks: {clean}")
    bad = copy.copy(batch)
    status, answer = batch.answers[0]
    bad.answers = [(status, corrupt(workload, answer))] + batch.answers[1:]
    _, _, failed = run.summarize_batch(workload, bad)
    expect(failed / len(bad.answers) > 0,
           f"{name}: a corrupted answer did not raise failed_frac")


def check_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory run exited {proc.returncode} with output {proc.stdout!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check_metrics(spec, w["name"])
        check_corruption(w["name"])
        print(f"selfcheck {w['name']}: metrics, units and corruption detection ok")
    check_bare_directory()
    print("selfcheck bare directory: exits non-zero without a result")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
