"""Self-test of the benchmark at tiny scale (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload yields every metric BENCHMARK.json names, with
its unit, traced and untraced; that a truncated model file or a command
exiting 2 counts as a failed operation without crashing the benchmark;
and that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys

import run

TINY = {
    "transfer-pipeline": {"source": 240, "target": 160, "hidden": 24, "epochs": 1, "copies": 1},
    "bulk-forecast": {"rows": 400, "train": 120, "hidden": 100},
}
WORK = run.ROOT / ".perfbench_work" / "selftest"


def tiny(name: str) -> run.Workload:
    return run.build_workload(name, 3, TINY[name])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}")


def metric_units(report: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in report["result"]["metrics"].items()}


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    for name in run.SIZES:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            report = run.benchmark(tiny(name), 3, 0, trace, work=WORK / name)
            result = report["result"]
            check(result["correct"] and result["failed"] == 0 and not report["errors"],
                  f"{name} trace={int(trace)} is correct: {report['errors']}")
            check(metric_units(report) == declared(kind),
                  f"{name} trace={int(trace)} reports every {kind} metric with its unit")
        check(report["provenance"]["hook_rewrites"] in ([], ["tfl.wavelet.AugmentConfig.filter"]),
              f"{name} reports the hook's rewrites")

    def truncate(pass_index, pass_dir):
        if pass_index == 1:
            path = pass_dir / "models" / "adapted.tfl"
            path.write_bytes(path.read_bytes()[:100])

    report = run.benchmark(tiny("transfer-pipeline"), 3, 0, True, fault=truncate,
                           work=WORK / "truncated")
    result = report["result"]
    check(not result["correct"] and result["failed"] == 1,
          "a truncated model in a later pass is one failed operation")

    def truncate_reference(pass_index, pass_dir):
        if pass_index == 0:
            truncate(1, pass_dir)

    report = run.benchmark(tiny("transfer-pipeline"), 3, 0, False, fault=truncate_reference,
                           work=WORK / "truncated-reference")
    result = report["result"]
    check(not result["correct"] and result["failed"] == 1
          and any("truncated" in e for e in report["errors"]),
          "a truncated model in the reference pass fails the reload check")

    wl = tiny("bulk-forecast")
    wl.steps[0].argv[wl.steps[0].argv.index("--data") + 1] = "missing.csv"
    report = run.benchmark(wl, 3, 0, False, work=WORK / "exit2")
    result = report["result"]
    check(not result["correct"] and result["attempted"] == 1 and result["failed"] == 1
          and any("exit code 2" in e for e in report["errors"]),
          "a command exiting 2 is a failed operation")

    bare = WORK / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                           "bulk-forecast", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
