"""poissonlift benchmark: time from a CLI call to a correct verdict.

    python3 bench/run.py --workload catalog|gl3|negative-controls|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; poissonlift is imported from
``src/`` there, nothing is installed.  Each pass of a workload runs in a
fresh interpreter (bench/worker.py) and calls ``poissonlift.cli.main`` once
per invocation, one after another: a closed loop with one client.  Passes
repeat until ``--seconds`` have elapsed; the last pass is always finished.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics.  ``--workload all`` runs
every workload both ways.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; full results with
provenance, per-invocation report digests and the spans go to
bench/results/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

from spans import self_times  # noqa: E402  (bench/ is the script directory)
from workloads import Invocation, Workload, build_workloads  # noqa: E402

SETUP_SAMPLES = 21
# Seconds the worker's calibration loop takes on the reference machine (an
# idle 2-vCPU x86_64 VM, Python 3.11).  Every time is reported in reference
# seconds: wall time * CAL_REF_S / calibration time measured next to it.
CAL_REF_S = 0.018
MICRO_SLICE_S = 0.05
MICRO_ROUNDS = 7
WORKER_TIMEOUT_S = 150

CALL_COUNTS = ("problemfile.parse", "bialgebra.checks", "chart.jacobi", "tangent.complete_lift",
               "tangent.prolongation", "reduction.pgmap_residuals", "oracle.sample", "oracle.points")
DISTINCT_COUNTS = ("chart.jacobi", "tangent.complete_lift", "reduction.pgmap_residuals", "oracle.points")
SELF_TIMES = ("problemfile.parse", "bialgebra.checks", "chart.schouten", "tangent.complete_lift",
              "tangent.lift_identity", "tangent.prolongation", "reduction.pgmap_residuals",
              "reduction.generator", "reduction.closure", "oracle.sample", "oracle.points", "oracle.fd")
MODULE_SELF_TIMES = ("chart", "poisson", "tangent", "reduction", "oracle", "report", "cli")
POLY_OPS = ("new", "add", "mul", "derivative", "compose", "substitute")


class BenchmarkError(Exception):
    pass


def _worker(job: dict) -> dict:
    job = dict(job, src=str(SRC), cwd=str(ROOT))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"{job['mode']} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ref_s(wall_s: float, cal_s: float) -> float:
    """Wall time scaled to the reference machine's speed at that moment."""
    return wall_s * CAL_REF_S / cal_s


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- correctness -----------------------------------------------------------------


def _self_check(workload: Workload, flags: dict) -> None:
    """The generated problems must build as the mathematics says they do."""
    for problem in workload.problems:
        got = flags[problem.name]
        for key in ("bialgebra_verified", "jacobi_verified"):
            expected = getattr(problem, key)
            if expected is not None and got[key] != expected:
                raise BenchmarkError(f"{problem.name}: {key} is {got[key]}, expected {expected}")


def _judge(invocation: Invocation, result: dict) -> str | None:
    """Why ``result`` misses the known answer, or None when it matches."""
    if result["error"] is not None:
        return result["error"]
    if result["exit"] != invocation.exit_code:
        return f"exit code {result['exit']}, expected {invocation.exit_code}"
    for check, verdict in result["verdicts"]:
        expected = invocation.verdicts.get(check, invocation.others)
        if verdict != "informative" and expected is not None and verdict != expected:
            return f"{check}: {verdict}, expected {expected}"
    missing = sorted(set(invocation.verdicts) - {check for check, _ in result["verdicts"]})
    if missing:
        return f"missing checks {missing}"
    return None


# -- runs --------------------------------------------------------------------------


def _argvs(workload: Workload, seed: int, workdir: Path) -> list[list[str]]:
    files = {p.name for p in workload.problems if p.text is not None}
    out = []
    for number, inv in enumerate(workload.invocations):
        problem = inv.problem
        if problem in files:
            problem = str((workdir / problem).relative_to(ROOT))
        report = str((workdir / f"report-{number}.txt").relative_to(ROOT))
        out.append([inv.command, problem, "--seed", str(seed), "--report", report])
    return out


def _passes(argvs: list[list[str]], seconds: float, trace: bool, before_pass=None) -> list[dict]:
    """Fresh-interpreter passes until ``seconds`` have elapsed; with ``trace``
    every second pass is traced and at least one of each kind runs."""
    passes = []
    start = time.monotonic()
    while True:
        if before_pass is not None:
            before_pass()
        traced = trace and len(passes) % 2 == 1
        result = _worker({"mode": "pass", "invocations": argvs, "trace": traced})
        result["traced"] = traced
        passes.append(result)
        if time.monotonic() - start >= seconds and (not trace or len(passes) >= 2):
            return passes


def _outcomes(workload: Workload, passes: list[dict]) -> dict:
    """Judge every invocation of every pass against its known answer."""
    attempted = failed = wrong = 0
    failures = []
    digests: dict[str, set] = {}
    for index, result in enumerate(passes):
        for inv, got in zip(workload.invocations, result["invocations"]):
            attempted += 1
            digests.setdefault(f"{inv.command} {inv.problem}", set()).add(got["sha256"])
            reason = _judge(inv, got)
            if reason is not None:
                failed += 1
                wrong += got["error"] is None
                failures.append({"pass": index, "argv": got["argv"], "reason": reason})
    unstable = sorted(key for key, seen in digests.items() if len(seen) > 1)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0 and not unstable,
        "failures": failures,
        "unstable_reports": unstable,
        "report_sha256": {key: sorted(d for d in seen if d) for key, seen in digests.items()},
    }


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics from untraced passes.  A set-up sample is taken
    before each pass, so the samples spread over the run, and more at the
    end up to SETUP_SAMPLES."""
    problems = [{"name": p.name, "text": p.text} for p in workload.problems]
    setup = []

    def sample_setup():
        result = _worker({"mode": "setup", "problems": problems})
        _self_check(workload, result["flags"])
        setup.append(_ref_s(result["setup_s"], result["cal_s"]))

    passes = _passes(_argvs(workload, seed, workdir), seconds, trace=False, before_pass=sample_setup)
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    outcomes = _outcomes(workload, passes)
    per_pass = [[_ref_s(inv["wall_s"], inv["cal_s"]) for inv in p["invocations"]] for p in passes]
    wall = [inv["wall_s"] for p in passes for inv in p["invocations"]]
    checks = [sum(verdict != "informative" for inv in p["invocations"] for _, verdict in inv["verdicts"])
              for p in passes]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "run_s.p50": _metric(statistics.median(statistics.median(t) for t in per_pass), "s"),
        "run_s.p90": _metric(statistics.median(_p90(t) for t in per_pass), "s"),
        "checks_per_s": _metric(statistics.median(c / sum(t) for c, t in zip(checks, per_pass)), "1/s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        "ok_ratio": _metric((outcomes["attempted"] - outcomes["failed"]) / outcomes["attempted"], "ratio"),
    }
    samples = {"setup_s": len(setup), "run_s.p50": len(wall), "run_s.p90": len(wall),
               "checks_per_s": sum(checks), "peak_rss_mb": len(passes), "ok_ratio": outcomes["attempted"]}
    unscaled = {"wall run_s.p50": statistics.median(wall), "wall run_s.p90": _p90(wall)}
    return {"metrics": metrics, "samples": samples, "unscaled": unscaled, "outcomes": outcomes,
            "setup_samples": setup, "passes": [_pass_record(p) for p in passes]}


def measure_layers(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer metrics from traced passes, interleaved with plain ones."""
    micro = _worker({"mode": "micro", "seed": seed, "poly_shape": workload.poly_shape,
                     "slice_s": MICRO_SLICE_S, "rounds": MICRO_ROUNDS})
    passes = _passes(_argvs(workload, seed, workdir), seconds, trace=True)
    outcomes = _outcomes(workload, passes)
    traced = [p for p in passes if p["traced"]]
    per_pass = [_layer_metrics(self_times(p["spans"], [CAL_REF_S / i["cal_s"] for i in p["invocations"]]),
                               p["distinct"]) for p in traced]
    metrics = {name: _metric(statistics.median(m[name][0] for m in per_pass), per_pass[0][name][1])
               for name in per_pass[0]}
    for op in POLY_OPS:
        rates = [rate * cal_s / CAL_REF_S for rate, cal_s in zip(micro["ops_per_s"][op], micro["cal_s"])]
        metrics[f"poly.{op}.ops_per_s"] = _metric(statistics.median(rates), "1/s")
    plain = [_ref_s(inv["wall_s"], inv["cal_s"]) for p in passes if not p["traced"] for inv in p["invocations"]]
    with_spans = [_ref_s(inv["wall_s"], inv["cal_s"]) for p in traced for inv in p["invocations"]]
    metrics["trace.overhead_ratio"] = _metric(statistics.median(with_spans) / statistics.median(plain),
                                              "ratio")
    return {"metrics": metrics, "outcomes": outcomes, "traced_passes": len(traced),
            "plain_passes": len(passes) - len(traced), "passes": [_pass_record(p) for p in passes],
            "spans": [p["spans"] for p in traced]}


def _layer_metrics(times: dict, distinct: dict) -> dict:
    """Per-layer values of one traced pass, as {name: (value, unit)}."""
    out = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (times.get(name, (0, 0.0))[0], "count")
    for name in DISTINCT_COUNTS:
        calls, keys = times.get(name, (0, 0.0))[0], distinct.get(name, 0)
        out[f"{name}.distinct"] = (keys, "count")
        out[f"{name}.recompute_ratio"] = (calls / keys if keys else 0.0, "ratio")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (times.get(name, (0, 0.0))[1], "s")
    for module in MODULE_SELF_TIMES:
        total = sum(self_s for name, (_, self_s) in times.items()
                    if name == module or name.startswith(module + "."))
        out[f"{module}.self_s"] = (total, "s")
    return out


def _pass_record(result: dict) -> dict:
    return {"traced": result["traced"], "peak_rss_mib": result["peak_rss_mib"],
            "invocations": result["invocations"]}


# -- output ------------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "python": sys.version,
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC / "poissonlift"),
        "argv": sys.argv,
        "load": "closed loop, one client, one process per pass, no threads",
    }


def _print_table(title: str, metrics: dict, samples: dict | None = None) -> None:
    print(title)
    for name, entry in metrics.items():
        count = f"  (n={samples[name]})" if samples else ""
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<6}{count}")


def _write_spans(path: Path, traced_spans: list) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for number, spans in enumerate(traced_spans):
            for index, (name, start, end, parent, invocation) in enumerate(spans):
                handle.write(json.dumps({"pass": number, "span": index, "name": name, "start": start,
                                         "end": end, "parent": parent, "invocation": invocation}) + "\n")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if trace:
        result = measure_layers(workload, seed, seconds, workdir)
        _write_spans(RESULTS / f"spans-{workload.name}-seed{seed}.jsonl", result.pop("spans"))
        _print_table(f"{workload.name}: per-layer metrics ({result['traced_passes']} traced, "
                     f"{result['plain_passes']} plain passes; values per traced pass)", result["metrics"])
    else:
        result = measure(workload, seed, seconds, workdir)
        _print_table(f"{workload.name}: end-to-end metrics (times in reference seconds)", result["metrics"],
                     result["samples"])
        for name, value in result["unscaled"].items():
            print(f"  {name:<40} {value:>14.6g} s")
    failures: dict[str, int] = {}
    for failure in result["outcomes"]["failures"]:
        key = f"{' '.join(failure['argv'][:2])}: {failure['reason']}"
        failures[key] = failures.get(key, 0) + 1
    for key, count in failures.items():
        print(f"  failed {count}x: {key}")
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance(), **result}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    workloads = build_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "poissonlift" / "__init__.py").is_file():
        print(f"error: no poissonlift sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, trace) for w in workloads.values() for trace in (False, True)]
    else:
        plan = [(workloads[args.workload], bool(args.trace))]
    RESULTS.mkdir(exist_ok=True)
    workdir = BENCH / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        for workload in {w.name: w for w, _ in plan}.values():
            for problem in workload.problems:
                if problem.text is not None:
                    (workdir / problem.name).write_text(problem.text, encoding="utf-8")
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload, trace in plan:
            result = run_workload(workload, args.seed, args.seconds, trace, workdir)
            outcomes = result["outcomes"]
            summary["correct"] = summary["correct"] and outcomes["correct"]
            summary["attempted"] += outcomes["attempted"]
            summary["failed"] += outcomes["failed"]
            prefix = "" if len(plan) == 1 else f"{workload.name}."
            summary["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
