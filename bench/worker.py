"""One fresh interpreter of the benchmark.

Reads a JSON job on stdin, prints one JSON result line on stdout.  Jobs:

* ``setup``: time ``import poissonlift`` plus building every problem of the
  workload, then report the self-check flags of the built problems;
* ``pass``: call ``poissonlift.cli.main`` once per invocation (optionally
  traced) and report wall time, exit code, verdicts and report digest of each;
* ``micro``: polynomial operations per second on seeded operands.

Next to every measurement the worker times ``calibrate``, a fixed loop that
uses only the standard library, so that the caller can tell how fast the
machine ran at that moment.  poissonlift is imported from the job's ``src``
directory only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


CALIBRATION_STEPS = 4000


def calibrate() -> float:
    """Seconds taken by a fixed loop of rational arithmetic and dict updates,
    the same kind of work as poissonlift's polynomial core."""
    start = time.perf_counter()
    acc = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, i % 4 + 1) * Fraction(3, i % 5 + 1)
    return time.perf_counter() - start


def _import_poissonlift(src: str):
    sys.path.insert(0, src)
    import poissonlift

    if not Path(poissonlift.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"poissonlift imported from {poissonlift.__file__}, not from {src}")
    return poissonlift


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(job: dict) -> dict:
    texts = {p["name"]: p["text"] for p in job["problems"]}
    before = calibrate()
    start = time.perf_counter()
    pl = _import_poissonlift(job["src"])
    built = {}
    for name, text in texts.items():
        built[name] = pl.catalog(name) if text is None else pl.parse_problem(text, name=name)
    setup_s = time.perf_counter() - start
    cal_s = (before + calibrate()) / 2
    flags = {
        name: {
            "bialgebra_verified": None if problem.bialgebra is None else problem.bialgebra.verified,
            "jacobi_verified": None if problem.poisson is None else problem.poisson.jacobi_verified,
        }
        for name, problem in built.items()
    }
    return {"setup_s": setup_s, "cal_s": cal_s, "flags": flags}


def _verdicts(report_text: str) -> list[tuple[str, str]]:
    out = []
    check = None
    for line in report_text.splitlines():
        key, _, value = line.partition(": ")
        if key == "check":
            check = value
        elif key == "verdict":
            out.append((check, value))
    return out


def run_pass(job: dict) -> dict:
    _import_poissonlift(job["src"])
    from poissonlift.cli import main

    tracer = None
    if job["trace"]:
        from spans import CLI_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    cal_s = calibrate()
    for number, argv in enumerate(job["invocations"]):
        report = Path(argv[argv.index("--report") + 1])
        report.unlink(missing_ok=True)
        error = None
        exit_code = None
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    exit_code = main(list(argv))
                else:
                    tracer.invocation = number
                    exit_code = tracer.span(CLI_SPAN, main, list(argv))
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed invocation, recorded
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        after = calibrate()
        entry = {"argv": argv, "wall_s": wall_s, "cpu_s": cpu_s, "cal_s": (cal_s + after) / 2,
                 "exit": exit_code, "error": error, "sha256": None, "verdicts": []}
        cal_s = after
        if report.exists():
            data = report.read_bytes()
            entry["sha256"] = hashlib.sha256(data).hexdigest()
            entry["verdicts"] = _verdicts(data.decode("utf-8"))
            report.unlink()
        results.append(entry)
        if tracer is not None:
            tracer.collect_arguments()
    out = {"invocations": results, "peak_rss_mib": _peak_rss_mib()}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["distinct"] = {name: len(keys) for name, keys in tracer.distinct.items()}
    return out


def _random_poly(rng: random.Random, poly_cls, variables, terms: int, degree: int):
    out = {}
    for _ in range(rng.randint(1, terms)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(variables))] += 1
        out[tuple(exps)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
    return poly_cls(variables, out)


def _rate(op, slice_s: float) -> float:
    """Calls of ``op`` per second over one slice of ``slice_s`` seconds."""
    count = 0
    start = time.perf_counter()
    deadline = start + slice_s
    while True:
        for i in range(count, count + 64):
            op(i)
        count += 64
        now = time.perf_counter()
        if now >= deadline:
            return count / (now - start)


def micro(job: dict) -> dict:
    """Polynomial operations per second in ``rounds`` slices per operation,
    the operations taking turns so that each one samples the whole interval,
    with the calibration time around each round."""
    _import_poissonlift(job["src"])
    from poissonlift.poly import Polynomial

    nvars, terms, degree = job["poly_shape"]
    rng = random.Random(job["seed"])
    variables = tuple(f"v{i}" for i in range(nvars))
    pool = [_random_poly(rng, Polynomial, variables, terms, degree) for _ in range(64)]
    raw = [p.terms for p in pool]
    images = [{v: _random_poly(rng, Polynomial, variables, 2, 1) for v in variables} for _ in range(8)]
    points = [{v: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for v in variables} for _ in range(8)]
    ops = {
        "new": lambda i: Polynomial(variables, raw[i % 64]),
        "add": lambda i: pool[i % 64] + pool[(i * 7 + 1) % 64],
        "mul": lambda i: pool[i % 64] * pool[(i * 7 + 1) % 64],
        "derivative": lambda i: pool[i % 64].derivative(variables[i % nvars]),
        "compose": lambda i: pool[i % 64].compose(images[i % 8]),
        "substitute": lambda i: pool[i % 64].substitute(points[i % 8]),
    }
    rates = {name: [] for name in ops}
    cal = [calibrate()]
    for _ in range(job["rounds"]):
        for name, op in ops.items():
            rates[name].append(_rate(op, job["slice_s"]))
        cal.append(calibrate())
    return {"ops_per_s": rates, "cal_s": [(a + b) / 2 for a, b in zip(cal, cal[1:])]}


if __name__ == "__main__":
    job = json.loads(sys.stdin.read())
    os.chdir(job["cwd"])
    calibrate()  # the first run is slower: nothing is specialised yet
    result = {"setup": setup, "pass": run_pass, "micro": micro}[job["mode"]](job)
    sys.stdout.write(json.dumps(result) + "\n")
