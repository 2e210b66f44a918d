"""Benchmark of the esjs command-line tool, end to end and layer by layer.

Run from the root of an esjs checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload compare-binned --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, end to end
    python3 perfbench/run.py --self-test                     # the output check must bite

``--trace 0`` is a closed loop with one client: each CLI invocation runs in a
fresh process and the next starts when it exits.  It reports the medians of
``wall_s`` (spawn to exit), ``setup_s`` (spawn to exit of a fresh interpreter
that imports ``esjs.cli``, measured before each invocation) and
``peak_rss_mb`` (the child's peak resident memory), and prints every sample.  ``--trace 1`` calls ``esjs.cli.run`` in this process,
alternating plain and traced runs, and reports the per-layer metrics of the
traced runs (see ``spans.py``); their counts must repeat exactly.

Every input is generated from ``--seed`` and every report is checked (see
``oracle.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 when
any output check failed and 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stdout

import spans
from workloads import ALL_FAMILIES, DEFAULT_SEED, WORK_DIR, WORKLOADS, Workload

SRC_DIR = "src"
#: Fewest timed CLI invocations (or traced runs) per measurement.
MIN_RUNS = 3
MIN_TRACED = 2
#: A CLI invocation that runs longer than this is killed and counted as failed.
INVOCATION_TIMEOUT_S = 60.0


def _child_env() -> dict:
    path = os.path.abspath(SRC_DIR)
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return {**os.environ, "PYTHONPATH": path}


def _spawn(cmd: list[str], env: dict, stem: str) -> tuple[float, int, float]:
    """Run ``cmd`` to exit; return wall seconds, exit code and peak RSS in MB."""
    with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _tail_of(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-300:].strip()


class Checker:
    """Writes the inputs of one workload and seed and tallies the checks of its reports."""

    def __init__(self, workload: Workload, seed: int):
        import oracle  # imports esjs, so only after main() has put src on the path

        self._oracle = oracle
        self.workload, self.seed = workload, seed
        self.data = oracle.data_values(workload, seed, workload.write_input(seed))
        self._verdicts: dict[str, list[str]] = {}  # identical reports are checked once
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, exit_code, text: str, stderr: str = "") -> None:
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}: {stderr}"]
        else:
            if text not in self._verdicts:
                self._verdicts[text] = self._oracle.check_report(
                    text, self.workload, self.seed, self.data)
            problems = self._verdicts[text]
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def measure_processes(workload: Workload, seed: int, seconds: float):
    """Closed loop of fresh CLI processes; returns metrics and the checker."""
    checker = Checker(workload, seed)
    env = _child_env()
    stem = os.path.join(WORK_DIR, workload.name)
    setup_cmd = [sys.executable, "-c", "import esjs.cli"]
    cli_cmd = [sys.executable, "-m", "esjs.cli", *workload.argv(seed)]
    # warm-up: writes bytecode caches and fills the page cache, as any earlier use would
    _spawn(setup_cmd, env, stem + "-setup")

    walls, setups, rss = [], [], []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        began = time.perf_counter()
        setups.append(_spawn(setup_cmd, env, stem + "-setup")[0])
        wall, code, peak = _spawn(cli_cmd, env, stem)
        longest = max(longest, time.perf_counter() - began)
        walls.append(wall)
        rss.append(peak)
        with open(stem + ".out", encoding="utf-8", errors="replace") as fh:
            checker.record(code, fh.read(), _tail_of(stem + ".err"))
        if len(walls) >= MIN_RUNS and time.perf_counter() + longest > deadline:
            break
    for name, values in (("wall_s", walls), ("setup_s", setups)):
        print(f"{workload.name} {name} samples: {' '.join(f'{v:.3f}' for v in values)}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return metrics, checker


def _run_in_process(workload: Workload, seed: int, tracer=None):
    """One ``esjs.cli.run`` call; returns exit code (or error), wall seconds, stdout."""
    from esjs import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), (tracer.span("cli.run") if tracer else nullcontext()):
            code = cli.run(workload.argv(seed))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback escaping the CLI is a failed run
        code = f"raised {exc!r}"
    return code, time.perf_counter() - start, out.getvalue()


def measure_traced(workload: Workload, seed: int, seconds: float):
    """Alternate plain and traced in-process runs; returns layer metrics and the checker."""
    checker = Checker(workload, seed)
    deadline = time.perf_counter() + seconds
    # warm-up: lazy imports and first allocations happen once per process
    code, _, text = _run_in_process(workload, seed)
    checker.record(code, text)
    plain, traced, layers = [], [], []
    longest = 0.0
    while True:
        began = time.perf_counter()
        code, wall, text = _run_in_process(workload, seed)
        checker.record(code, text)
        plain.append(wall)

        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            code, wall, text = _run_in_process(workload, seed, tracer)
        finally:
            tracer.restore()
        checker.record(code, text)
        traced.append(wall)
        layers.append(spans.layer_metrics(tracer.spans, ALL_FAMILIES))
        longest = max(longest, time.perf_counter() - began)
        if len(traced) >= MIN_TRACED and time.perf_counter() + longest > deadline:
            break

    with open(os.path.join(WORK_DIR, f"{workload.name}-spans.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    for name in spans.EXACT_COUNTS:
        seen = sorted({m[name][0] for m in layers})
        if len(seen) > 1:
            checker.problems.append(f"{name} differs between traced runs: {seen}")
    metrics = {
        name: ((statistics.median_low if unit == "count" else statistics.median)(
            m[name][0] for m in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, checker


def _report(workload: Workload, seed: int, trace: int, metrics, checker: Checker) -> dict:
    mode = "traced in-process runs" if trace else "CLI runs, each a fresh process, one client"
    print(f"{workload.name} (seed {seed}, trace {trace}): {checker.attempted} {mode}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    frac = checker.failed / checker.attempted
    print(f"  {'failed_frac':<32} {frac:.6g} fraction ({checker.failed} of {checker.attempted} runs)")
    for problem in dict.fromkeys(checker.problems):
        print(f"  output check: {problem}", file=sys.stderr)
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def self_test() -> int:
    """The traced run emits the per-layer metrics BENCHMARK.json declares, and on
    every workload the real kernel passes the output check while one off by
    1e-9 relative fails it."""
    from esjs import gof

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    emitted = [*spans.layer_metrics([], ALL_FAMILIES), "trace.overhead_s"]
    caught = declared == emitted
    print(f"per-layer metrics {'match' if caught else 'DO NOT MATCH'} BENCHMARK.json")

    seed = DEFAULT_SEED + 1  # not the reference seed: the oracle alone must catch it
    for workload in WORKLOADS.values():
        checker = Checker(workload, seed)
        code, _, text = _run_in_process(workload, seed)
        checker.record(code, text)
        control_ok = not checker.problems

        patch = spans.Tracer()
        kernel = gof.esjs
        patch.replace(gof, "esjs", lambda p, q: kernel(p, q) * (1.0 + 1e-9))
        try:
            code, _, text = _run_in_process(workload, seed)
        finally:
            patch.restore()
        checker.problems.clear()
        checker.record(code, text)
        mutant_caught = bool(checker.problems)
        print(f"{workload.name}: real kernel {'passes' if control_ok else 'FAILS'}, "
              f"kernel x (1 + 1e-9) {'fails' if mutant_caught else 'PASSES'} the check")
        caught = caught and control_ok and mutant_caught
    return 0 if caught else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the declared metrics, and that a kernel off by 1e-9 "
                        "relative fails the output check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "esjs", "cli.py")):
        print(f"perfbench: {SRC_DIR}/esjs/cli.py not found; run from the root of an esjs checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC_DIR))
    os.makedirs(WORK_DIR, exist_ok=True)

    if args.self_test:
        return self_test()
    measure = measure_traced if args.trace else measure_processes
    if args.workload != "all":
        workload = WORKLOADS[args.workload]
        result = _report(workload, args.seed, args.trace,
                         *measure(workload, args.seed, args.seconds))
    else:
        results = {
            name: _report(w, args.seed, args.trace, *measure(w, args.seed, args.seconds))
            for name, w in WORKLOADS.items()
        }
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items() for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
