"""Benchmark of the ``interfere`` command line, end to end and layer by layer.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload estimate_n3000 --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py`` and ``BENCHMARK.json``) is a fixed
sequence of CLI calls on inputs generated from ``--seed``. With ``--trace 0``
the calls run as a user runs them: one ``python3 -m interfere.cli`` subprocess
at a time, a closed loop with one client, repeating the sequence while
``--seconds`` allow (at least once). Reported are the median step wall times,
the median set-up time of a fresh interpreter importing ``interfere.cli``, and
the highest peak RSS of any call (``ru_maxrss`` from ``os.wait4``).

With ``--trace 1`` each call runs twice in turn: untraced as above, then
in-process through ``interfere.cli.main`` with the layer functions wrapped
(``spans.py``). The per-layer metrics come from the traced calls only;
``trace.overhead_s`` is the traced ``main()`` wall time minus the part of the
untraced call's wall time that follows set-up (its wall time minus
``setup_s``), summed over a pass. Spans are written to
``.perfbench_work/<workload>/spans.json`` at the end of the run.

Every call's output is checked (``workloads.check``); a call that exits with
an unexpected code, times out, or fails a check counts as failed. The last
line of stdout is the JSON result; the lines before it are a readable report
and an environment record.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

SETUP_REPEATS = 11
CALL_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # stop starting calls after this, to exit within 180 s
KIB_PER_MIB = 1024.0
RSS_METHOD = "max ru_maxrss (KiB) of os.wait4 over the workload's CLI subprocesses, spawned by spawn.py"
SPAWN = Path(__file__).with_name("spawn.py")


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's ``src`` first on the path.

    INTERFERE_THREADS is removed so the package runs with its default of one
    worker; BLAS settings are left as the user has them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.pop("INTERFERE_THREADS", None)
    return env


def run_child(argv, env, cwd, out_path: Path, timeout: float):
    """Run one command to completion through ``spawn.py``.

    Returns (exit code, wall seconds, peak RSS in KiB, stdout).
    """
    report = subprocess.run(
        [sys.executable, "-S", str(SPAWN), repr(timeout), str(out_path), str(out_path.with_suffix(".err")), *argv],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout + 30.0, check=True,
    )
    result = json.loads(report.stdout)
    return result["code"], result["wall_s"], result["maxrss_kib"], out_path.read_text()


def measure_setup(root: Path, env: dict, work: Path) -> list:
    """Wall times of fresh interpreters importing ``interfere.cli`` (after one warm-up)."""
    probe = "import interfere.cli, sys; sys.stdout.write(interfere.cli.__file__)"
    code, _, _, where = run_child([sys.executable, "-c", probe], env, root, work / "setup.out", CALL_TIMEOUT_S)
    expected = (root / "src" / "interfere" / "cli.py").resolve()
    if code != 0 or Path(where).resolve() != expected:
        raise SystemExit(f"perfbench: cannot import interfere.cli from {expected.parent} (exit {code})")
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = run_child(
            [sys.executable, "-c", "import interfere.cli"], env, root, work / "setup.out", CALL_TIMEOUT_S
        )
        if code != 0:
            raise SystemExit(f"perfbench: importing interfere.cli failed (exit {code})")
        times.append(wall)
    return times


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "peak_rss_method": RSS_METHOD,
    }


class Runner:
    """Runs one workload's calls, counting attempts and failures."""

    def __init__(self, root: Path, inputs: workloads.Inputs, work: Path, started: float):
        self.root = root
        self.inputs = inputs
        self.work = work
        self.started = started
        self.env = child_env(root)
        self.refs = workloads.load_references(inputs.workload, inputs.spec)
        self.attempted = 0
        self.failed = 0
        self.peak_kib = 0

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def record(self, call, code, stdout, how) -> None:
        self.attempted += 1
        problems = workloads.check(call, code, stdout, self.inputs, self.refs)
        if problems:
            self.failed += 1
            print(f"perfbench: {how} call {call.label} failed: " + "; ".join(problems), file=sys.stderr)

    def subprocess_call(self, call, index):
        """One untraced CLI call; returns its wall seconds."""
        argv = [sys.executable, "-m", "interfere.cli", *call.argv]
        timeout = min(CALL_TIMEOUT_S, self.time_left())
        code, wall, kib, stdout = run_child(argv, self.env, self.root, self.work / f"call{index}.out", timeout)
        self.peak_kib = max(self.peak_kib, kib)
        self.record(call, code, stdout, "untraced")
        return wall

    def passes(self, seconds: float, one_pass):
        """Repeat ``one_pass()`` while the next pass should fit in ``seconds`` (at least once)."""
        results = []
        start = time.perf_counter()
        last = 0.0
        while not results or time.perf_counter() - start + last <= seconds:
            pass_start = time.perf_counter()
            result = one_pass()
            if result is None:
                break
            results.append(result)
            last = time.perf_counter() - pass_start
        return results

    def untraced_pass(self):
        """Step wall times of one pass, or None if the run ran out of time."""
        steps = {1: 0.0, 2: 0.0}
        for index, call in enumerate(self.inputs.calls):
            if self.time_left() < 1.0:
                return None
            steps[call.step] += self.subprocess_call(call, index)
        return steps


def traced_pass_factory(runner: Runner, tracer: spans.Tracer, main, setup_s: float, identity: list):
    call_ids = itertools.count()

    def traced_pass():
        ids = []
        overhead = 0.0
        for index, call in enumerate(runner.inputs.calls):
            if runner.time_left() < 1.0:
                return None
            wall = runner.subprocess_call(call, index)
            if runner.time_left() < wall + 5.0:
                return None
            call_id = next(call_ids)
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = tracer.call(call_id, main, call.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a traceback is a failed call, not a crashed benchmark
                    traceback.print_exc(file=sys.__stderr__)
                    code = None
            runner.record(call, code, buffer.getvalue(), "traced")
            main_wall = tracer.root_wall(call_id)
            self_sum = sum(seconds for seconds, _ in tracer.layer_totals([call_id]).values())
            identity.append((call.label, main_wall, self_sum))
            overhead += main_wall - (wall - setup_s)
            ids.append(call_id)
        metrics = spans.layer_metrics(tracer, ids)
        metrics["trace.overhead_s"] = overhead
        return metrics

    return traced_pass


def median_by_key(results: list) -> dict:
    """Median of each metric over passes; counts stay whole numbers."""
    medians = {}
    for key in results[0]:
        values = [r[key] for r in results]
        integral = all(isinstance(v, int) for v in values)
        medians[key] = statistics.median_low(values) if integral else statistics.median(values)
    return medians


def report_untraced(workload, spec, passes, setup_s, peak_mib) -> dict:
    """End-to-end metrics; the report also names each step by what it runs."""
    step1 = statistics.median(p[1] for p in passes)
    step2 = statistics.median(p[2] for p in passes)
    metrics = {"setup_s": setup_s, "step1_s": step1, "step2_s": step2, "peak_rss_mb": peak_mib}
    name1, name2 = workloads.STEP_NAMES[workload]
    lines = [
        ("setup_s", setup_s, "s"),
        (f"{name1} (step1_s)", step1, "s"),
        (f"{name2} (step2_s)", step2, "s"),
    ]
    if workload == "simulate":
        small, large = workloads.simulate_design_counts(spec)
        lines += [("sim49_designs_per_s", small / step1, "1/s"), ("sim500_designs_per_s", large / step2, "1/s")]
    lines.append(("peak_rss_mb", peak_mib, "MB"))
    for name, value, unit in lines:
        print(f"  {name:<32} {value:14.6f} {unit}")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, spec=None, work=None) -> dict:
    """Run one workload and return its result object.

    ``spec`` and ``work`` override the workload's sizes and its scratch
    directory (default ``.perfbench_work/<workload>`` in the checkout).
    """
    started = time.perf_counter()
    bench = benchmark_spec(root)
    work = root / ".perfbench_work" / workload if work is None else work
    work.mkdir(parents=True, exist_ok=True)
    setup_times = measure_setup(root, child_env(root), work)
    setup_s = statistics.median(setup_times)
    inputs = workloads.generate(workload, seed, work, spec)
    runner = Runner(root, inputs, work, started)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}, {len(inputs.calls)} calls per pass")

    if not trace:
        passes = runner.passes(seconds, runner.untraced_pass)
        if not passes:
            raise SystemExit("perfbench: no complete pass within the time limit")
        print(f"  {len(passes)} passes, step1/step2 s: "
              + ", ".join(f"{p[1]:.3f}/{p[2]:.3f}" for p in passes)
              + "; setup s: " + ", ".join(f"{t:.3f}" for t in setup_times))
        metrics = report_untraced(workload, inputs.spec, passes, setup_s, runner.peak_kib / KIB_PER_MIB)
        declared = [m["name"] for m in bench["end_to_end"]]
        identity_ok = True
    else:
        sys.path.insert(0, str(root / "src"))
        import interfere.cli

        tracer = spans.Tracer()
        tracer.install()
        identity = []
        try:
            passes = runner.passes(seconds, traced_pass_factory(runner, tracer, interfere.cli.main, setup_s, identity))
        finally:
            tracer.uninstall()
        if not passes:
            raise SystemExit("perfbench: no complete traced pass within the time limit")
        metrics = median_by_key(passes)
        worst = max(abs(wall - total) for _, wall, total in identity)
        identity_ok = worst <= 1e-6
        print(f"  {len(passes)} traced passes; per call, layer self times sum to main() wall time "
              f"within {worst:.2e} s")
        for label, wall, _ in identity:
            print(f"  traced {label:<32} main() {wall:10.4f} s")
        tracer.dump(work / "spans.json")
        declared = [m["name"] for m in bench["per_layer"]]
        for metric in bench["per_layer"]:
            value = metrics.get(metric["name"])
            if isinstance(value, int):
                print(f"  {metric['name']:<32} {value:14d} {metric['unit']}")
            elif value is not None:
                print(f"  {metric['name']:<32} {value:14.6f} {metric['unit']}")
            else:
                print(f"perfbench: warning: per-layer metric {metric['name']} is absent", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  {'failed_ops_frac':<32} {frac:14.6f} ratio ({runner.failed} of {runner.attempted} calls)")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and identity_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in declared if name in metrics},
    }
    (work / "result.json").write_text(json.dumps(dict(result, env=env, seed=seed, trace=int(trace)), indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS) + ["all"],
                        help="one workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "interfere" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"perfbench: {root} is not an interfere checkout (no src/interfere/cli.py)", file=sys.stderr)
        return 2
    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace), root)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct or len(names) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
