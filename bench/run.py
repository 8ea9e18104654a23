"""Outside-in benchmark of the ``cqgkhint`` CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload dj-kp --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Every command runs as ``python -m cqgkhint.cli ...`` with ``src`` on
``PYTHONPATH``, in a fresh process, one after another: a closed loop with one
client.  Every output is checked (``oracle.py``); a wrong exit code, a failed
check or a timeout counts as a failed command.

``--trace 0`` launches the set-up probe several times, then runs the
workload's command list in passes for about ``--seconds`` (a further pass
starts only if it should end within 1.25 times ``--seconds``), and reports
the end-to-end metrics: per command the median over the passes, summed over
the list.  ``--trace 1`` reports the per-layer metrics instead:
an ``-X importtime`` import split, one untraced pass, and two passes through
``traced_cli.py``; counts that must be deterministic are compared between the
two traced passes and the run fails if they differ.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, including the share of CPU time the host stole during the run.  A breakdown for people goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata, util
from pathlib import Path

from layers import LAYER_METRICS, command_profile, layer_metrics
from oracle import check, load_reference
from workloads import SETUP, WORKLOADS, commands

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_LAUNCHES = 5
IMPORT_LAUNCHES = 3
COMMAND_TIMEOUT_S = 100.0
RUN_DEADLINE_S = 165.0  # commands still pending then fail at once, so a run ends within 180 s

# Counts that depend only on the inputs: two traced passes must agree on them.
EXACT_COUNTS = (
    "chebyshev.steps",
    "khintchine.level_term_sum.terms",
    "khintchine.kp_constant.levels",
    "khintchine.tail_bound.calls",
    "cli._emit.bytes",
)


@dataclass
class Launch:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    failure: str | None = None


class Runner:
    """Launches child processes one at a time, checks them, counts failures."""

    def __init__(self, workdir: Path, reference: dict):
        self.workdir = workdir
        self.reference = reference
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def launch(self, argv: list[str]) -> Launch:
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Launch(-1, 0.0, 0.0, 0.0, b"", b"", "not started: the run's time is used up")
        timed_out = threading.Event()
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = Launch(
                proc.returncode,
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024,
                out.read(),
                err.read(),
            )
        if timed_out.is_set():
            result.failure = f"timed out after {timeout:.0f} s"
        return result

    def run(self, cmd, spans: Path | None = None) -> Launch:
        """One CLI command, checked; through the span recorder when ``spans`` is set."""
        if spans is None:
            argv = [sys.executable, "-m", "cqgkhint.cli", *cmd.args]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *cmd.args]
        result = self.launch(argv)
        if result.failure is None:
            result.failure = check(cmd, result.code, result.stdout, self.reference)
        self.attempted += 1
        if result.failure:
            self.failed += 1
            stderr_tail = result.stderr.decode(errors="replace").strip()[-300:]
            print(f"FAILED {cmd.text}: {result.failure} {stderr_tail}", file=sys.stderr)
        return result

    def run_pass(self, cmds) -> list[Launch]:
        return [self.run(cmd) for cmd in cmds]


def environment() -> dict:
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": util.find_spec("gmpy2") is not None,
        "flint": util.find_spec("flint") is not None,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def cpu_jiffies() -> list[int] | None:
    """System-wide CPU time counters; the eighth is time stolen by the host."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(field) for field in fh.readline().split()[1:9]]
    except OSError:
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, cmds, seconds: float) -> tuple[dict, int]:
    """End-to-end metrics of one workload (tracing off); also returns the pass count."""
    runner.launch([sys.executable, "-m", "cqgkhint.cli", *SETUP.args])  # compile bytecode once
    setup = [runner.run(SETUP).wall for _ in range(SETUP_LAUNCHES)]
    start = time.perf_counter()
    passes = [runner.run_pass(cmds)]
    # another pass only if it should end within a quarter over --seconds
    while (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= 1.25 * seconds:
        if time.perf_counter() >= runner.deadline:
            break
        passes.append(runner.run_pass(cmds))
    per_command = list(zip(*passes))
    walls = [statistics.median(r.wall for r in runs) for runs in per_command]
    for cmd, wall in zip(cmds, walls):
        print(f"  {wall:8.3f} s  {cmd.text}", file=sys.stderr)
    return {
        "wall_s": metric(sum(walls), "s"),
        "cpu_s": metric(sum(statistics.median(r.cpu for r in runs) for runs in per_command), "s"),
        "peak_rss_mb": metric(max(r.rss_mb for runs in passes for r in runs), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }, len(passes)


def import_split(runner: Runner) -> dict:
    """Cumulative import times by ``-X importtime``, median over a few launches."""
    names = {
        "import.total_s": "cqgkhint.cli",
        "import.numpy_s": "numpy",
        "import.mpmath_s": "mpmath",
        "import.schur_s": "cqgkhint.schur",
        "import.exact_s": "cqgkhint.exact",
    }
    samples = {key: [] for key in names}
    for _ in range(IMPORT_LAUNCHES):
        result = runner.launch([sys.executable, "-X", "importtime", "-c", "import cqgkhint.cli"])
        if result.code != 0:
            raise SystemExit(f"importing cqgkhint.cli failed: {result.stderr.decode(errors='replace')}")
        cumulative = {}
        for line in result.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for key, module in names.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {key: statistics.median(values) for key, values in samples.items()}


def measure_traced(runner: Runner, cmds) -> dict:
    """Per-layer metrics: two traced passes, one untraced pass for the overhead."""
    runner.launch([sys.executable, "-m", "cqgkhint.cli", *SETUP.args])  # compile bytecode once
    imports = import_split(runner)
    untraced_wall = sum(r.wall for r in runner.run_pass(cmds))
    traced = []
    for _ in range(2):
        profiles, wall = [], 0.0
        for i, cmd in enumerate(cmds):
            spans_path = runner.workdir / f"spans-{i}.json"
            result = runner.run(cmd, spans=spans_path)
            wall += result.wall
            if spans_path.exists():  # a crashed command is already counted as failed
                with open(spans_path, encoding="utf-8") as fh:
                    profiles.append(command_profile(json.load(fh)))
                spans_path.unlink()
        traced.append((layer_metrics(profiles, wall), wall))
    (first, wall_1), (second, wall_2) = traced
    differ = [name for name in EXACT_COUNTS if first[name] != second[name]]
    if differ:
        for name in differ:
            print(f"exact count {name} differs between traced passes: {first[name]} != {second[name]}", file=sys.stderr)
        raise SystemExit(1)
    values = {name: (first[name] + second[name]) / 2 for name in first}
    values.update(imports)
    values["trace.overhead"] = (wall_1 + wall_2) / 2 / untraced_wall - 1
    print_breakdown(values)
    return {name: metric(values[name], unit) for name, unit in LAYER_METRICS.items()}


def print_breakdown(values: dict) -> None:
    selfs = {name[: -len(".self_s")]: v for name, v in values.items() if name.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    print("layer self time (share of traced compute):", file=sys.stderr)
    for name, value in sorted(selfs.items(), key=lambda item: -item[1]):
        if value > 0:
            print(f"  {name:40s} {value:9.4f} s  {100 * value / total:5.1f}%", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        runner = Runner(Path(workdir), load_reference())
        cmds = commands(name, seed)
        if trace:
            metrics = measure_traced(runner, cmds)
        else:
            metrics, passes = measure(runner, cmds, seconds)
            print(f"{name}: {len(cmds)} commands x {passes} passes", file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cqgkhint" / "cli.py").is_file():
        print(f"no cqgkhint sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    if args.workload != "all":
        before = cpu_jiffies()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        env["host_steal_share"] = steal_share(before, cpu_jiffies())
        print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed}))
        print(json.dumps(result))
        return 0
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed}))
    print(f"{'workload':14s} {'wall_s':>10s} {'cpu_s':>10s} {'peak_rss_mb':>12s} {'setup_s':>10s} {'error_rate':>19s}")
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, False)
        m = result["metrics"]
        print(
            f"{name:14s} {m['wall_s']['value']:8.3f} s {m['cpu_s']['value']:8.3f} s "
            f"{m['peak_rss_mb']['value']:9.1f} MB {m['setup_s']['value']:8.3f} s "
            f"{result['failed'] / result['attempted']:8.4f} fraction",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
