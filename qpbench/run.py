"""The qpcox benchmark.

    python3 qpbench/run.py --workload groups --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is the ``src/`` tree next to this directory.
Every command runs in a fresh ``python -m qpcox.cli`` process, as a user
runs it, with its working directory and ``--cache-dir`` in a fresh
temporary directory under ``.qpbench-work/`` at the repository root.

--trace 0: run passes of the workload's commands while another pass fits in
--seconds, at least two.  wall_s and cpu_s are the time of one pass, each
command's time being its median over the run's passes; peak_rss_mb is the
median over passes of the largest per-command peak RSS.  Each pass is
preceded by a timed set-up, except that a workload with a cache to fill sets
up once; setup_s is the median.  --seed fixes the command order of each pass
and the commands' PYTHONHASHSEED.

The host's speed drifts by up to a factor of two, in bursts of a second to
minutes, each vCPU on its own, and the program slows with it.  So the
benchmark and its commands run on one CPU, and while a command runs, a
thread of the benchmark times a short fixed stdlib loop on its own CPU clock
every PROBE_PERIOD_S.  Each command's wall and CPU time is scaled by
PROBE_NOMINAL_S over the mean of those times: every time metric is in
seconds on a host where the loop takes PROBE_NOMINAL_S.  The unscaled
figures are in the diagnostics.

--trace 1: set up once, run one untraced pass and one traced pass (each
command through ``tracecli.py``), and report the per-layer metrics of
``layers.py``.

Each command's exit code and stdout sha256 are checked against
``refs.json``; a mismatch counts as a failed command.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The line
before it holds diagnostics (per-pass figures, the reference loop, the
failures).

    python3 qpbench/run.py --pin-refs

re-pins ``refs.json`` from the current sources (cold, fresh cache).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, all_commands, command_key  # noqa: E402

REFS = HERE / "refs.json"
WORK = ROOT / ".qpbench-work"
MIN_PASSES = 2  # a median needs more than one pass, even when a pass outlasts --seconds
COMMAND_TIMEOUT = 150.0
REF_LOOP_N = 400_000
PROBE_N = 10_000  # about 2.5 ms, so the probe holds the CPU about 5% of the time
PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 0.0025  # ref_loop(PROBE_N) on the unloaded 2-vCPU Xeon VM the benchmark was tuned on


def ref_loop(n: int = REF_LOOP_N, clock=time.perf_counter) -> float:
    """A fixed stdlib-only workload; its time on ``clock``."""
    t0 = clock()
    d = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x % 1021
        d[k] = d.get(k, 0) + i
    return clock() - t0


class Runner:
    def __init__(self, seed: int, refs: dict | None):
        self.rng = random.Random(seed)
        self.refs = refs
        # the caller's PYTHON* settings (say PYTHONDONTWRITEBYTECODE) must not
        # change what is measured; .pyc files are cached as for a user install
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=WORK))
        self.attempted = 0
        self.failures: list[dict] = []
        # the probe must see the CPU the commands run on; the commands inherit this
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.dir))

    def command(self, argv, tmp: Path, trace_id: int | None = None) -> dict:
        """Run one command; wall time, rusage from wait4, stdout, and the
        host's speed while it ran."""
        full = list(argv) + ["--cache-dir", str(tmp / "cache")]
        env = self.env
        spans = tmp / f"spans-{trace_id}.bin"
        if trace_id is None:
            exe = [sys.executable, "-m", "qpcox.cli", *full]
        else:
            exe = [sys.executable, str(HERE / "tracecli.py"), *full]
            env = dict(env, QPBENCH_SPANS=str(spans), QPBENCH_CMD=str(trace_id))
        with open(tmp / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            if trace_id is not None:
                env["QPBENCH_SPAWN"] = repr(t0)
            proc = subprocess.Popen(exe, cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            timer.start()
            probes: list[float] = []
            stop = threading.Event()

            def probe():
                while True:
                    probes.append(ref_loop(PROBE_N, time.thread_time))
                    if stop.wait(PROBE_PERIOD_S):
                        return

            prober = threading.Thread(target=probe)
            prober.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                stop.set()
                prober.join()
                proc.stdout.close()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = {
            "key": command_key(argv),
            "rc": proc.returncode,
            "sha256": hashlib.sha256(out).hexdigest(),
            "bytes": len(out),
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "scale": PROBE_NOMINAL_S / statistics.fmean(probes),
            "probes": len(probes),
        }
        if trace_id is not None and spans.is_file():
            with open(spans, "rb") as fh:
                res["record"] = marshal.load(fh)
        self.check(res, tmp)
        return res

    def check(self, res: dict, tmp: Path):
        self.attempted += 1
        if self.refs is None:
            return
        ref = self.refs.get(res["key"])
        if ref is None or ref["rc"] != res["rc"] or ref["sha256"] != res["sha256"]:
            err = (tmp / "stderr.txt").read_bytes()[-2000:].decode(errors="replace")
            self.failures.append(
                {"command": res["key"], "rc": res["rc"], "sha256": res["sha256"],
                 "expected": ref, "stderr_tail": err}
            )

    def setup(self, workload) -> tuple[float, float, Path | None]:
        """Fresh directory, warm-up commands and the cold cache fill; returns
        the time taken, unscaled and scaled, and the filled cache, if the
        workload has one."""
        t0 = time.perf_counter()
        tmp = self.fresh_dir()
        results = [self.command(argv, tmp) for argv in workload.warmup + workload.fill]
        raw = time.perf_counter() - t0
        scale = statistics.fmean(r["scale"] for r in results)
        return raw, raw * scale, (tmp / "cache" if workload.fill else None)

    def run_pass(self, workload, cache: Path | None, traced: bool = False) -> dict:
        tmp = self.fresh_dir()
        if cache is not None:
            shutil.copytree(cache, tmp / "cache")
        order = list(workload.commands)
        self.rng.shuffle(order)
        results = [self.command(argv, tmp, i if traced else None) for i, argv in enumerate(order)]
        shutil.rmtree(tmp, ignore_errors=True)
        return {
            "wall": sum(r["wall"] for r in results),
            "cpu": sum(r["cpu"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "results": results,
        }


def measure(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    raw, scaled, cache = runner.setup(workload)
    setups, passes, lengths, refs = [(raw, scaled)], [], [], []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        # start a pass only if one as long as the typical one still fits
        time.perf_counter() - t_start + statistics.median(lengths) <= seconds
    ):
        t_pass = time.perf_counter()
        if passes and not workload.fill:
            # cheap set-ups repeat across the run, so that their median sees
            # the same host as the passes do
            raw, scaled, cache = runner.setup(workload)
            setups.append((raw, scaled))
        refs.append(ref_loop())
        passes.append(runner.run_pass(workload, cache))
        lengths.append(time.perf_counter() - t_pass)
    # a pass's time is the sum over its commands, each command's time being
    # its median over the run's passes
    wall, cpu = {}, {}
    for p in passes:
        for r in p["results"]:
            wall.setdefault(r["key"], []).append(r["wall"] * r["scale"])
            cpu.setdefault(r["key"], []).append(r["cpu"] * r["scale"])
    metrics = {
        "wall_s": (sum(statistics.median(v) for v in wall.values()), "s"),
        "cpu_s": (sum(statistics.median(v) for v in cpu.values()), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
    }
    diag = {
        "unscaled_wall_s": statistics.median(p["wall"] for p in passes),
        "unscaled_cpu_s": statistics.median(p["cpu"] for p in passes),
        "unscaled_setup_s": statistics.median(r for r, _ in setups),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_rss_mb": [p["rss_mb"] for p in passes],
        "ref_loop_s": refs,
        "commands": [[[r["key"], r["wall"], r["cpu"], r["rss_mb"], r["scale"], r["probes"]] for r in p["results"]]
                     for p in passes],
    }
    return metrics, diag


def traced_pass(runner: Runner, workload, cache: Path | None) -> tuple[dict, dict]:
    """One traced pass: its per-layer metrics and the pass itself."""
    traced = runner.run_pass(workload, cache, traced=True)
    results = traced["results"]
    if any("record" not in r for r in results):
        raise RuntimeError("a traced command ended without writing its spans")
    m = layers.aggregate(
        [r["record"] for r in results],
        [r["wall"] for r in results],
        sum(r["bytes"] for r in results),
    )
    return m, traced


def measure_traced(runner: Runner, workload) -> tuple[dict, dict]:
    setup_t, _, cache = runner.setup(workload)
    ref = ref_loop()
    plain = runner.run_pass(workload, cache)
    m, traced = traced_pass(runner, workload, cache)
    m["trace.untraced_wall_s"] = plain["wall"]
    m["trace.overhead_s"] = traced["wall"] - plain["wall"]
    m["host.ref_loop_s"] = ref
    units = layers.metric_units()
    metrics = {name: (value, units[name][0]) for name, value in m.items()}
    diag = {
        "setup_s": [setup_t],
        "ref_loop_s": [ref],
        "missing_targets": sorted({t for r in traced["results"] for t in r["record"]["missing"]}),
        "commands": [[[r["key"], r["wall"]] for r in p["results"]] for p in (plain, traced)],
    }
    return metrics, diag


def pin_refs() -> int:
    runner = Runner(0, None)
    try:
        refs = {}
        for argv in all_commands():
            res = runner.command(argv, runner.fresh_dir())
            refs[res["key"]] = {"rc": res["rc"], "sha256": res["sha256"], "bytes": res["bytes"]}
            print(f"{res['rc']} {res['sha256'][:16]} {res['wall']:7.2f}s  {res['key']}", file=sys.stderr)
        REFS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    finally:
        runner.close()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-refs", action="store_true", help="re-pin refs.json from the current sources")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qpcox" / "cli.py").is_file():
        print(f"qpbench: no qpcox sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin_refs:
        return pin_refs()
    if args.workload is None:
        ap.error("--workload is required")
    # a terminated run still stops and reaps the command it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    refs = json.loads(REFS.read_text())
    workload = WORKLOADS[args.workload]
    runner = Runner(args.seed, refs)
    try:
        if args.trace:
            metrics, diag = measure_traced(runner, workload)
        else:
            metrics, diag = measure(runner, workload, args.seconds)
    finally:
        runner.close()
    failed = len(runner.failures)
    diag.update(
        workload=workload.name,
        seed=args.seed,
        fail_frac=failed / runner.attempted,
        failures=runner.failures,
    )
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
