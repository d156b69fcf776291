"""qvir benchmark: cold time-to-verdict of the qvir CLI.

Run from the root of a checkout (qvir is imported from its src/):

    python3 perfbench/run.py --workload q-full-6 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every timed run is one fresh interpreter calling qvir.cli.main on the
workload's arguments, as a CLI user pays for it; runs are sequential, one
client, so only one qvir process runs at a time.  Each run's JSON report must
pass the verdict gate (exit status 0, no failed check, the known documented
ids, the known check count).

--trace 0 prints the end-to-end metrics: cpu_rel (each run's CPU time from
spawn to exit, in units of the CPU time REFERENCE_ROUNDS rounds of a fixed
reference loop took on the same CPU during that run; median over the runs of
a --seconds window), setup_s (median over the fresh interpreters, taken
between those runs, that import qvir and build the workload's scenarios and
fields, scaled to a CPU that runs the reference loop at REFERENCE_RATE),
peak_rss_mb (from wait4).  The raw cpu_s, wall_s and set-up time are printed
beside them.
--trace 1 runs the workload at least twice under perfbench/probe.py's
tracer, prints every per-layer metric and each layer's self time, and
requires identical call counters across the traced runs.  --workload all
runs every workload both ways and prints the tracing overhead.

The seed sets the order in which set-up samples and timed runs, workloads,
and traced and untraced runs interleave; qvir itself gets only its CLI
arguments.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from probe import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "_out"
CLI = "import sys; from qvir.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_SAMPLES = 21
MIN_TRACED_RUNS = 2
DEADLINE_S = 170.0      # one single-workload invocation ends within this

END_TO_END = {"cpu_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}
REFERENCE_ROUNDS = 100_000  # cpu_rel's unit: the CPU time of this many reference rounds
REFERENCE_NICE = 10         # the meter then gets about a tenth of the pinned CPU
REFERENCE_RATE = 200_000    # rounds per CPU second of the CPU setup_s is scaled to

# Per-layer metrics recorded in the result line.  Times of functions that a
# workload never calls (vertexcalc, the mode algebra, the per-scenario
# qvirasoro checks, gcd and taylor_q1 on the classical scenario) are printed
# and kept in the trace file, but a time that is 0 by construction is not
# a measurement, so those are left out of the result line.
PER_LAYER = (
    "cli.run.s", "cli.process.cpu_s", "cli.process.cpu_rel", "cli.process.wall_s",
    "report.emit.s", "report.bytes",
    "vertexcalc.contraction_kernel.calls", "vertexcalc.contraction_memo.entries",
    "vertexcalc.reconstruct_kernel.calls",
    "currents.classical_bracket.calls", "currents.classical_bracket.s",
    "distcalc.pair.calls", "distcalc.pair.s", "distcalc.region_difference.calls",
    "distcalc.weight_abs.calls",
    "dirac.dirac_suite.s", "dirac.reduce_suite.s", "dirac.reduce.calls",
    "dirac.reduce.s", "dirac.build_dirac_matrix.calls", "dirac.invert.calls",
    "dirac.invert.s",
    "qcoeff.Scalar.mul.calls", "qcoeff.Scalar.add.calls", "qcoeff.Scalar.sub.calls",
    "qcoeff.Scalar.inverse.calls", "qcoeff.Scalar.eq.calls", "qcoeff.Scalar.ops.self_s",
    "qcoeff.RatFunc.new.calls", "qcoeff.gcd.calls", "qcoeff.qint.hits",
    "qcoeff.qint.misses", "qcoeff.taylor_q1.calls",
    "cli.self_s", "report.self_s", "currents.self_s", "distcalc.self_s",
    "dirac.self_s", "qvirasoro.self_s", "qcoeff.self_s",
)
COUNT_SUFFIXES = (".calls", ".entries", ".hits", ".misses")


def unit_of(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith("cpu_rel"):
        return "x"
    return "B" if name.endswith(".bytes") else "s"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list, deadline: float, capture: bool = False):
    """Run argv to completion or until the deadline (a perf_counter time).

    Returns (exit status, wall seconds from spawn to exit, rusage, stdout).
    """
    timeout = max(deadline - time.perf_counter(), 1.0)
    with open(OUT / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stderr=err,
                                stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read().decode() if capture else ""
    if capture:
        proc.stdout.close()
    return proc.returncode, wall, usage, out


def verdict(wl, status: int, report_path: Path):
    """None when the run passes the gate, else the reason it does not."""
    if status != 0:
        return f"exit status {status}: {stderr_tail()}"
    try:
        checks = json.loads(report_path.read_text(encoding="utf-8"))["checks"]
        statuses = [(c["id"], c["status"]) for c in checks]
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {err!r}"
    failed = [i for i, s in statuses if s == "fail"]
    if failed:
        return f"{len(failed)} failed checks, first {failed[0]}"
    documented = sorted(i for i, s in statuses if s == "discrepancy-documented")
    if documented != sorted(wl.documented):
        return f"documented ids {documented}, expected {sorted(wl.documented)}"
    if len(checks) != wl.checks:
        return f"{len(checks)} checks, expected {wl.checks}"
    return None


def stderr_tail() -> str:
    lines = (OUT / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def setup_sample(wl, deadline: float) -> float:
    status, _, _, out = spawn([sys.executable, str(HERE / "probe.py"), "setup", wl.name],
                              deadline, capture=True)
    if status != 0:
        raise RuntimeError(f"set-up of {wl.name} failed: {stderr_tail()}")
    return float(out)


class ReferenceMeter(threading.Thread):
    """Measures how fast the CPU runs Python while a qvir run is running.

    The thread runs a fixed loop of stdlib Fraction arithmetic, the
    small-integer rational arithmetic qvir's qcoeff layer is made of, at a
    lower priority on the CPU that the benchmark and the qvir run are pinned
    to.  The scheduler interleaves the two every few milliseconds, so the
    loop's rounds per CPU second see what the qvir run sees (a busy sibling
    hyperthread, a slower clock).  The loop uses no qvir code, so a change to
    qvir cannot move it.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.rounds = 0
        self.cpu_s = 0.0

    def run(self):
        try:
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), REFERENCE_NICE)
        except OSError:
            pass        # at equal priority the meter takes more CPU, the ratio holds
        t0 = time.thread_time()
        while True:     # at least one batch, so the rate is defined
            for i in range(1, 101):
                Fraction(i, i + 1) * Fraction(i + 2, 3 * i + 1) + Fraction(1, i)
            self.rounds += 100
            if self.done.is_set():
                break
        self.cpu_s = time.thread_time() - t0

    def stop(self) -> float:
        """Reference rounds per CPU second while the meter ran."""
        self.done.set()
        self.join()
        return self.rounds / self.cpu_s


def cli_run(wl, deadline: float, traced_to: Path | None = None) -> dict:
    """One cold qvir process on the workload, gated; traced when asked."""
    report_path = OUT / f"{wl.name}.report.json"
    report_path.unlink(missing_ok=True)
    if traced_to is None:
        head = [sys.executable, "-c", CLI]
    else:
        traced_to.unlink(missing_ok=True)
        head = [sys.executable, str(HERE / "probe.py"), "trace", str(traced_to)]
    meter = ReferenceMeter()
    meter.start()
    try:
        status, wall, usage, _ = spawn(head + list(wl.args) + ["--output", str(report_path)],
                                       deadline)
    finally:
        rate = meter.stop()
    reason = verdict(wl, status, report_path)
    run = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "reason": reason,
           "report_bytes": report_path.stat().st_size if report_path.exists() else 0}
    run["reference_rate"] = rate
    run["cpu_rel"] = run["cpu_s"] * rate / REFERENCE_ROUNDS
    if traced_to is not None and traced_to.exists():
        run["trace"] = json.loads(traced_to.read_text(encoding="utf-8"))
    return run


def repeat(wl, seconds: float, minimum: int, deadline: float, traced: bool,
           between=None) -> list:
    """Cold runs back to back for about `seconds`, at least `minimum` of them.

    A run beyond the minimum starts only if a run of the median length so far
    would end within `seconds` and well before the deadline, so the window is
    not overrun by a whole run.  `between()`, when given, runs after each run
    and counts toward the window."""
    runs = []
    t0 = time.perf_counter()
    while True:
        if len(runs) >= minimum:
            typical = statistics.median(r["wall_s"] for r in runs)
            now = time.perf_counter()
            if now - t0 + typical > seconds or deadline - now < 1.5 * typical:
                break
        trace_path = OUT / f"{wl.name}.trace{len(runs)}.json" if traced else None
        runs.append(cli_run(wl, deadline, trace_path))
        if between is not None:
            between()
    return runs


def gate_counts(wl, runs: list):
    failed = sum(wl.checks for r in runs if r["reason"] is not None)
    return len(runs) * wl.checks, failed


def untraced(wl, seconds: float, rng: random.Random, deadline: float) -> dict:
    """The end-to-end measurement: timed runs with set-up samples between them.

    The seed decides whether set-up samples come first and how many follow
    each run; the set-up samples are topped up to SETUP_SAMPLES at the end."""
    setups = []
    order = []      # "S" per set-up sample, "R" per timed run, as taken

    def setup_batch(count: int):
        for _ in range(count):
            setups.append(setup_sample(wl, deadline))
            order.append("S")

    def after_run():
        order.append("R")
        setup_batch(rng.randint(1, 3))

    if rng.random() < 0.5:
        setup_batch(rng.randint(1, 3))
    runs = repeat(wl, seconds, 1, deadline, traced=False, between=after_run)
    setup_batch(SETUP_SAMPLES - len(setups))
    attempted, failed = gate_counts(wl, runs)
    rate = statistics.median(r["reference_rate"] for r in runs)
    metrics = {
        "cpu_rel": statistics.median(r["cpu_rel"] for r in runs),
        # set-up seconds on a CPU that runs the reference loop at REFERENCE_RATE
        "setup_s": statistics.median(setups) * rate / REFERENCE_RATE,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        # printed only
        "setup_raw_s": statistics.median(setups),
        "reference_rate": rate,
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
    }
    return {"runs": runs, "setups": setups, "order": "".join(order), "metrics": metrics,
            "attempted": attempted, "failed": failed, "problems": []}


def layer_metrics(run: dict) -> dict:
    """Every per-layer metric of one traced run, by name."""
    t = run["trace"]
    stats = t["stats"]
    m = {
        "cli.run.s": stats["cli.run"][1],
        "cli.process.cpu_s": run["cpu_s"],
        "cli.process.cpu_rel": run["cpu_rel"],
        "cli.process.wall_s": run["wall_s"],
        "report.bytes": run["report_bytes"],
        "report.emit.s": stats["report.emit"][1],
        "vertexcalc.contraction_memo.entries": t["contraction_memo_entries"],
        "qcoeff.qint.hits": t["qint_hits"],
        "qcoeff.qint.misses": t["qint_misses"],
        "qcoeff.Scalar.ops.self_s": sum(v[2] for k, v in stats.items()
                                        if k.startswith("qcoeff.Scalar.")),
    }
    for name, (calls, inclusive, _) in stats.items():
        if name in ("cli.main", "report.emit"):
            continue
        m[name + ".calls"] = calls
        m[name + ".s"] = inclusive
    for layer, own in t["layer_self_s"].items():
        m[layer + ".self_s"] = own
    return dict(sorted(m.items()))


def traced(wl, seconds: float, deadline: float) -> dict:
    runs = repeat(wl, seconds, MIN_TRACED_RUNS, deadline, traced=True)
    attempted, failed = gate_counts(wl, runs)
    problems = []
    per_run = [layer_metrics(r) for r in runs if "trace" in r]
    metrics = {}
    if per_run:
        for name in per_run[0]:
            values = [m[name] for m in per_run]
            if unit_of(name) == "count":
                metrics[name] = values[0]
                if len(set(values)) > 1:
                    problems.append(f"{name} differs across traced runs: {values}")
            else:
                metrics[name] = statistics.median(values)
    if len(per_run) < MIN_TRACED_RUNS:
        problems.append(f"{len(per_run)} traced runs finished, "
                        f"{MIN_TRACED_RUNS} needed to compare counters")
    return {"runs": runs, "metrics": metrics, "attempted": attempted,
            "failed": failed, "problems": problems}


def environment() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu": model, "loadavg": os.getloadavg()}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_untraced(wl, res: dict):
    runs = res["runs"]
    print(f"[{wl.name}] untraced: {len(runs)} cold runs, {len(res['setups'])} set-up samples, "
          f"order {res['order']}")
    for r in runs:
        print(f"  run wall {r['wall_s']:.4f} s  cpu {r['cpu_s']:.4f} s  "
              f"reference {r['reference_rate']:.0f} rounds/s  cpu_rel {r['cpu_rel']:.4f}  "
              f"rss {r['peak_rss_mb']:.2f} MB  gate {r['reason'] or 'pass'}")
    print("  set-up samples " + " ".join(f"{s:.4f}" for s in res["setups"]))
    for name, unit in END_TO_END.items():
        print(f"  {name} = {fmt(res['metrics'][name])} {unit}")
    m = res["metrics"]
    print(f"  cpu_s = {fmt(m['cpu_s'])} s, wall_s = {fmt(m['wall_s'])} s, "
          f"setup_raw_s = {fmt(m['setup_raw_s'])} s, reference_rate = "
          f"{fmt(m['reference_rate'])} rounds/s  (printed only: the times move with the "
          "host's speed, and wall_s includes the meter's share of the CPU)")
    ratio = res["failed"] / res["attempted"]
    print(f"  fail_ratio = {ratio:g} ({res['failed']}/{res['attempted']} checks)")


def print_traced(wl, res: dict):
    runs = res["runs"]
    print(f"[{wl.name}] traced: {len(runs)} cold runs")
    for r in runs:
        print(f"  run wall {r['wall_s']:.4f} s  cpu {r['cpu_s']:.4f} s  "
              f"cpu_rel {r['cpu_rel']:.4f}  gate {r['reason'] or 'pass'}")
    m = res["metrics"]
    for name, value in m.items():
        note = "" if name in PER_LAYER else "  (printed only)"
        print(f"  {name} = {fmt(value)} {unit_of(name)}{note}")
    if m:
        wall = m["cli.process.wall_s"]
        print("  layer self time, share of traced wall_s:")
        for layer in LAYERS:
            own = m[layer + ".self_s"]
            print(f"    {layer:<10} {own:9.4f} s  {100 * own / wall:6.2f} %")
    for p in res["problems"]:
        print(f"  PROBLEM: {p}")


def metric_json(values: dict, names) -> dict:
    return {n: {"value": values[n], "unit": END_TO_END.get(n) or unit_of(n)} for n in names}


def single(wl, args, rng: random.Random, deadline: float) -> dict:
    if args.trace:
        res = traced(wl, args.seconds, deadline)
        print_traced(wl, res)
        names = PER_LAYER if res["metrics"] else ()
    else:
        res = untraced(wl, args.seconds, rng, deadline)
        print_untraced(wl, res)
        names = END_TO_END
    correct = res["failed"] == 0 and not res["problems"]
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metric_json(res["metrics"], names)}


def every_workload(args, rng: random.Random) -> dict:
    """All workloads, untraced and traced in a seed-chosen order."""
    names = sorted(WORKLOADS)
    rng.shuffle(names)
    print(f"workload order: {' '.join(names)}")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = WORKLOADS[name]
        kinds = ["untraced", "traced"]
        rng.shuffle(kinds)
        results = {}
        for kind in kinds:
            deadline = time.perf_counter() + DEADLINE_S
            if kind == "traced":
                results[kind] = traced(wl, args.seconds, deadline)
                print_traced(wl, results[kind])
            else:
                results[kind] = untraced(wl, args.seconds, rng, deadline)
                print_untraced(wl, results[kind])
        u, t = results["untraced"], results["traced"]
        if t["metrics"]:
            overhead = t["metrics"]["cli.process.cpu_rel"] - u["metrics"]["cpu_rel"]
            print(f"[{name}] tracing overhead: {overhead:+.4f} x "
                  f"({100 * overhead / u['metrics']['cpu_rel']:+.2f} % of cpu_rel)")
        for res in (u, t):
            summary["correct"] &= res["failed"] == 0 and not res["problems"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
        for metric, value in metric_json(u["metrics"], END_TO_END).items():
            summary["metrics"][f"{name}/{metric}"] = value
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measure at least this long (at least one run, two traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated benchmark kills and reaps its running child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qvir" / "cli.py").is_file():
        print(f"error: no qvir sources under {ROOT / 'src'}; run from the root of a "
              "qvir checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    # one CPU for this process and every child, so each reference sample
    # runs on the CPU its neighbouring qvir runs ran on
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    rng = random.Random(args.seed)
    print(f"seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"environment {json.dumps(env)}")
    deadline = time.perf_counter() + DEADLINE_S
    # untimed warm-up: compiles qvir's bytecode so no timed run pays for it
    setup_sample(WORKLOADS["q-full-6"], deadline)
    if args.workload == "all":
        result = every_workload(args, rng)
    else:
        result = single(WORKLOADS[args.workload], args, rng, deadline)
    print(f"loadavg at end {os.getloadavg()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
