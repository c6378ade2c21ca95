"""minentlab benchmark: one closed-loop client issuing verdicts.

    python3 perfbench/run.py --workload ot-sender --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                # every workload

One driving process builds a workload's inputs from ``--seed`` and runs its
round of verdicts again and again, each verdict waiting for the previous
one, for about ``--seconds`` seconds of whole rounds.  Every verdict is then
judged by an independent check (``checks.py``).  The median verdict time
is taken over each verdict's mean time across the run's rounds.  The last
line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
the ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"          # working files of a run, inside the tree
SETUP_STARTS = 5               # fresh interpreters behind each setup_s
IMPORT_STARTS = 3              # `python -X importtime` runs behind import.*

WORKLOAD_NAMES = ("ot-sender", "commit-binding", "verifiers", "cli-session")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program, build the inputs and exit "
                        "(one fresh start of setup_s)")
    return p.parse_args(argv)


def import_program():
    if not (ROOT / "src" / "minentlab").is_dir():
        sys.exit(f"no minentlab source tree under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


# --------------------------------------------------------------- rounds

def run_round(items, tracer=None):
    """One pass over the round; returns [(seconds, result or exception)]."""
    out = []
    for item in items:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = item.call()
            else:
                with tracer.span("verdict"):
                    result = item.call()
        except Exception as exc:          # counted as a failed verdict
            result = exc
        out.append((time.perf_counter() - start, result))
    return out


def run_timed(items, seconds):
    """Whole rounds until about ``seconds`` have been spent: a further round
    starts only while it would end less than half a round past the budget,
    so every run measures the same mix of operations."""
    rounds, spent = [], 0.0
    while True:
        rnd = run_round(items)
        rounds.append(rnd)
        last = sum(dt for dt, _ in rnd)
        spent += last
        if spent + last / 2.0 > seconds:
            return rounds


def judge_rounds(items, rounds):
    import checks
    attempted = failed = wrong = 0
    for rnd in rounds:
        by_label = {it.label: res for it, (_, res) in zip(items, rnd)}
        for item, (_, result) in zip(items, rnd):
            attempted += 1
            if isinstance(result, Exception):
                failed += 1
                print(f"FAILED {item.label}: raised\n"
                      + "".join(traceback.format_exception(result)),
                      file=sys.stderr)
                continue
            problems = checks.judge(item, result, by_label)
            if problems:
                failed += 1
                wrong += 1
                print(f"FAILED {item.label}: " + "; ".join(problems),
                      file=sys.stderr)
    return attempted, failed, wrong


# ---------------------------------------------------------------- set-up

def fresh_starts(args, count):
    """Wall time of ``count`` fresh interpreters that import the program and
    build this workload's inputs."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, cwd=ROOT)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up start failed: "
                               + proc.stderr.decode(errors="replace")[-500:])
    return times


def import_times():
    """Cumulative import seconds of minentlab.cli, scipy and numpy from
    ``python -X importtime``, median of a few fresh interpreters.  A
    package's time is the sum over its import-tree entries whose parent
    is outside the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = {"cli.import_s": [], "import.scipy_s": [], "import.numpy_s": []}
    line_re = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for _ in range(IMPORT_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import minentlab.cli"], env=env, cwd=ROOT,
                              capture_output=True, check=True)
        entries = []
        for line in proc.stderr.decode().splitlines():
            m = line_re.match(line)
            if m:
                entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
        totals = {"minentlab.cli": 0, "scipy": 0, "numpy": 0}
        stack = []                      # (depth, package) of open parents
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            parent = stack[-1][1] if stack else None
            top = name.split(".")[0]
            if name == "minentlab.cli":
                totals["minentlab.cli"] += cumulative
            elif top in ("scipy", "numpy") and parent != top:
                totals[top] += cumulative
            stack.append((depth, top))
        samples["cli.import_s"].append(totals["minentlab.cli"] / 1e6)
        samples["import.scipy_s"].append(totals["scipy"] / 1e6)
        samples["import.numpy_s"].append(totals["numpy"] / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


# ------------------------------------------------------------------ modes

def mean_times(rounds):
    """Each verdict's mean time over the rounds.  The machine switches
    between a fast and a slow speed, some 1.7 times apart, for seconds to
    minutes at a time.  A single sample, and so a median over all samples, lands in one
    mode or the other; a verdict's mean over the run blends the two in the
    proportion the run saw, and moves far less from run to run."""
    return [statistics.fmean(rnd[i][0] for rnd in rounds)
            for i in range(len(rounds[0]))]


def end_to_end(args, workloads, items):
    setup = statistics.median(fresh_starts(args, SETUP_STARTS))
    workloads.warm_up(args.workload)
    rounds = run_timed(items, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    means = mean_times(rounds)
    attempted, failed, wrong = judge_rounds(items, rounds)
    metrics = {
        "verdicts_per_s": (len(means) / sum(means), "1/s"),
        "verdict_p50_s": (statistics.median(means), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup, "s"),
    }
    return attempted, failed, wrong, metrics


def traced(args, workloads, items):
    """A warm round, one untraced round, then the same round traced;
    per-layer metrics come from the traced one, trace.overhead_s is the
    difference of the last two.  The warm round keeps first-call costs
    (fresh memory for the largest arrays) out of that difference.  Items
    that can also run in their own process (cli-session) are then spawned
    once each, and cli.process_overhead_s is that round's time minus the
    untraced in-process round."""
    import tracing
    metrics = dict(import_times())
    workloads.warm_up(args.workload)
    tracer = tracing.Tracer()
    run_round(items)
    plain_round = run_round(items)
    tracer.install()
    try:
        traced_round = run_round(items, tracer)
    finally:
        tracer.uninstall()
    rounds = [plain_round, traced_round]
    overhead = (sum(dt for dt, _ in traced_round)
                - sum(dt for dt, _ in plain_round))
    metrics["cli.process_overhead_s"] = 0.0
    if all(it.spawn is not None for it in items):
        spawned = [workloads.Item(it.label, it.spawn, it.check, it.expect)
                   for it in items]
        spawn_round = run_round(spawned)
        rounds.append(spawn_round)
        metrics["cli.process_overhead_s"] = (
            sum(dt for dt, _ in spawn_round) - sum(dt for dt, _ in plain_round))
    metrics = {k: (v, "s") for k, v in metrics.items()}
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_s"] = (overhead, "s")
    gaps = [res.cheat_upper - res.cheat_lower for _, res in traced_round
            if hasattr(res, "cheat_upper")]
    metrics["protocols.binding_bracket_gap_max"] = (max(gaps, default=0.0),
                                                     "prob")
    metrics["protocols.basis_strings"] = (
        sum(it.basis_strings for it in items), "count")
    attempted, failed, wrong = judge_rounds(items, rounds)
    return attempted, failed, wrong, metrics


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:15s} {metric:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread for this process and every child it starts, set before
    # numpy loads: the verdicts gain nothing from a second thread at these
    # sizes, and a second thread on a two-core machine makes wall times swing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        run_all(args)
        return 0
    workloads = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    os.environ["MINENTLAB_OUTDIR"] = str(workdir)     # --out lands here
    try:
        items = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        mode = traced if args.trace else end_to_end
        attempted, failed, wrong, metrics = mode(args, workloads, items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
