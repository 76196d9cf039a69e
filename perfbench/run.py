"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload srl-learn --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the run repeats whole rounds of the workload, at least
three, until ``--seconds`` have passed, and sets up afresh before each round
(``setup_s`` is the median set-up); it prints the end-to-end metrics.  With
``--trace 1`` it sets up once, then twice runs a plain round and a round with
spans recorded around every public function of the program's modules.  It
probes the layers, writes the last traced round's spans to ``perfbench/out/``,
and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A per-run record
with the machine, versions, input sizes and workload-specific figures goes
to ``perfbench/out/record-<workload>-s<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Before each round an untraced run sets up at least once, and keeps setting up
# until BURST_SECONDS have been spent or MAX_BURST set-ups are done.  setup_s is
# the median set-up of the run: spreading them over the run, between the
# rounds, keeps one slow phase of the host from deciding it.
BURST_SECONDS, MAX_BURST = 0.25, 20
MIN_ROUNDS = 3
# A traced run alternates plain and traced rounds this many times.
TRACE_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "learn_calls": "count",
    "outer_passes": "count",
}
PER_LAYER = {
    "cli.startup_ms": "ms",
    "io.load_tuples_ms": "ms",
    "io.load_labels_ms": "ms",
    "io.save_probabilities_ms": "ms",
    "io.self_ms": "ms",
    "datalog.parse_ms": "ms",
    "datalog.ground_ms": "ms",
    "datalog.ground_us_per_rule": "us",
    "datalog.derived_tuples": "count",
    "lineage.build_ms": "ms",
    "lineage.self_ms": "ms",
    "inference.compile_ms": "ms",
    "inference.compile_us": "us",
    "inference.prob_exact_us": "us",
    "inference.eval_us": "us",
    "inference.derivative_us": "us",
    "inference.self_ms": "ms",
    "learning.init_ms": "ms",
    "learning.first_pass_ms": "ms",
    "learning.pass_ms": "ms",
    "learning.finish_ms": "ms",
    "learning.accepted_steps": "count",
    "learning.accept_ratio": "ratio",
    "learning.self_ms": "ms",
    "applications.encode_ms": "ms",
    "applications.solve_ms": "ms",
    "applications.restart_ms": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def machine(np_version: str) -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np_version,
        "git_revision": git_revision(),
    }


def op_median(rounds) -> list:
    """Each operation's median wall time over the rounds.

    Their sum is the round time that ``wall_s`` reports.  Every round repeats
    the same operations on the same inputs, so the repeats of one operation
    differ only by interference from other processes on the host.  On the
    reference host most repeats are slowed and a few land in short quiet
    windows, so the shortest repeat depends on luck and the median does not.
    """
    return [statistics.median(times) for times in zip(*(r.op_s for r in rounds))]


def measure(workload, seconds: float) -> tuple:
    """Untraced run: end-to-end metrics, and the rounds and set-up times they came from."""
    import workloads

    setups, rounds = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        burst = []
        while not burst or (sum(burst) < BURST_SECONDS and len(burst) < MAX_BURST):
            workload.release()
            begin = time.perf_counter()
            workload.setup()
            burst.append(time.perf_counter() - begin)
        setups += burst
        rounds.append(workload.run_round())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_median(rounds)),
        "peak_rss_mb": workloads.peak_rss_mb(workload.rss_who),
        "learn_calls": statistics.median(r.learn_calls for r in rounds),
        "outer_passes": statistics.median(r.outer_passes for r in rounds),
    }
    return metrics, rounds, setups


def measure_layers(workload, seed: int) -> tuple:
    """Traced run: per-layer metrics, figures only some workloads have, rounds."""
    import spans
    import workloads

    workload.setup()
    plain, traced = [], []
    for pair in range(TRACE_PAIRS):
        # both rounds of a pair record accepted steps; only the second records spans
        with spans.recording_accepted():
            plain.append(workload.traced_round())
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(workload.traced_round())
            if pair == TRACE_PAIRS - 1:
                io_metrics = workload.io_replay(traced[-1].probabilities or plain[-1].probabilities)
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"spans-{workload.name}-s{seed}.json")

    if "datalog.ground_ms" not in io_metrics:
        io_metrics.update(workloads.datalog_probe(seed, workload.workdir / "datalog-probe"))
    metrics = {k: v for k, v in io_metrics.items() if k in PER_LAYER}
    extra = {k: v for k, v in io_metrics.items() if k not in PER_LAYER}
    metrics["cli.startup_ms"] = workloads.cli_startup_ms()
    metrics["lineage.build_ms"] = workloads.lineage_probe(workload)
    probe = workloads.inference_probe(workload.formulas(), seed)
    extra["inference.probed_formulas"] = probe.pop("inference.probed_formulas")
    metrics.update(probe)
    metrics.update(workloads.applications_probe(seed))
    for key, value in workloads.learning_metrics(tracer.learn_calls, tracer).items():
        metrics[f"learning.{key}"] = value
    extra.update(workload.layer_figures(tracer))
    for layer, ms in tracer.self_ms().items():
        if f"{layer}.self_ms" in PER_LAYER:
            metrics[f"{layer}.self_ms"] = ms
        elif ms:
            extra[f"{layer}.self_ms"] = ms
    plain_s = statistics.median(r.wall_s for r in plain)
    traced_s = statistics.median(r.wall_s for r in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.spans"] = len(tracer.spans)
    extra["trace.plain_wall_s"] = plain_s
    extra["trace.traced_wall_s"] = traced_s
    return metrics, extra, plain + traced


def workload_figures(workload, rounds) -> dict:
    """The figures only one workload has, such as learn_t1_s."""
    extra = dict(zip(workload.op_figures, op_median(rounds)))
    for key in sorted({k for r in rounds for k in r.extra}):
        extra[key] = statistics.median(r.extra[key] for r in rounds if key in r.extra)
    return extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdblearn" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, extra, rounds = measure_layers(workload, args.seed)
            units, setups = PER_LAYER, []
        else:
            metrics, rounds, setups = measure(workload, args.seconds)
            units = END_TO_END
            extra = workload_figures(workload, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = [msg for r in rounds for msg in r.wrong]
    errors = [msg for r in rounds for msg in r.errors]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(numpy.__version__),
        "inputs": workload.describe(),
        "setup_s_each": setups,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "op_s": [r.op_s for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "wrong": wrong[:20],
        "metrics": metrics,
        "extra": extra,
    }
    (OUT / f"record-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for msg in errors[:5]:
        print(f"failed operation: {msg}", file=sys.stderr)
    for msg in wrong[:5]:
        print(f"wrong output: {msg}", file=sys.stderr)
    for key, value in extra.items():
        print(f"{args.workload}\t{key}\t{value:.6g}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
