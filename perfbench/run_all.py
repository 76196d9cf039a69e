"""Run every workload, untraced and traced, and print one report.

    python3 perfbench/run_all.py [--seed 0] [--seconds N] [--markdown]

All four workloads run, the two that ``BENCHMARK.json`` gates and the two
that are only measured.  ``--seconds`` defaults to the ``run_seconds`` of
``BENCHMARK.json``.  Each workload runs twice through ``run.py``, one
process after the other:
with ``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for the
per-layer metrics.  The report lists every metric with its unit, the
workload-specific figures from the per-run records, and the attempted and
failed operations.  It is also written to ``perfbench/out/summary.json``.
``--markdown`` prints the tables in the form the README quotes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("srl-cli", "srl-learn", "sat-restarts", "logical-conj")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT / f"record-{workload}-s{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)

    summary = {}
    for workload in WORKLOADS:
        summary[workload] = {t: run(workload, args.seed, args.seconds, t) for t in (0, 1)}
        print(f"done: {workload}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    names = list(summary)
    sep = " | " if args.markdown else "  "
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per-layer (traced)")):
        print(f"\n{title}, seed {args.seed}, {args.seconds:g} s per run")
        rows = [["metric", "unit", *names]]
        metrics = summary[names[0]][trace]["result"]["metrics"]
        for key, entry in metrics.items():
            rows.append([key, entry["unit"], *(fmt(summary[w][trace]["result"]["metrics"][key]["value"]) for w in names)])
        extra = sorted({k for w in names for k in summary[w][trace]["record"]["extra"]})
        for key in extra:
            values = [summary[w][trace]["record"]["extra"].get(key) for w in names]
            if any(v for v in values):
                rows.append([key, "", *("-" if v is None else fmt(v) for v in values)])
        for key in ("attempted", "failed", "correct"):
            rows.append([key, "", *(fmt(summary[w][trace]["result"][key]) for w in names)])
        if args.markdown:
            rows.insert(1, ["---"] * len(rows[0]))
        for row in rows:
            line = sep.join(f"{cell:<26}" if i == 0 else f"{cell:>12}" for i, cell in enumerate(row))
            print(f"| {line} |" if args.markdown else line)
    machine = summary[names[0]][0]["record"]["machine"]
    print(f"\nmachine: {json.dumps(machine)}")
    for w in names:
        print(f"inputs {w}: {json.dumps(summary[w][0]['record']['inputs'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
