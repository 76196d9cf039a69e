"""Compare two checkouts on perfbench workloads and write one BENCH_<tag>.json.

    python3 tools/bench_compare.py --before PARENT --after CHANGE --out BENCH_tag.json \
        srl-cli srl-learn

Each checkout runs its own ``perfbench/run.py`` from its own root, so each
side imports its own ``src/``.  Both sides run for ``run_seconds`` of the
after side's ``BENCHMARK.json``.  Per workload the script runs ten pairs of
untraced runs; pair k uses seed ``100 + k`` on both sides, and the side that
runs first alternates from pair to pair.  Then it runs one traced run per
side, at seed 100, for the per-layer metrics and the figures of its record,
such as layer self times that are not gated metrics.

The output holds the host (CPU count from ``os.sched_getaffinity``, Python
version, CPU model), each side's git revision and benchmark digest, every
run's result line and, per workload and end-to-end metric, each side's
median and quartiles, the relative change of the medians and the number of
pairs the after side won.
A metric's ``gain`` says whether the after side won at least nine tenths of
the pairs and its median moved by more than the before side's quartile
spread; ``within_bound`` compares the medians against the metric's bound in
``BENCHMARK.json``.

A side's benchmark digest is a SHA-256 over its ``BENCHMARK.json`` and every
file under its ``perfbench/``, leaving out run outputs (``perfbench/out/``)
and bytecode caches.  ``same_benchmark`` says whether the two digests match;
when they do not, the script warns on stderr, because a gain is only shown
by the same benchmark run on both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
FIRST_SEED = 100


def revision(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("-dirty" if dirty else "")


def benchmark_digest(checkout: Path) -> str:
    files = [checkout / "BENCHMARK.json"]
    for path in (checkout / "perfbench").rglob("*"):
        parts = path.relative_to(checkout).parts
        if path.is_file() and parts[1] != "out" and "__pycache__" not in parts:
            files.append(path)
    digest = hashlib.sha256()
    for path in sorted(files, key=lambda p: p.relative_to(checkout).as_posix()):
        name = path.relative_to(checkout).as_posix().encode()
        data = path.read_bytes()
        for chunk in (name, data):
            digest.update(len(chunk).to_bytes(8, "big") + chunk)
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1200)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((checkout / "perfbench" / "out" /
                         f"record-{workload}-s{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "trace": trace, "result": result, "extra": record.get("extra", {})}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, bounds: dict) -> dict:
    out = {}
    for name, spec in bounds.items():
        before = [p["before"]["result"]["metrics"][name]["value"] for p in pairs]
        after = [p["after"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        qb, qa = quartiles(before), quartiles(after)
        change = (qa["median"] - qb["median"]) / qb["median"] if qb["median"] else 0.0
        out[name] = {
            "unit": spec["unit"],
            "before": before,
            "after": after,
            "before_quartiles": qb,
            "after_quartiles": qa,
            "median_change": change,
            "after_wins": wins,
            "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs)
            and sign * (qb["median"] - qa["median"]) > qb["q3"] - qb["q1"],
            "within_bound": sign * change <= spec["bound"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    before, after = args.before.resolve(), args.after.resolve()
    bench = json.loads((after / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    digests = {"before": benchmark_digest(before), "after": benchmark_digest(after)}
    if digests["before"] != digests["after"]:
        print(f"warning: the two sides run different benchmarks (BENCHMARK.json or "
              f"perfbench/ differ): before {digests['before'][:12]}, "
              f"after {digests['after'][:12]}", file=sys.stderr)

    report = {
        "command": " ".join([Path(sys.argv[0]).name, *(argv or sys.argv[1:])]),
        "host": {
            "cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "before_revision": revision(before),
        "after_revision": revision(after),
        "before_benchmark_sha256": digests["before"],
        "after_benchmark_sha256": digests["after"],
        "same_benchmark": digests["before"] == digests["after"],
        "seconds": seconds,
        "workloads": {},
    }
    for name in args.workloads:
        pairs = []
        for k in range(PAIRS):
            seed = FIRST_SEED + k
            sides = (("before", before), ("after", after))
            pair = {}
            for side, checkout in sides if k % 2 == 0 else sides[::-1]:
                pair[side] = run(checkout, name, seed, seconds, 0)
            pairs.append(pair)
            print(f"{time.strftime('%H:%M:%S')} {name} pair {k}: " + ", ".join(
                f"{side} wall_s {pair[side]['result']['metrics']['wall_s']['value']:.3f}"
                for side in ("before", "after")), file=sys.stderr)
        traced = {side: run(checkout, name, FIRST_SEED, seconds, 1)
                  for side, checkout in (("before", before), ("after", after))}
        all_runs = [p[side] for p in pairs for side in p] + list(traced.values())
        report["workloads"][name] = {
            "end_to_end": summarize(pairs, bounds),
            "correct": all(r["result"]["correct"] for r in all_runs),
            "failed": sum(r["result"]["failed"] for r in all_runs),
            "per_layer": {
                key: {"unit": entry["unit"], "before": entry["value"],
                      "after": traced["after"]["result"]["metrics"].get(key, {}).get("value")}
                for key, entry in traced["before"]["result"]["metrics"].items()
            },
            "traced_figures": {
                key: {"before": value, "after": traced["after"]["extra"].get(key)}
                for key, value in traced["before"]["extra"].items()
            },
            "runs": pairs,
            "traced_runs": traced,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
