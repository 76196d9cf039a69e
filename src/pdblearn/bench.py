"""Benchmark harness: learner timings over a matrix of generated instances."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from itertools import product
from typing import Sequence

from .generators import _check_srl_size, gen_synthetic_srl
from .learning import OPTIMIZERS, LearnerConfig, LearningProblem, learn

__all__ = ["BenchCell", "run_bench", "save_bench", "format_bench"]


@dataclass
class BenchCell:
    n_labels: int
    n_tuples: int
    blocks: int
    objective: str
    optimizer: str
    threads: int
    seed: int
    status: str
    best: float
    iterations: int
    seconds: float
    error: str = ""


def run_bench(
    sizes: Sequence[tuple] = ((50, 60, 2), (200, 120, 4)),
    objectives: Sequence[str] = ("mse",),
    optimizers: Sequence[str] = OPTIMIZERS,
    threads: Sequence[int] = (1,),
    seed: int = 0,
    max_outer_iterations: int = 500,
) -> tuple:
    """Run the learner over every combination and collect one row per cell.

    ``sizes`` holds (n_labels, n_tuples, blocks) triples.  Failures inside a
    cell are captured in its ``error`` column instead of aborting the sweep;
    a size that cannot be generated raises ValueError before any cell runs.
    """
    for size in sizes:
        _check_srl_size(*size)
    cells = []
    for n_labels, n_tuples, blocks in sizes:
        instance = gen_synthetic_srl(n_labels, seed=seed, n_tuples=n_tuples, blocks=blocks)
        problem = LearningProblem(instance.db, instance.labels)
        for objective, optimizer, n_threads in product(objectives, optimizers, threads):
            status, best, iterations, error = "", float("nan"), 0, ""
            started = time.perf_counter()
            try:
                cfg = LearnerConfig(
                    objective=objective,
                    optimizer=optimizer,
                    threads=n_threads,
                    seed=seed,
                    max_outer_iterations=max_outer_iterations,
                )
                result = learn(problem, cfg)
                status, best, iterations = result.status, result.best, result.iterations
            except Exception as exc:  # keep sweeping, note the failure
                status, error = "error", f"{type(exc).__name__}: {exc}"
            cells.append(
                BenchCell(
                    n_labels, n_tuples, blocks, objective, optimizer, n_threads, seed,
                    status, best, iterations, time.perf_counter() - started, error,
                )
            )
    return tuple(cells)


def save_bench(cells: Sequence[BenchCell], path) -> None:
    names = [f.name for f in fields(BenchCell)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for cell in cells:
            writer.writerow([getattr(cell, name) for name in names])


def format_bench(cells: Sequence[BenchCell]) -> str:
    header = f"{'labels':>7} {'tuples':>7} {'blocks':>6} {'objective':>9} {'optimizer':>13} {'thr':>3} {'status':>14} {'best':>12} {'iters':>6} {'sec':>8}"
    rows = [header]
    for c in cells:
        rows.append(
            f"{c.n_labels:>7} {c.n_tuples:>7} {c.blocks:>6} {c.objective:>9} "
            f"{c.optimizer:>13} {c.threads:>3} {c.status:>14} {c.best:>12.6g} "
            f"{c.iterations:>6} {c.seconds:>8.3f}"
            + (f"  {c.error}" if c.error else "")
        )
    return "\n".join(rows)
