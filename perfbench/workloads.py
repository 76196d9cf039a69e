"""The four workloads: set-up, one timed round, output checks and layer probes.

A round is the same list of operations every time.  ``Round.op_s`` holds
the wall time of each operation in order, and ``Round.failed`` counts those
that raised or exited with an unexpected code.  Checks run after the timed
calls and never inside them.  Each timed operation starts after a full
garbage collection, so that garbage left by set-up or by the operation
before it is not collected on its clock.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import io as _stdio
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import gen
import spans
from pdblearn import (
    And,
    Label,
    LearnerConfig,
    LearningProblem,
    Not,
    Or,
    ProbabilisticDatabase,
    TupleId,
    Var,
    applications,
    cli,
    datalog,
    inference,
    learning,
    lineage,
)
from pdblearn import io as pdb_io

# The program is called through its module attributes, so that the spans a
# tracer installs there see every call the benchmark makes.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
clock = time.perf_counter

# inference probes time at most this many of a workload's formulas
PROBE_FORMULAS = 1000


@dataclass
class Round:
    op_s: list = field(default_factory=list)  # wall time of each operation
    failed: int = 0
    learn_calls: int = 0
    outer_passes: int = 0
    extra: dict = field(default_factory=dict)  # workload-specific figures
    errors: list = field(default_factory=list)  # why operations failed
    wrong: list = field(default_factory=list)  # failed output checks
    probabilities: list = field(default_factory=list)  # returned maps, in order

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)


def start_op() -> float:
    gc.collect()
    return clock()


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tid(i: int) -> TupleId:
    return TupleId("t", (i,))


def instance(label_set: gen.LabelSet, indices) -> tuple:
    """The learnable database and the labels of a label set.

    Formulas and database share one TupleId object per tuple, as the
    program's own generators build them.
    """
    ids = {i: tid(i) for i in indices}
    db = ProbabilisticDatabase()
    for t in ids.values():
        db.add(t, learnable=True)

    def literal(t, negated):
        return Not(Var(ids[t])) if negated else Var(ids[t])

    labels = tuple(
        Label(Or(*(And(*(literal(t, neg) for t, neg in conj)) for conj in label)), y)
        for label, y in zip(label_set.labels, label_set.targets)
    )
    return db, labels


def by_index(probabilities) -> dict:
    return {t.key[0]: p for t, p in probabilities.items()}


def _checked(r: Round, checks) -> None:
    try:
        checks()
    except check.CheckFailed as exc:
        r.wrong.append(str(exc))


class Workload:
    name = ""
    rss_who = resource.RUSAGE_SELF  # whose peak memory peak_rss_mb reports
    op_figures = ()  # names for the best time of each operation, if it has one

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop the last set-up's inputs, so that the next set-up does not add to peak memory."""
        for key in [k for k in vars(self) if k not in ("seed", "workdir")]:
            delattr(self, key)

    def run_round(self) -> Round:
        raise NotImplementedError

    def traced_round(self) -> Round:
        """The round the traced run records; it must run in this process."""
        return self.run_round()

    def formulas(self) -> list:
        raise NotImplementedError

    def label_sets(self) -> list:
        """The workload's labels in the benchmark's own shape."""
        raise NotImplementedError

    def io_replay(self, probabilities: list) -> dict:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def layer_figures(self, tracer) -> dict:
        """Layer figures only this workload has, from its traced round."""
        return {}

    # shared by the workloads that replay F-row label files
    def _replay_files(self, label_sets, probabilities) -> dict:
        out = {"io.load_tuples_ms": 0.0, "io.load_labels_ms": 0.0, "io.save_probabilities_ms": 0.0}
        tuples_path = self.workdir / "replay_tuples.tsv"
        labels_path = self.workdir / "replay_labels.tsv"
        probs_path = self.workdir / "replay_probabilities.tsv"
        for label_set, probs in zip(label_sets, probabilities):
            tuples_path.write_text(gen.tuples_text(gen.tuple_ids(label_set)), encoding="utf-8")
            labels_path.write_text(gen.formula_labels_text(label_set), encoding="utf-8")
            start = clock()
            db = pdb_io.load_tuples(tuples_path)
            mid = clock()
            pdb_io.load_labels(labels_path, db)
            end = clock()
            pdb_io.save_probabilities(probs, probs_path)
            out["io.load_tuples_ms"] += (mid - start) * 1000.0
            out["io.load_labels_ms"] += (end - mid) * 1000.0
            out["io.save_probabilities_ms"] += (clock() - end) * 1000.0
        return out


class SrlCli(Workload):
    """``pdblearn learn`` as a subprocess on SRL tuples, rules and Q labels."""

    name = "srl-cli"
    rss_who = resource.RUSAGE_CHILDREN
    op_figures = ("learn_t2_s",)
    N_LABELS, N_TUPLES, BLOCKS, PASSES, THREADS = 500, 200, 4, 12, 2

    def setup(self) -> None:
        rng_inputs, rng_learn = gen.streams(self.seed, 2)
        self.label_set = gen.srl_labels(rng_inputs, self.N_LABELS, self.N_TUPLES, self.BLOCKS)
        self.learner_seed = int(rng_learn.integers(2**31))
        w = self.workdir
        self.paths = {k: w / f for k, f in (
            ("tuples", "tuples.tsv"), ("rules", "rules.dl"), ("labels", "labels.tsv"),
            ("out", "learned.tsv"), ("trace", "trace.csv"),
        )}
        self.paths["tuples"].write_text(gen.tuples_text(range(self.N_TUPLES)), encoding="utf-8")
        self.paths["rules"].write_text(gen.rules_text(self.label_set), encoding="utf-8")
        self.paths["labels"].write_text(gen.query_labels_text(self.label_set), encoding="utf-8")

    def cli_args(self) -> list:
        p = self.paths
        return [
            "learn", "--tuples", str(p["tuples"]), "--rules", str(p["rules"]),
            "--labels", str(p["labels"]), "--out", str(p["out"]), "--trace", str(p["trace"]),
            "--threads", str(self.THREADS), "--eps-abs", "0", "--eps-rel", "0",
            "--max-iterations", str(self.PASSES), "--seed", str(self.learner_seed),
        ]

    def _clear_outputs(self) -> None:
        for path in (self.paths["out"], self.paths["trace"]):
            path.unlink(missing_ok=True)

    def run_round(self) -> Round:
        r = Round()
        self._clear_outputs()
        start = start_op()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pdblearn", *self.cli_args()],
                cwd=self.workdir, env=program_env(), capture_output=True, text=True, timeout=170,
            )
        except subprocess.TimeoutExpired:
            r.failed, r.op_s = 1, [clock() - start]
            r.errors.append("pdblearn learn timed out")
            return r
        r.op_s = [clock() - start]
        self._finish(r, proc.returncode, proc.stderr)
        return r

    def traced_round(self) -> Round:
        r = Round()
        self._clear_outputs()
        stderr = _stdio.StringIO()
        start = start_op()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(self.cli_args())
        r.op_s = [clock() - start]
        self._finish(r, code, stderr.getvalue())
        return r

    def _finish(self, r: Round, code: int, stderr: str) -> None:
        # a fixed pass count ends at the iteration cap, which exits with 2
        if code != 2:
            r.failed = 1
            r.errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
            return
        r.learn_calls = 1

        def checks():
            fields = dict(kv.split("=", 1) for kv in stderr.split() if "=" in kv)
            check.require(fields.get("status") == "max_iterations", f"status line {stderr!r}")
            rows = self.paths["trace"].read_text(encoding="utf-8").splitlines()[1:]
            objectives = [float(row.split(",")[1]) for row in rows]
            r.outer_passes = len(objectives) - 1
            check.require(r.outer_passes == self.PASSES, f"{r.outer_passes} passes, not {self.PASSES}")
            check.require(check.monotone(objectives), "trace increases")
            p = gen.read_probabilities(self.paths["out"].read_text(encoding="utf-8"))
            check.require(len(p) == self.N_TUPLES, f"{len(p)} probabilities written")
            recomputed = check.mse(self.label_set.labels, self.label_set.targets, p)
            check.require(check.close(recomputed, objectives[-1], 1e-9),
                          f"mse {recomputed!r} by enumeration, trace says {objectives[-1]!r}")
            check.require(check.close(recomputed, float(fields["best"]), 1e-5),
                          f"mse {recomputed!r} by enumeration, status says {fields['best']}")
            r.extra["final_mse"] = recomputed
            r.probabilities.append({tid(i): v for i, v in p.items()})

        _checked(r, checks)

    def formulas(self) -> list:
        return [lab.formula for lab in instance(self.label_set, range(self.N_TUPLES))[1]]

    def ground_replay(self) -> tuple:
        """Load the tuples, parse the rules and ground them, timing each step."""
        p = self.paths
        start = clock()
        db = pdb_io.load_tuples(p["tuples"])
        t_tuples = clock()
        program = pdb_io.load_rules(p["rules"])
        t_parse = clock()
        derived = datalog.index_derived(datalog.ground(program, db))
        t_ground = clock()
        ground_ms = (t_ground - t_parse) * 1000.0
        figures = {
            "io.load_tuples_ms": (t_tuples - start) * 1000.0,
            "datalog.parse_ms": (t_parse - t_tuples) * 1000.0,
            "datalog.ground_ms": ground_ms,
            "datalog.ground_us_per_rule": ground_ms * 1000.0 / len(program.rules),
            "datalog.derived_tuples": len(derived),
        }
        return figures, db, derived

    def io_replay(self, probabilities: list) -> dict:
        out, db, derived = self.ground_replay()
        start = clock()
        pdb_io.load_labels(self.paths["labels"], db, derived=derived)
        mid = clock()
        pdb_io.save_probabilities(probabilities[-1], self.workdir / "replay_probabilities.tsv")
        out["io.load_labels_ms"] = (mid - start) * 1000.0
        out["io.save_probabilities_ms"] = (clock() - mid) * 1000.0
        return out

    def label_sets(self) -> list:
        return [self.label_set]

    def describe(self) -> dict:
        return {
            "labels": self.N_LABELS, "tuples": self.N_TUPLES, "rules": 2 * self.N_LABELS,
            "components": gen.components(self.label_set.labels), "passes": self.PASSES,
            "threads": self.THREADS,
        }


class SrlLearn(Workload):
    """In-process fixed-pass ``learn`` on 10,000 SRL labels, at 1 and 2 workers."""

    name = "srl-learn"
    op_figures = ("learn_t1_s", "learn_t2_s")
    N_LABELS, N_TUPLES, BLOCKS, PASSES = 10_000, 1_000, 4, 12

    def setup(self) -> None:
        rng_inputs, rng_learn = gen.streams(self.seed, 2)
        self.label_set = gen.srl_labels(rng_inputs, self.N_LABELS, self.N_TUPLES, self.BLOCKS)
        self.learner_seed = int(rng_learn.integers(2**31))
        db, self.labels = instance(self.label_set, range(self.N_TUPLES))
        self.problem = LearningProblem(db, self.labels)

    def run_round(self) -> Round:
        r = Round()
        results = []
        for threads in (1, 2):
            cfg = LearnerConfig(
                eps_abs=0.0, eps_rel=0.0, max_outer_iterations=self.PASSES,
                seed=self.learner_seed, threads=threads,
            )
            start = start_op()
            try:
                results.append(learning.learn(self.problem, cfg))
            except Exception as exc:  # an operation that fails is counted, not fatal
                r.failed += 1
                r.errors.append(f"threads={threads}: {type(exc).__name__}: {exc}")
            r.op_s.append(clock() - start)
        if r.failed:
            return r
        r.learn_calls = len(results)
        r.outer_passes = sum(res.iterations for res in results)
        r.probabilities = [res.probabilities for res in results]

        def checks():
            one, two = results
            check.require(check.same_results(one, two),
                          f"results differ at 1 and 2 workers: best {one.best!r} vs {two.best!r}")
            for res in results:
                check.require(res.iterations == self.PASSES, f"{res.iterations} passes")
                check.require(check.monotone([row[1] for row in res.trace]), "trace increases")
            recomputed = check.mse(self.label_set.labels, self.label_set.targets, by_index(one.probabilities))
            check.require(check.close(recomputed, one.best, 1e-9),
                          f"mse {recomputed!r} by enumeration, learn says {one.best!r}")
            r.extra["final_mse"] = recomputed

        _checked(r, checks)
        return r

    def formulas(self) -> list:
        return [lab.formula for lab in self.labels]

    def io_replay(self, probabilities: list) -> dict:
        return self._replay_files([self.label_set], probabilities[-1:])

    def label_sets(self) -> list:
        return [self.label_set]

    def layer_figures(self, tracer) -> dict:
        out = {}
        for infix, call in zip(("t1", "t2"), tracer.learn_calls):
            for key, value in learning_metrics([call], tracer).items():
                out[f"learning.{infix}.{key}"] = value
        return out

    def describe(self) -> dict:
        return {
            "labels": self.N_LABELS, "tuples": self.N_TUPLES,
            "components": gen.components(self.label_set.labels), "passes": self.PASSES,
            "threads": [1, 2],
        }


class SatRestarts(Workload):
    """``solve_3sat`` at its default restarts and pass cap on planted 3-CNFs."""

    name = "sat-restarts"
    N_INSTANCES, N_VARS, N_CLAUSES = 40, 8, 15

    def setup(self) -> None:
        rng_inputs, rng_solve = gen.streams(self.seed, 2)
        self.instances = [
            gen.planted_3cnf(rng_inputs, self.N_VARS, self.N_CLAUSES) for _ in range(self.N_INSTANCES)
        ]
        self.solve_seeds = [int(x) for x in rng_solve.integers(2**31, size=self.N_INSTANCES)]

    def run_round(self) -> Round:
        r = Round()
        solved = []
        passes = []  # iterations of every restart, solving or not
        with spans.patched_learn(counting(passes)):
            for clauses, seed in zip(self.instances, self.solve_seeds):
                start = start_op()
                try:
                    res = applications.solve_3sat(clauses, self.N_VARS, seed=seed)
                except Exception as exc:  # an operation that fails is counted, not fatal
                    r.failed += 1
                    r.errors.append(f"{type(exc).__name__}: {exc}")
                else:
                    solved.append((clauses, res))
                r.op_s.append(clock() - start)
        r.learn_calls = len(passes)
        r.outer_passes = sum(passes)
        r.extra["restarts_used"] = sum(res.restarts_used for _, res in solved)
        r.probabilities = [res.result.probabilities for _, res in solved]

        def checks():
            check.require(r.failed or r.learn_calls == r.extra["restarts_used"],
                          f"{r.learn_calls} learn calls for {r.extra['restarts_used']} restarts")
            for k, (clauses, res) in enumerate(solved):
                # an instance left unsolved at the default restarts is a wrong result
                check.require(check.satisfies(clauses, res.assignment),
                              f"instance {k}: assignment falsifies a clause "
                              f"after {res.restarts_used} restarts")
                check.require(res.satisfied and res.mse <= 1e-6, f"instance {k}: mse {res.mse!r}")
                check.require(check.monotone([row[1] for row in res.result.trace]),
                              f"instance {k}: trace increases")

        _checked(r, checks)
        return r

    def formulas(self) -> list:
        out = []
        for clauses in self.instances:
            out += [lab.formula for lab in applications.encode_3sat(clauses, self.N_VARS)[1]]
            if len(out) >= PROBE_FORMULAS:
                break
        return out

    def label_sets(self) -> list:
        return [gen.sat_label_set(c, self.N_VARS) for c in self.instances]

    def io_replay(self, probabilities: list) -> dict:
        return self._replay_files(self.label_sets(), probabilities)

    def describe(self) -> dict:
        comps = [gen.components(gen.sat_label_set(c, self.N_VARS).labels) for c in self.instances]
        defaults = inspect.signature(applications.solve_3sat).parameters
        return {
            "instances": self.N_INSTANCES, "vars": self.N_VARS, "clauses": self.N_CLAUSES,
            "restarts": defaults["restarts"].default,
            "passes_per_restart": defaults["max_outer_iterations"].default,
            "components": sorted(set(comps)),
        }


class LogicalConj(Workload):
    """``learn`` with the logical objective, to certainty, on conjunction sets."""

    name = "logical-conj"
    SIZES, N_TUPLES, CERTAINTY = (10, 11, 12, 13, 14, 15), 16, 1e-6

    def setup(self) -> None:
        rng_inputs, rng_learn = gen.streams(self.seed, 2)
        self.conjunction_sets = [gen.conjunction_set(rng_inputs, n, self.N_TUPLES) for n in self.SIZES]
        self.learner_seeds = [int(x) for x in rng_learn.integers(2**31, size=len(self.SIZES))]
        built = [instance(ls, range(self.N_TUPLES)) for ls in self.conjunction_sets]
        self.labels = [labels for _, labels in built]
        self.problems = [LearningProblem(db, labels) for db, labels in built]

    def run_round(self) -> Round:
        r = Round()
        done = []
        for label_set, problem, seed in zip(self.conjunction_sets, self.problems, self.learner_seeds):
            cfg = LearnerConfig(objective="logical", eps_abs=self.CERTAINTY, eps_rel=0.0, seed=seed)
            start = start_op()
            try:
                done.append((label_set, learning.learn(problem, cfg)))
            except Exception as exc:  # an operation that fails is counted, not fatal
                r.failed += 1
                r.errors.append(f"{type(exc).__name__}: {exc}")
            r.op_s.append(clock() - start)
        r.learn_calls = len(done)
        r.outer_passes = sum(res.iterations for _, res in done)
        r.probabilities = [res.probabilities for _, res in done]

        def checks():
            lowest = 1.0
            for k, (ls, res) in enumerate(done):
                check.require(res.status == "eps_abs", f"set {k}: status {res.status}")
                certainty = check.conjunction_probability(ls.labels, ls.targets, by_index(res.probabilities))
                check.require(certainty >= 1.0 - self.CERTAINTY, f"set {k}: certainty {certainty!r}")
                check.require(check.close(certainty, res.best, 1e-9),
                              f"set {k}: {certainty!r} by enumeration, learn says {res.best!r}")
                check.require(check.monotone([row[1] for row in res.trace], increasing=True),
                              f"set {k}: trace decreases")
                lowest = min(lowest, certainty)
            r.extra["min_certainty"] = lowest

        _checked(r, checks)
        return r

    def formulas(self) -> list:
        return [learning.logical_conjunction(labs) for labs in self.labels]

    def label_sets(self) -> list:
        return self.conjunction_sets

    def io_replay(self, probabilities: list) -> dict:
        return self._replay_files(self.conjunction_sets, probabilities)

    def describe(self) -> dict:
        return {
            "sets": len(self.SIZES), "labels_per_set": list(self.SIZES), "tuples": self.N_TUPLES,
            "components": [gen.components(ls.labels) for ls in self.conjunction_sets],
            "certainty": 1.0 - self.CERTAINTY,
        }


WORKLOADS = {w.name: w for w in (SrlCli, SrlLearn, SatRestarts, LogicalConj)}


# --- layer probes that do not depend on spans -----------------------------------


def counting(passes: list):
    """A ``spans.patched_learn`` wrapper that appends each call's pass count."""

    def wrap(fn):
        def learn(*args, **kwargs):
            res = fn(*args, **kwargs)
            passes.append(res.iterations)
            return res

        return learn

    return wrap


def datalog_probe(seed: int, workdir: Path) -> dict:
    """Parse and ground the ``srl-cli`` rules of this seed, for workloads that do not ground."""
    workdir.mkdir(exist_ok=True)
    probe = SrlCli(seed, workdir)
    probe.setup()
    figures, _, _ = probe.ground_replay()
    return {k: v for k, v in figures.items() if k.startswith("datalog.")}


def applications_probe(seed: int, instances: int = 10) -> dict:
    """Encode and solve the first ``sat-restarts`` instances of this seed, timing each."""
    sat = SatRestarts(seed, None)
    sat.setup()
    encode_ms, solve_ms = [], []
    restarts = 0
    for clauses, solve_seed in list(zip(sat.instances, sat.solve_seeds))[:instances]:
        start = clock()
        applications.encode_3sat(clauses, sat.N_VARS)
        mid = clock()
        restarts += applications.solve_3sat(clauses, sat.N_VARS, seed=solve_seed).restarts_used
        end = clock()
        encode_ms.append((mid - start) * 1000.0)
        solve_ms.append((end - mid) * 1000.0)
    return {
        "applications.encode_ms": statistics.median(encode_ms),
        "applications.solve_ms": statistics.median(solve_ms),
        "applications.restart_ms": sum(solve_ms) / restarts,
    }


def inference_probe(formulas, seed: int) -> dict:
    """Compile and evaluate each formula once, timing every step."""
    formulas = formulas[:PROBE_FORMULAS]
    rng = np.random.default_rng(seed)
    ids = sorted(set().union(*(lineage.tuple_set(f) for f in formulas)))
    p = {t: 0.05 + 0.9 * float(x) for t, x in zip(ids, rng.random(len(ids)))}
    compile_us, eval_us, exact_us, deriv_us = [], [], [], []
    for f in formulas:
        start = clock()
        fn = inference.compile_probability(f)
        t1 = clock()
        fn(p)
        t2 = clock()
        inference.prob_exact(f, p)
        t3 = clock()
        inference.derivative(f, min(lineage.tuple_set(f)), p)
        t4 = clock()
        compile_us.append((t1 - start) * 1e6)
        eval_us.append((t2 - t1) * 1e6)
        exact_us.append((t3 - t2) * 1e6)
        deriv_us.append((t4 - t3) * 1e6)
    return {
        "inference.compile_ms": sum(compile_us) / 1000.0,
        "inference.compile_us": statistics.median(compile_us),
        "inference.eval_us": statistics.median(eval_us),
        "inference.prob_exact_us": statistics.median(exact_us),
        "inference.derivative_us": statistics.median(deriv_us),
        "inference.probed_formulas": len(formulas),
    }


def lineage_probe(workload: Workload) -> float:
    """Milliseconds to build the workload's label formulas with the constructors."""
    sets = workload.label_sets()
    start = clock()
    for label_set in sets:
        instance(label_set, gen.tuple_ids(label_set))
    return (clock() - start) * 1000.0


def cli_startup_ms(repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = clock()
        subprocess.run(
            [sys.executable, "-m", "pdblearn", "--help"],
            env=program_env(), capture_output=True, check=True, timeout=60,
        )
        times.append((clock() - start) * 1000.0)
    return statistics.median(times)


def learning_metrics(calls, tracer) -> dict:
    """Phase times from ``LearnResult.trace`` of the given (span, result) pairs."""
    init, first, later, finish = [], [], [], []
    accepted = base = 0
    for span, res in calls:
        trace = res.trace
        init.append(trace[0][2])
        if len(trace) > 1:
            first.append(trace[1][2] - trace[0][2])
        later += [b[2] - a[2] for a, b in zip(trace[1:], trace[2:])]
        finish.append(tracer.duration_ms(span) - trace[-1][2])
        accepted += len(res.accepted or ())
        base += res.iterations * len(res.probabilities)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    return {
        "init_ms": med(init),
        "first_pass_ms": med(first),
        "pass_ms": med(later),
        "finish_ms": med(finish),
        "accepted_steps": accepted,
        "accept_ratio": accepted / base if base else 0.0,
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0
