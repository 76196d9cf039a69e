"""Command line front end.

Exit codes: 0 on success, 1 on usage, input or file errors, 2 when a
learning run stops at its iteration cap without converging, 3 when
constraints are unsatisfiable.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .applications import condition, encode_3sat, update_clean
from .bench import format_bench, run_bench, save_bench
from .datalog import ground, index_derived
from .errors import InconsistentConstraintsError, PdbError
from .generators import gen_synthetic_srl, random_3sat
from .inference import prob_exact
from .io import (
    expand_derived,
    load_instance,
    load_rules,
    load_tuples,
    probabilities_text,
    save_label_refs,
    save_labels,
    save_rules,
    save_tuples,
    tuples_text,
    write_trace,
)
from .learning import (
    OBJECTIVES,
    OPTIMIZERS,
    LearnerConfig,
    LearningProblem,
    LearnResult,
    learn,
)
from .lineage import format_formula, parse_formula, tuple_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # non-convergence here, so route usage problems to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _sizes(text: str) -> tuple:
    """``--sizes`` text as (labels, tuples, blocks) int triples."""
    try:
        sizes = tuple(tuple(map(int, chunk.split(":"))) for chunk in text.split(","))
    except ValueError:
        sizes = ()
    if not sizes or any(len(size) != 3 for size in sizes):
        raise argparse.ArgumentTypeError("wants labels:tuples:blocks triples")
    return sizes


def _names(text: str) -> tuple:
    return tuple(text.split(","))


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _instance_parser(sub, name: str, help: str, out: str):
    """A subcommand that reads an instance and writes a database and a trace."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--tuples", required=True)
    p.add_argument("--rules")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", help=f"write the {out} here")
    p.add_argument("--trace", metavar="CSV", help="write the convergence trace here")
    return p


def _add_learn_flags(p: argparse.ArgumentParser) -> None:
    d = LearnerConfig()
    p.add_argument("--eps-abs", type=float, default=d.eps_abs, help="absolute stop tolerance")
    p.add_argument("--eps-rel", type=float, default=d.eps_rel, help="relative stop tolerance")
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--objective", choices=OBJECTIVES, default=d.objective)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=d.optimizer)
    p.add_argument("--threads", type=int, default=d.threads)
    p.add_argument("--max-iterations", type=int, default=d.max_outer_iterations)


def _learner_config(args) -> LearnerConfig:
    return LearnerConfig(
        objective=args.objective,
        optimizer=args.optimizer,
        eps_abs=args.eps_abs,
        eps_rel=args.eps_rel,
        seed=args.seed,
        threads=args.threads,
        max_outer_iterations=args.max_iterations,
    )


def _finish(args, result: LearnResult, text: str, notes) -> int:
    """Write the trace and ``text``, print ``notes`` to stderr, and pick the exit code."""
    if args.trace:
        write_trace(result.trace, args.trace)
    _emit(text, args.out)
    for note in notes:
        print(note, file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_ground(args) -> int:
    db = load_tuples(args.tuples)
    program = load_rules(args.rules)
    lines = [
        f"{dt}\t{format_formula(dt.lineage)}" for dt in ground(program, db)
    ]
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def cmd_prob(args) -> int:
    db = load_tuples(args.tuples)
    formula = parse_formula(args.formula)
    if args.rules:
        program = load_rules(args.rules)
        formula = expand_derived(formula, index_derived(ground(program, db)))
    db.check_tuples(tuple_set(formula), "the formula")
    print(prob_exact(formula, db.probabilities()))
    return EXIT_OK


def cmd_learn(args) -> int:
    instance = load_instance(args.tuples, args.rules, args.labels)
    result = learn(LearningProblem(instance.db, instance.labels), _learner_config(args))
    note = f"status={result.status} best={result.best:.6g} iterations={result.iterations}"
    return _finish(args, result, probabilities_text(result.probabilities), [note])


def cmd_condition(args) -> int:
    instance = load_instance(args.tuples, args.rules, args.labels)
    if any(lab.target != 1.0 for lab in instance.labels):
        raise ValueError("constraint labels must all have target 1")
    res = condition(
        instance.db,
        [lab.formula for lab in instance.labels],
        eps_abs=args.eps_abs,
        restarts=args.restarts,
        seed=args.seed,
        max_outer_iterations=args.max_iterations,
        threads=args.threads,
    )
    note = f"constraint_probability={res.constraint_probability:.9f} restarts={res.restarts_used}"
    return _finish(args, res.result, tuples_text(res.db), [note])


def cmd_clean(args) -> int:
    instance = load_instance(args.tuples, args.rules, args.labels)
    res = update_clean(
        instance.db,
        instance.labels,
        prior_weight=args.prior_weight,
        zero_tol=args.zero_tol,
        one_tol=args.one_tol,
        cfg=_learner_config(args),
    )
    notes = [f"delete\t{t}" for t in res.deletions] + [f"certain\t{t}" for t in res.certain]
    return _finish(args, res.result, tuples_text(res.db), notes)


def cmd_bench(args) -> int:
    cells = run_bench(
        sizes=args.sizes,
        objectives=args.objectives,
        optimizers=args.optimizers,
        threads=args.threads_list,
        seed=args.seed,
        max_outer_iterations=args.max_iterations,
    )
    if args.out:
        save_bench(cells, args.out)
    print(format_bench(cells))
    return EXIT_OK


def cmd_gen(args) -> int:
    out = Path(args.out_dir)
    if args.kind == "srl":
        inst = gen_synthetic_srl(
            args.n_labels, seed=args.seed, n_tuples=args.n_tuples, blocks=args.blocks
        )
        out.mkdir(parents=True, exist_ok=True)
        save_tuples(inst.db, out / "tuples.tsv")
        save_rules(inst.rules, out / "rules.dl")
        save_label_refs(inst.label_refs, out / "labels.tsv")
        print(f"wrote {out}/tuples.tsv, rules.dl, labels.tsv", file=sys.stderr)
    else:
        clauses = random_3sat(args.n_vars, args.n_clauses, seed=args.seed)
        db, labels = encode_3sat(clauses, args.n_vars)
        out.mkdir(parents=True, exist_ok=True)
        save_tuples(db, out / "tuples.tsv")
        save_labels(labels, out / "labels.tsv")
        text = "".join(" ".join(str(l) for l in c) + "\n" for c in clauses)
        (out / "clauses.txt").write_text(text, encoding="utf-8")
        print(f"wrote {out}/tuples.tsv, labels.tsv, clauses.txt", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdblearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", help="derive tuples and their lineage from rules")
    p.add_argument("--tuples", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("prob", help="exact probability of a lineage formula")
    p.add_argument("formula")
    p.add_argument("--tuples", required=True)
    p.add_argument("--rules", help="resolve derived tuple names in the formula")
    p.set_defaults(func=cmd_prob)

    p = _instance_parser(
        sub, "learn", "estimate learnable tuple probabilities", "learned probabilities"
    )
    _add_learn_flags(p)
    p.set_defaults(func=cmd_learn)

    d = inspect.signature(condition).parameters
    p = _instance_parser(
        sub,
        "condition",
        "enforce constraint labels (target 1) on a database",
        "conditioned tuples",
    )
    p.add_argument("--eps-abs", type=float, default=d["eps_abs"].default)
    p.add_argument("--restarts", type=int, default=d["restarts"].default)
    p.add_argument("--seed", type=int, default=d["seed"].default)
    p.add_argument("--threads", type=int, default=d["threads"].default)
    p.add_argument("--max-iterations", type=int, default=d["max_outer_iterations"].default)
    p.set_defaults(func=cmd_condition)

    d = inspect.signature(update_clean).parameters
    p = _instance_parser(
        sub, "clean", "revise probabilities against evidence labels", "updated tuples"
    )
    p.add_argument("--prior-weight", type=float, default=d["prior_weight"].default)
    p.add_argument("--zero-tol", type=float, default=d["zero_tol"].default)
    p.add_argument("--one-tol", type=float, default=d["one_tol"].default)
    _add_learn_flags(p)
    p.set_defaults(func=cmd_clean)

    d = inspect.signature(run_bench).parameters
    p = sub.add_parser("bench", help="time the learner over generated instances")
    p.add_argument(
        "--sizes", type=_sizes, default=d["sizes"].default, help="labels:tuples:blocks,..."
    )
    p.add_argument("--objectives", type=_names, default=d["objectives"].default)
    p.add_argument("--optimizers", type=_names, default=d["optimizers"].default)
    p.add_argument("--threads-list", type=_ints, default=d["threads"].default)
    p.add_argument("--seed", type=int, default=d["seed"].default)
    p.add_argument("--max-iterations", type=int, default=d["max_outer_iterations"].default)
    p.add_argument("--out", help="also write the cells as CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate synthetic instances")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    d = inspect.signature(gen_synthetic_srl).parameters
    g = gen_sub.add_parser("srl", help="random two-clause labels over one relation")
    g.add_argument("--n-labels", type=int, required=True)
    g.add_argument("--n-tuples", type=int, default=d["n_tuples"].default)
    g.add_argument("--blocks", type=int, default=d["blocks"].default)
    g.add_argument("--seed", type=int, default=d["seed"].default)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_gen, kind="srl")
    d = inspect.signature(random_3sat).parameters
    g = gen_sub.add_parser("3sat", help="satisfiable random CNF as an instance")
    g.add_argument("--n-vars", type=int, default=8)
    g.add_argument("--n-clauses", type=int, default=15)
    g.add_argument("--seed", type=int, default=d["seed"].default)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_gen, kind="3sat")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InconsistentConstraintsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (PdbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
