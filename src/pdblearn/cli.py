"""Command line front end.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a learning run
stops at its iteration cap without converging, 3 when constraints are
unsatisfiable.
"""

from __future__ import annotations

import argparse
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
    STATUS_MAX_ITERATIONS,
    LearnerConfig,
    LearningProblem,
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


def _add_learn_flags(p: argparse.ArgumentParser) -> None:
    d = LearnerConfig()
    p.add_argument("--eps-abs", type=float, default=d.eps_abs, help="absolute stop tolerance")
    p.add_argument("--eps-rel", type=float, default=d.eps_rel, help="relative stop tolerance")
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--objective", choices=OBJECTIVES, default=d.objective)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=d.optimizer)
    p.add_argument("--threads", type=int, default=d.threads)
    p.add_argument("--max-iterations", type=int, default=d.max_outer_iterations)
    p.add_argument("--trace", metavar="CSV", help="write the convergence trace here")


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
    unknown = tuple_set(formula) - db.tuples
    if unknown:
        print(
            f"error: unknown tuple(s) {', '.join(str(t) for t in sorted(unknown))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    print(prob_exact(formula, db.probabilities()))
    return EXIT_OK


def cmd_learn(args) -> int:
    instance = load_instance(args.tuples, args.rules, args.labels)
    problem = LearningProblem(instance.db, instance.labels)
    result = learn(problem, _learner_config(args))
    if args.trace:
        write_trace(result.trace, args.trace)
    _emit(probabilities_text(result.probabilities), args.out)
    print(
        f"status={result.status} best={result.best:.6g} iterations={result.iterations}",
        file=sys.stderr,
    )
    return EXIT_NO_CONVERGENCE if result.status == STATUS_MAX_ITERATIONS else EXIT_OK


def cmd_condition(args) -> int:
    instance = load_instance(args.tuples, args.rules, args.labels)
    bad = [lab for lab in instance.labels if lab.target != 1.0]
    if bad:
        print("error: constraint labels must all have target 1", file=sys.stderr)
        return EXIT_USAGE
    res = condition(
        instance.db,
        [lab.formula for lab in instance.labels],
        eps_abs=args.eps_abs,
        restarts=args.restarts,
        seed=args.seed,
        max_outer_iterations=args.max_iterations,
        threads=args.threads,
    )
    if args.trace:
        write_trace(res.result.trace, args.trace)
    _emit(tuples_text(res.db), args.out)
    print(
        f"constraint_probability={res.constraint_probability:.9f} "
        f"restarts={res.restarts_used}",
        file=sys.stderr,
    )
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


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
    if args.trace:
        write_trace(res.result.trace, args.trace)
    _emit(tuples_text(res.db), args.out)
    for t in res.deletions:
        print(f"delete\t{t}", file=sys.stderr)
    for t in res.certain:
        print(f"certain\t{t}", file=sys.stderr)
    return (
        EXIT_NO_CONVERGENCE
        if res.result.status == STATUS_MAX_ITERATIONS
        else EXIT_OK
    )


def cmd_bench(args) -> int:
    sizes = []
    for chunk in args.sizes.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            print("error: --sizes wants labels:tuples:blocks triples", file=sys.stderr)
            return EXIT_USAGE
        sizes.append(tuple(int(x) for x in parts))
    threads = tuple(int(x) for x in args.threads_list.split(","))
    cells = run_bench(
        sizes=sizes,
        objectives=tuple(args.objectives.split(",")),
        optimizers=tuple(args.optimizers.split(",")),
        threads=threads,
        seed=args.seed,
        max_outer_iterations=args.max_iterations,
    )
    if args.out:
        save_bench(cells, args.out)
    print(format_bench(cells))
    return EXIT_OK


def cmd_gen(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "srl":
        inst = gen_synthetic_srl(
            args.n_labels, seed=args.seed, n_tuples=args.n_tuples, blocks=args.blocks
        )
        save_tuples(inst.db, out / "tuples.tsv")
        save_rules(inst.rules, out / "rules.dl")
        save_label_refs(inst.label_refs, out / "labels.tsv")
        print(f"wrote {out}/tuples.tsv, rules.dl, labels.tsv", file=sys.stderr)
    else:
        clauses = random_3sat(args.n_vars, args.n_clauses, seed=args.seed)
        db, labels = encode_3sat(clauses, args.n_vars)
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

    p = sub.add_parser("learn", help="estimate learnable tuple probabilities")
    p.add_argument("--tuples", required=True)
    p.add_argument("--rules")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", help="write the learned probabilities here")
    _add_learn_flags(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("condition", help="enforce constraint formulas on a database")
    p.add_argument("--tuples", required=True)
    p.add_argument("--rules")
    p.add_argument("--labels", required=True, help="constraint rows, target 1")
    p.add_argument("--out", help="write the conditioned tuples here")
    p.add_argument("--eps-abs", type=float, default=1e-5)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--max-iterations", type=int, default=10000)
    p.add_argument("--trace", metavar="CSV")
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("clean", help="revise probabilities against evidence labels")
    p.add_argument("--tuples", required=True)
    p.add_argument("--rules")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", help="write the updated tuples here")
    p.add_argument("--prior-weight", type=float, default=0.5)
    p.add_argument("--zero-tol", type=float, default=1e-3)
    p.add_argument("--one-tol", type=float, default=1e-3)
    _add_learn_flags(p)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("bench", help="time the learner over generated instances")
    p.add_argument("--sizes", default="50:60:2,200:120:4", help="labels:tuples:blocks,...")
    p.add_argument("--objectives", default="mse")
    p.add_argument("--optimizers", default=",".join(OPTIMIZERS))
    p.add_argument("--threads-list", default="1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--out", help="also write the cells as CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate synthetic instances")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("srl", help="random two-clause labels over one relation")
    g.add_argument("--n-labels", type=int, required=True)
    g.add_argument("--n-tuples", type=int, default=100)
    g.add_argument("--blocks", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_gen, kind="srl")
    g = gen_sub.add_parser("3sat", help="satisfiable random CNF as an instance")
    g.add_argument("--n-vars", type=int, default=8)
    g.add_argument("--n-clauses", type=int, default=15)
    g.add_argument("--seed", type=int, default=0)
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
    except (PdbError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
