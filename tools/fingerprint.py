"""Print every learned value of a fixed set of runs as ``float.hex``.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tools/fingerprint.py > after.txt
    PYTHONHASHSEED=0 PYTHONPATH=../parent/src python3 tools/fingerprint.py > before.txt
    diff before.txt after.txt

Two source trees that learn bit-identical values print identical text.  The
script takes no options and uses only long-standing public API, so it runs
against an older ``src`` through ``PYTHONPATH`` as it is.  It covers:

* 12-pass ``learn`` on ``gen_synthetic_srl(10000, n_tuples=1000, blocks=4)``
  with each optimizer at threads 1, 2 and 4 (the calling process and three
  workers);
* 12-pass ``learn`` with each optimizer at threads 1 and 2 on the labels of
  ``gen_synthetic_srl(2000, n_tuples=200, blocks=2)``, each rebuilt with
  ``parse_formula(format_formula(...))``, so every literal arrives with a
  ``TupleId`` object of its own;
* mse and logical ``learn`` with each optimizer on three encoded
  8-variable, 15-clause 3SAT instances, run to ``eps_abs`` or 150 passes,
  and ``condition`` on each instance's label formulas;
* ``solve_3sat`` on 15 seeded 8-variable, 15-clause CNFs;
* mse and logical ``learn`` with each optimizer at threads 1 and 2, and one
  ``update_clean`` with a prior, on two seeded instances in which every third
  tuple is fixed, every fifth label mentions fixed tuples only and one label
  mentions no tuple: the labels that no learnable tuple touches;
* mse and logical ``learn`` with each optimizer at threads 1 and 2 on labels
  such as ``a & (b | !c) & !d`` and ``!a | b & c``, whose conjunctions and
  disjunctions mix literals with compound children;
* ``compile_probability`` on 200 seeded random formulas over eight tuples,
  whose decompositions hold Shannon expansions, disjoint disjunctions and
  leaves read both inside and outside a product of literals, each evaluated
  at maps with probabilities near 0 and 1;
* ``ground`` on ``demos/data``'s tuples and rules, on the rules of
  ``gen_synthetic_srl(2000, n_tuples=200, blocks=2)``, and on small programs
  with negation over a derived relation, a comparison, a variable repeated
  inside a literal (``e(X, X)``), and the constants ``1`` and ``"1"``;
* ``random_3sat`` on a few seeded sizes, some of whose first draws are
  unsatisfiable, and one size whose draws all are, so it raises
  ``InconsistentConstraintsError``;
* ``gen_synthetic_srl(12, seed=3, n_tuples=24, blocks=2)``;
* ``derive_from_incomplete`` on a small table of three-field rows, and
  ``recover_missing`` on a small database with fixed and missing tuples.

For each run it prints the status, the iteration count, ``best``, the trace
objectives, the accepted objective parts (``record_accepted=True``; not
exposed by ``solve_3sat``) and the learned probabilities in sorted tuple
order, for each compiled formula its text and its values, and for each
derived tuple its name and its lineage's text, for each ``random_3sat``
call its clauses or its error's text, for the generated SRL instance
its rules text and label references, for each ``condition`` call the
constraint probability, the restarts used, the mse and the learned
probabilities, and for ``derive_from_incomplete`` each row's completions.
It takes about half a minute (30 s) on a 2-CPU host.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from pdblearn import (
    TRUE,
    And,
    InconsistentConstraintsError,
    Label,
    LearnerConfig,
    LearningProblem,
    Not,
    Or,
    ProbabilisticDatabase,
    TupleId,
    Var,
    compile_probability,
    condition,
    derive_from_incomplete,
    encode_3sat,
    format_formula,
    gen_synthetic_srl,
    ground,
    learn,
    load_rules,
    load_tuples,
    parse_formula,
    parse_program,
    prob_exact,
    random_3sat,
    recover_missing,
    solve_3sat,
    update_clean,
)

OPTIMIZERS = ("sgd-per-tuple", "sgd-single", "gd")
DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

# rules over small_db(); the constants 1 and "1" differ
SMALL_PROGRAMS = (
    "f(X) :- n(X), m(X).\ng(X) :- n(X), !f(X).\nh(X,Y) :- g(X), e(X,Y), !f(Y).",
    "lt(X,Y) :- w(X,S), w(Y,T), S < T.\nge(X) :- w(X,S), S >= 10, !lt(X,X).",
    "loop(X) :- e(X,X).\nback(X,Y) :- e(X,Y), e(Y,X).",
    'i(X) :- e(X,1).\ns(X) :- e(X,"1").\nk(Y) :- e(1,Y).\nb(X) :- e(X,1), e(X,"1").',
)


def show(name, result):
    print(f"== {name}")
    print(f"status {result.status} iterations {result.iterations}")
    print(f"best {float(result.best).hex()}")
    print("trace", " ".join(float(value).hex() for _, value, _ in result.trace))
    if result.accepted is not None:
        print(f"accepted {len(result.accepted)}")
        for value in result.accepted:
            print(float(value).hex())
    for t in sorted(result.probabilities):
        print(t, float(result.probabilities[t]).hex())


def srl_runs(name, problem, threads):
    for optimizer in OPTIMIZERS:
        for n in threads:
            cfg = LearnerConfig(
                optimizer=optimizer,
                eps_abs=0.0,
                eps_rel=0.0,
                max_outer_iterations=12,
                threads=n,
                record_accepted=True,
            )
            show(f"{name} {optimizer} threads={n}", learn(problem, cfg))


def with_fixed_tuples(seed, boolean, estimates=False):
    """Labels over blocks of six tuples, where every third tuple is fixed.

    Every fifth label mentions the fixed tuples of one block only; the last
    block gets no other label, so a logical group there has no learnable
    tuple.  Boolean targets are read off one hidden world, so the logical
    conjunction stays satisfiable.  ``estimates`` gives the learnable tuples
    a current probability, which ``update_clean`` uses as the prior.
    """
    n_blocks, block = 10, 6
    rng = np.random.default_rng(seed)
    ids = [TupleId.synthetic(k) for k in range(n_blocks * block)]
    db = ProbabilisticDatabase()
    for k, t in enumerate(ids):
        if k % 3 == 0:
            db.add(t, float(rng.random()))
        elif estimates:
            db.add(t, float(rng.random()), learnable=True)
        else:
            db.add(t)
    world = {t: float(rng.random() < 0.5) for t in ids}
    labels = []
    for j in range(6 * n_blocks):
        if j % 5 == 0:
            first = (j // 5) % n_blocks * block
            pool = ids[first : first + block : 3]
        else:
            first = int(rng.integers(n_blocks - 1)) * block
            pool = ids[first : first + block]
        a, b, c, d = (pool[int(k)] for k in rng.integers(len(pool), size=4))
        formula = Or(And(Var(a), Var(b)), And(Var(c), Not(Var(d))))
        target = prob_exact(formula, world) if boolean else float(rng.random())
        labels.append(Label(formula, target))
    labels.append(Label(TRUE, 1.0 if boolean else 0.75))
    learnable = [t for k, t in enumerate(ids) if k % 3 != 0]
    return db, tuple(labels), learnable


def mixed_children(seed):
    """Labels whose conjunctions and disjunctions mix literals and compound children.

    Each label takes four distinct tuples of one block of eight, out of five
    blocks, as ``a & (b | !c) & !d`` or ``!a | b & c``.  Boolean targets are
    read off one hidden world, so the logical conjunction stays satisfiable.
    """
    n_blocks, block = 5, 8
    rng = np.random.default_rng(seed)
    ids = [TupleId.synthetic(k) for k in range(n_blocks * block)]
    db = ProbabilisticDatabase()
    for t in ids:
        db.add(t)
    world = {t: float(rng.random() < 0.5) for t in ids}
    labels = []
    for j in range(12 * n_blocks):
        first = int(rng.integers(n_blocks)) * block
        picks = rng.choice(block, size=4, replace=False)
        a, b, c, d = (Var(ids[first + int(k)]) for k in picks)
        if j % 2:
            formula = Or(Not(a), And(b, c))
        else:
            formula = And(a, Or(b, Not(c)), Not(d))
        labels.append(Label(formula, prob_exact(formula, world)))
    return db, tuple(labels)


def random_formulas(seed, count):
    """Seeded nested conjunctions and disjunctions of literals over eight tuples.

    Children share tuples, so deciding them takes Shannon expansions, and
    terms such as ``x & ...`` and ``!x & ...`` make disjoint disjunctions.
    """
    rng = np.random.default_rng(seed)
    ids = [TupleId.synthetic(k) for k in range(8)]

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            x = Var(ids[int(rng.integers(len(ids)))])
            return Not(x) if rng.random() < 0.4 else x
        parts = [formula(depth - 1) for _ in range(int(rng.integers(2, 4)))]
        return And(*parts) if rng.random() < 0.5 else Or(*parts)

    return [formula(3) for _ in range(count)], ids


def compiled_values(seed):
    formulas, ids = random_formulas(seed, 200)
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(4):
        near = rng.random(len(ids)) ** 8  # near 0, and below near 1
        maps.append({t: float(1.0 - x if rng.random() < 0.5 else x) for t, x in zip(ids, near)})
    print("== compile_probability")
    for phi in formulas:
        f = compile_probability(phi)
        print(format_formula(phi), *(f(p).hex() for p in maps))


def show_ground(name, program, db):
    print(f"== ground {name}")
    for d in ground(program, db):
        print(d, format_formula(d.lineage))


def small_db():
    db = ProbabilisticDatabase()
    for key in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (1, "1"), ("1", 1), (2, "1")):
        db.add(TupleId("e", key), 0.5)
    for x in (1, 2, 3):
        db.add(TupleId("n", (x,)), 0.5)
        db.add(TupleId("w", (x, 5 * x + 3)), 0.5)
    db.add(TupleId("m", (2,)), 0.5)
    return db


def grounding():
    demo_db = load_tuples(DEMO_DATA / "tuples.tsv")
    show_ground("demos/data", load_rules(DEMO_DATA / "rules.dl"), demo_db)
    srl = gen_synthetic_srl(2000, n_tuples=200, blocks=2)
    show_ground("srl", parse_program(srl.rules), srl.db)
    db = small_db()
    for k, text in enumerate(SMALL_PROGRAMS):
        show_ground(f"small {k}", parse_program(text), db)


# (n_vars, n_clauses, seed, max_tries): seeds 0 and 3 at (20, 85), seed 3
# at (5, 20) and (3, 40) reject draws first; no draw at (3, 300) is satisfiable
CNF_CASES = (
    (3, 40, 0, 1000),
    (8, 15, 0, 1000),
    (8, 15, 7, 1000),
    (5, 20, 3, 1000),
    (12, 60, 1, 1000),
    (20, 85, 0, 1000),
    (20, 85, 3, 1000),
    (5, 0, 0, 1000),
    (3, 300, 0, 20),
)


def generated():
    print("== random_3sat")
    for n_vars, n_clauses, seed, tries in CNF_CASES:
        try:
            result = random_3sat(n_vars, n_clauses, seed=seed, max_tries=tries)
        except InconsistentConstraintsError as exc:
            result = f"InconsistentConstraintsError: {exc}"
        print(n_vars, n_clauses, seed, tries, result)
    srl = gen_synthetic_srl(12, seed=3, n_tuples=24, blocks=2)
    print("== gen_synthetic_srl rules")
    print(srl.rules, end="")
    print("== gen_synthetic_srl label refs")
    for name, target in srl.label_refs:
        print(name, float(target).hex())


def show_condition(name, res):
    print(f"== {name}")
    print(f"constraint_probability {float(res.constraint_probability).hex()}")
    print(f"restarts_used {res.restarts_used} mse {float(res.mse).hex()}")
    for t in sorted(res.probabilities):
        print(t, float(res.probabilities[t]).hex())


# rows of (group, kind, size); None marks an unknown field
COMPLETE_ROWS = (
    (1, "a", "x"), (1, "a", "y"), (1, "b", "x"), (1, "a", "x"),
    (2, "b", "y"), (2, "b", "y"), (2, "c", "x"), (3, "a", "z"),
)
INCOMPLETE_ROWS = ((1, None, None), (2, "b", None), (None, "a", None), (3, None, "z"))


def applications():
    reduction = derive_from_incomplete(COMPLETE_ROWS, INCOMPLETE_ROWS)
    print("== derive_from_incomplete completions")
    for row, completions in zip(INCOMPLETE_ROWS, reduction.completions):
        print(row, *(f"{args}={float(p).hex()}" for args, p in sorted(completions.items())))
    show("derive_from_incomplete", reduction.result)

    db = ProbabilisticDatabase()
    e = {key: TupleId("e", key) for key in ((1, 2), (2, 3), (1, 3), (3, 4), (2, 4))}
    for key, p in (((1, 2), 0.9), ((3, 4), 0.4)):
        db.add(e[key], p)
    for key in ((2, 3), (1, 3), (2, 4)):
        db.add(e[key])
    x = {key: Var(t) for key, t in e.items()}
    observations = (
        Or(And(x[1, 2], x[2, 3]), x[1, 3]),
        Or(And(x[1, 3], x[3, 4]), And(x[1, 2], x[2, 4])),
        And(x[1, 2], Not(x[2, 4])),
    )
    cfg = LearnerConfig(eps_rel=0.0, max_outer_iterations=60)
    show("recover_missing", recover_missing(db, observations, cfg).result)


def main():
    srl = gen_synthetic_srl(10000, n_tuples=1000, blocks=4)
    srl_runs("srl", LearningProblem(srl.db, srl.labels), (1, 2, 4))

    srl = gen_synthetic_srl(2000, n_tuples=200, blocks=2)
    parsed = tuple(
        Label(parse_formula(format_formula(lab.formula)), lab.target, lab.weight)
        for lab in srl.labels
    )
    srl_runs("parsed srl", LearningProblem(srl.db, parsed), (1, 2))

    for seed in range(3):
        db, labels = encode_3sat(random_3sat(8, 15, seed=seed), 8)
        problem = LearningProblem(db, labels)
        for objective in ("mse", "logical"):
            for optimizer in OPTIMIZERS:
                cfg = LearnerConfig(
                    objective=objective,
                    optimizer=optimizer,
                    eps_rel=0.0,
                    max_outer_iterations=150,
                    seed=seed,
                    record_accepted=True,
                )
                show(f"3sat seed={seed} {objective} {optimizer}", learn(problem, cfg))
        constraints = [lab.formula for lab in labels]
        show_condition(f"condition 3sat seed={seed}", condition(db, constraints, seed=seed))

    for seed in range(15):
        sat = solve_3sat(random_3sat(8, 15, seed=100 + seed), 8, seed=seed)
        assignment = "".join("1" if sat.assignment[i] else "0" for i in range(1, 9))
        print(f"== solve_3sat seed={seed}")
        print(f"assignment {assignment} satisfied {sat.satisfied}")
        print(f"mse {float(sat.mse).hex()} restarts_used {sat.restarts_used}")
        show(f"solve_3sat seed={seed} best run", sat.result)

    for seed in range(2):
        for objective in ("mse", "logical"):
            db, labels, _ = with_fixed_tuples(seed, objective == "logical")
            problem = LearningProblem(db, labels)
            for optimizer in OPTIMIZERS:
                for threads in (1, 2):
                    cfg = LearnerConfig(
                        objective=objective,
                        optimizer=optimizer,
                        eps_rel=0.0,
                        max_outer_iterations=60,
                        seed=seed,
                        threads=threads,
                        record_accepted=True,
                    )
                    name = f"fixed seed={seed} {objective} {optimizer} threads={threads}"
                    show(name, learn(problem, cfg))

    db, labels = mixed_children(3)
    problem = LearningProblem(db, labels)
    for objective in ("mse", "logical"):
        for optimizer in OPTIMIZERS:
            for threads in (1, 2):
                cfg = LearnerConfig(
                    objective=objective,
                    optimizer=optimizer,
                    eps_rel=0.0,
                    max_outer_iterations=60,
                    threads=threads,
                    record_accepted=True,
                )
                name = f"mixed {objective} {optimizer} threads={threads}"
                show(name, learn(problem, cfg))

    db, labels, learnable = with_fixed_tuples(2, False, estimates=True)
    cfg = LearnerConfig(eps_rel=0.0, max_outer_iterations=60, record_accepted=True)
    clean = update_clean(db, labels, learnable=learnable, cfg=cfg)
    print("deletions", " ".join(str(t) for t in clean.deletions))
    print("certain", " ".join(str(t) for t in clean.certain))
    show("update_clean with a prior", clean.result)

    compiled_values(5)
    grounding()
    generated()
    applications()


if __name__ == "__main__":
    main()
