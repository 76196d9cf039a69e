"""Print every learned value of a fixed set of runs as ``float.hex``.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tools/fingerprint.py > after.txt
    PYTHONHASHSEED=0 PYTHONPATH=../parent/src python3 tools/fingerprint.py > before.txt
    diff before.txt after.txt

Two source trees that learn bit-identical values print identical text.  The
script takes no options and uses only long-standing public API, so it runs
against an older ``src`` through ``PYTHONPATH`` as it is.  It covers:

* 12-pass ``learn`` on ``gen_synthetic_srl(10000, n_tuples=1000, blocks=4)``
  with each optimizer at threads 1 and 2;
* mse and logical ``learn`` with each optimizer on three encoded
  8-variable, 15-clause 3SAT instances, run to ``eps_abs`` or 150 passes;
* ``solve_3sat`` on 15 seeded 8-variable, 15-clause CNFs.

For each run it prints the status, the iteration count, ``best``, the trace
objectives, the accepted objective parts (``record_accepted=True``; not
exposed by ``solve_3sat``) and the learned probabilities in sorted tuple
order.  It takes about a minute on a 2-CPU host.
"""

from __future__ import annotations

from pdblearn import (
    LearnerConfig,
    LearningProblem,
    encode_3sat,
    gen_synthetic_srl,
    learn,
    random_3sat,
    solve_3sat,
)

OPTIMIZERS = ("sgd-per-tuple", "sgd-single", "gd")


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


def main():
    srl = gen_synthetic_srl(10000, n_tuples=1000, blocks=4)
    problem = LearningProblem(srl.db, srl.labels)
    for optimizer in OPTIMIZERS:
        for threads in (1, 2):
            cfg = LearnerConfig(
                optimizer=optimizer,
                eps_abs=0.0,
                eps_rel=0.0,
                max_outer_iterations=12,
                threads=threads,
                record_accepted=True,
            )
            show(f"srl {optimizer} threads={threads}", learn(problem, cfg))

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

    for seed in range(15):
        sat = solve_3sat(random_3sat(8, 15, seed=100 + seed), 8, seed=seed)
        assignment = "".join("1" if sat.assignment[i] else "0" for i in range(1, 9))
        print(f"== solve_3sat seed={seed}")
        print(f"assignment {assignment} satisfied {sat.satisfied}")
        print(f"mse {float(sat.mse).hex()} restarts_used {sat.restarts_used}")
        show(f"solve_3sat seed={seed} best run", sat.result)


if __name__ == "__main__":
    main()
