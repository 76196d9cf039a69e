"""
Conditioning a database and cleaning against evidence
=====================================================

Two maintenance operations reuse the learner.  Conditioning rewrites the
probabilities of the tuples that a set of constraint formulas mentions, so
the constraints hold almost surely; afterwards conjoining them onto any
query changes nothing, and the other tuples keep their probabilities.
Cleaning revises probabilities against trusted evidence labels, balancing
the old values as a prior, and reports tuples that collapse to impossible
or certain.
"""

import numpy as np

from pdblearn import (
    And,
    Label,
    Not,
    Or,
    ProbabilisticDatabase,
    TupleId,
    Var,
    condition,
    prob_exact,
    update_clean,
)

rng = np.random.default_rng(7)
ids = [TupleId("claim", (i,)) for i in range(5)]

db = ProbabilisticDatabase()
for t in ids:
    db.add(t, float(rng.uniform(0.2, 0.8)))

# constraint: claim 0 holds, and claims 1 and 2 never hold together
constraints = [Var(ids[0]), Not(And(Var(ids[1]), Var(ids[2])))]

before = db.probabilities()
conj = And(*constraints)
print(f"P(constraints) before: {prob_exact(conj, before):.4f}")

res = condition(db, constraints, eps_abs=1e-6, seed=1)
after = res.db.probabilities()
print(f"P(constraints) after:  {res.constraint_probability:.8f} (restarts used: {res.restarts_used})")

# conditioning made the constraints certain, so they no longer affect queries
psi = Or(Var(ids[3]), And(Var(ids[1]), Var(ids[4])))
with_constraint = prob_exact(And(psi, conj), after)
without = prob_exact(psi, after)
print(f"P(query & constraints) = {with_constraint:.8f}")
print(f"P(query)               = {without:.8f}")

# cleaning: evidence says claim 3 is false and claim 4 is true; prior_weight
# balances the labels against the stored probabilities
labels = (Label(Var(ids[3]), 0.0), Label(Var(ids[4]), 1.0))
cleaned = update_clean(db, labels, prior_weight=1.0)
print("\ncleaning against hard evidence")
print(f"  deletions: {[str(t) for t in cleaned.deletions]}")
print(f"  certain:   {[str(t) for t in cleaned.certain]}")
for t in ids:
    print(f"  {t}: {before[t]:.4f} -> {cleaned.probabilities[t]:.4f}")
