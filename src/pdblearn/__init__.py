"""Probabilistic databases with learnable tuple probabilities.

The package grounds deduction rules over a tuple-independent probabilistic
database into Boolean lineage formulas, computes exact marginal probabilities
by formula decomposition, and estimates unknown base-tuple probabilities from
probability-labeled formulas by stochastic gradient descent.
"""

from .database import ProbabilisticDatabase
from .datalog import (
    Comparison,
    DeductionProgram,
    DeductionRule,
    DerivedTuple,
    Literal,
    Variable,
    format_program,
    format_rule,
    ground,
    index_derived,
    parse_program,
    parse_rule,
)
from .errors import (
    ArityError,
    ComparisonTypeError,
    CyclicProgramError,
    DanglingReferenceError,
    FormulaTooLargeError,
    InconsistentConstraintsError,
    IntractableFormulaError,
    MissingProbabilityError,
    NoEvidenceError,
    NonBooleanLabelError,
    ParseError,
    PdbError,
    SafetyError,
    UnknownRelationError,
)
from .inference import (
    compile_probability,
    derivative,
    prob_bruteforce,
    prob_exact,
)
from .learning import (
    Label,
    LearnerConfig,
    LearningProblem,
    LearnResult,
    expit,
    learn,
    logical_conjunction,
    logical_objective,
    logit,
    mse,
    mse_gradient,
    prior_augment,
)
from .lineage import (
    FALSE,
    TRUE,
    And,
    Constant,
    LineageFormula,
    Not,
    Or,
    TupleId,
    Var,
    evaluate,
    format_formula,
    parse_formula,
    substitute,
    tuple_set,
)
from .bench import BenchCell, format_bench, run_bench, save_bench
from .io import (
    Instance,
    expand_derived,
    load_instance,
    load_labels,
    load_probabilities,
    load_rules,
    load_tuples,
    probabilities_text,
    save_label_refs,
    save_labels,
    save_probabilities,
    save_rules,
    save_tuples,
    tuples_text,
    write_trace,
)
from .applications import (
    CleanResult,
    ConditionResult,
    IncompleteReduction,
    RecoverResult,
    SatResult,
    condition,
    derive_from_incomplete,
    encode_3sat,
    recover_missing,
    satisfies,
    solve_3sat,
    update_clean,
)
from .generators import SrlInstance, gen_synthetic_srl, random_3sat

__version__ = "0.1.0"
