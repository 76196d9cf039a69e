"""Instance files, the benchmark harness, and the command line."""

import csv
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pdblearn
from pdblearn import (
    And,
    DanglingReferenceError,
    DeductionProgram,
    Label,
    LearnerConfig,
    LearningProblem,
    Not,
    Or,
    ParseError,
    ProbabilisticDatabase,
    TupleId,
    Var,
    condition,
    expand_derived,
    gen_synthetic_srl,
    ground,
    index_derived,
    learn,
    load_instance,
    load_labels,
    load_probabilities,
    load_rules,
    load_tuples,
    parse_program,
    parse_rule,
    prob_exact,
    random_3sat,
    run_bench,
    save_bench,
    save_label_refs,
    save_labels,
    save_probabilities,
    save_rules,
    save_tuples,
    update_clean,
    write_trace,
)
from pdblearn import bench
from pdblearn.cli import _learner_config, build_parser, main

from conftest import STORY_RULES, build_formula, recipes, story_db, tid


def v(i):
    return Var(tid(i))


STORY_TSV = """\
% extraction tuples with their confidence scores
wonPrizeExtraction\tSpielberg\tAcademyAward\t1\t1\t0.6
wonPrizeExtraction\tSpielberg\tAcademyAward\t2\t1\t0.3
bornInExtraction\tSpielberg\tCinncinati\t3\t1\t0.7
bornInExtraction\tSpielberg\tLosAngeles\t3\t2\t0.4

usingPattern\t1\tReceived\t?
usingPattern\t2\tWon\t?
usingPattern\t3\tBorn\t?
fromDomain\t1\tWikipedia.org\t?
fromDomain\t2\tImdb.com\t?
"""


class TestTuplesFiles:
    def test_round_trip(self, tmp_path):
        db, _ = story_db()
        path = tmp_path / "tuples.tsv"
        save_tuples(db, path)
        back = load_tuples(path)
        assert back.tuples == db.tuples
        assert back.learnable == db.learnable
        assert back.probabilities() == db.probabilities()

    def test_question_mark_marks_learnable(self, tmp_path):
        path = tmp_path / "tuples.tsv"
        path.write_text(STORY_TSV, encoding="utf-8")
        db = load_tuples(path)
        assert len(db.tuples) == 9
        assert db.learnable == {
            TupleId("usingPattern", (1, "Received")),
            TupleId("usingPattern", (2, "Won")),
            TupleId("usingPattern", (3, "Born")),
            TupleId("fromDomain", (1, "Wikipedia.org")),
            TupleId("fromDomain", (2, "Imdb.com")),
        }
        assert db.probability(
            TupleId("wonPrizeExtraction", ("Spielberg", "AcademyAward", 1, 1))
        ) == pytest.approx(0.6)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "tuples.tsv"
        path.write_text("t\t1\t0.5\nt\t2\tmaybe\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_tuples(path)
        assert err.value.line == 2
        path.write_text("t\t1\t1.5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_tuples(path)
        path.write_text("loner\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_tuples(path)

    def test_arguments_that_would_not_read_back_are_refused(self, tmp_path):
        # "12" would read back as the int 12; a tab or a line break would
        # split the row
        for key in (("12",), ("-3",), ("a\tb",), ("a\nb",), ("a\rb",)):
            t = TupleId("r", key)
            db = ProbabilisticDatabase()
            db.add(t, 0.5)
            with pytest.raises(ValueError) as err:
                save_tuples(db, tmp_path / "tuples.tsv")
            assert str(t) in str(err.value)
            with pytest.raises(ValueError) as err:
                save_probabilities({t: 0.5}, tmp_path / "probabilities.tsv")
            assert str(t) in str(err.value)
        db = ProbabilisticDatabase()
        t = TupleId("r", (12, "12a", "a b", ""))
        db.add(t, 0.5)
        save_tuples(db, tmp_path / "tuples.tsv")
        assert load_tuples(tmp_path / "tuples.tsv").tuples == {t}
        save_probabilities({t: 0.5}, tmp_path / "probabilities.tsv")
        assert load_probabilities(tmp_path / "probabilities.tsv") == {t: 0.5}

    def test_relations_that_would_not_read_back_are_refused(self, tmp_path):
        # a row whose text after leading whitespace starts with % is a comment
        # line; a tab or a line break in the relation would split the row
        for t in (
            TupleId("%r", (1,)),
            TupleId(" %r", (1,)),
            TupleId("", ("%a",)),
            TupleId("a\tb", (1,)),
            TupleId("a\nb", (1,)),
            TupleId("a\rb", ()),
        ):
            db = ProbabilisticDatabase()
            db.add(t, 0.5)
            with pytest.raises(ValueError) as err:
                save_tuples(db, tmp_path / "tuples.tsv")
            assert str(t) in str(err.value)
            with pytest.raises(ValueError) as err:
                save_probabilities({t: 0.5}, tmp_path / "probabilities.tsv")
            assert str(t) in str(err.value)
        db = ProbabilisticDatabase()
        kept = {TupleId("r%", (1,)), TupleId(" r", ("%a",)), TupleId("", ())}
        for t in kept:
            db.add(t, 0.5)
        save_tuples(db, tmp_path / "tuples.tsv")
        assert load_tuples(tmp_path / "tuples.tsv").tuples == kept


class TestRulesAndLabelFiles:
    def test_rules_round_trip(self, tmp_path):
        path = tmp_path / "rules.dl"
        save_rules(STORY_RULES, path)
        program = load_rules(path)
        assert program == parse_program(STORY_RULES)
        save_rules(program, tmp_path / "again.dl")
        assert load_rules(tmp_path / "again.dl") == program

    @pytest.mark.parametrize("constant", ["a\nb", "a\r\nb", "a\u2028b"])
    def test_rules_with_a_line_break_in_a_constant_are_refused(self, tmp_path, constant):
        path = tmp_path / "rules.dl"
        program = DeductionProgram((parse_rule(f'q(X) :- r(X, "{constant}").'),))
        with pytest.raises(ValueError, match=r"rule 'q\(X\) :- r\(X, "):
            save_rules(program, path)
        # a tab inside a quoted constant reads back
        program = parse_program('q(X) :- r(X, "a\tb").')
        save_rules(program, path)
        assert load_rules(path) == program

    def test_formula_labels_round_trip(self, tmp_path):
        labels = (
            Label(Or(v(1), And(v(2), Not(v(3)))), 0.7),
            Label(v(4), 0.0),
        )
        path = tmp_path / "labels.tsv"
        save_labels(labels, path)
        db = ProbabilisticDatabase()
        for i in range(1, 5):
            db.add(tid(i), learnable=True)
        back = load_labels(path, db)
        assert [(l.formula, l.target) for l in back] == [
            (l.formula, l.target) for l in labels
        ]

    @pytest.mark.parametrize("arg", ["a\tb", "c\nd", "e\rf"])
    def test_formula_labels_that_would_split_their_row_are_refused(self, tmp_path, arg):
        label = Label(Var(TupleId("t", (arg,))), 0.5)
        with pytest.raises(ValueError, match=r"label 't\(\""):
            save_labels((Label(v(1), 0.5), label), tmp_path / "labels.tsv")

    @pytest.mark.parametrize("name", ['t("a\tb")', 't("c\nd")'])
    def test_label_refs_that_would_split_their_row_are_refused(self, tmp_path, name):
        with pytest.raises(ValueError, match=r"label 't\(\""):
            save_label_refs([("t(1)", 0.5), (name, 0.5)], tmp_path / "labels.tsv")

    def test_derived_tuple_labels_resolve_through_rules(self, tmp_path):
        db, ids = story_db()
        path = tmp_path / "labels.tsv"
        path.write_text(
            "Q\twonPrize(Spielberg,AcademyAward)\t0.7\n"
            "Q\tbornIn(Spielberg,Cinncinati)\t0.3\n",
            encoding="utf-8",
        )
        derived = index_derived(ground(parse_program(STORY_RULES), db))
        labels = load_labels(path, db, derived=derived)
        assert labels[0].formula == derived[
            ("wonPrize", ("Spielberg", "AcademyAward"))
        ].lineage
        assert labels[0].target == 0.7
        assert labels[1].formula == derived[
            ("bornIn", ("Spielberg", "Cinncinati"))
        ].lineage

    def test_dangling_references(self, tmp_path):
        db, _ = story_db()
        derived = index_derived(ground(parse_program(STORY_RULES), db))
        path = tmp_path / "labels.tsv"
        path.write_text("Q\twonPrize(Kubrick,AcademyAward)\t0.5\n", encoding="utf-8")
        with pytest.raises(DanglingReferenceError, match="line 1"):
            load_labels(path, db, derived=derived)
        # Q rows need rules to resolve against
        with pytest.raises(DanglingReferenceError):
            load_labels(path, db)
        path.write_text("F\tmystery(1)\t0.5\n", encoding="utf-8")
        with pytest.raises(DanglingReferenceError):
            load_labels(path, db, derived=derived)

    def test_label_parse_errors(self, tmp_path):
        db, _ = story_db()
        path = tmp_path / "labels.tsv"
        path.write_text("Z\tx\t0.5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_labels(path, db)
        path.write_text("F\tt(1)\thigh\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_labels(path, db)
        assert err.value.line == 1
        row = "F\tfromDomain(1, Wikipedia.org)\t"
        for bad in ("1.5", "nan"):
            path.write_text(f"{row}0.5\n{row}{bad}\n", encoding="utf-8")
            with pytest.raises(ParseError) as err:
                load_labels(path, db)
            assert err.value.line == 2

    def test_syntax_errors_in_references_name_the_file_line(self, tmp_path):
        db, _ = story_db()
        derived = index_derived(ground(parse_program(STORY_RULES), db))
        path = tmp_path / "labels.tsv"
        good = "F\tfromDomain(1, Wikipedia.org)\t0.5\n"
        # the column counts from the start of the file line: kind, tab, reference
        for bad, col in (
            ("F\tfromDomain(1, & )\t0.5\n", 17),
            ("Q\twonPrize(Spielberg,\t0.5\n", 22),
            ("F\tt(1) & | t(2)\t0.5\n", 10),
        ):
            path.write_text(f"{good}% a comment\n{bad}{good}", encoding="utf-8")
            with pytest.raises(ParseError) as err:
                load_labels(path, db, derived=derived)
            assert (err.value.line, err.value.col) == (3, col), bad
            assert str(err.value).endswith(f"at line 3, column {col}"), bad


class TestProbabilitiesAndTraces:
    def test_probabilities_round_trip(self, tmp_path):
        probs = {tid(1): 0.125, TupleId("likes", ("ann", "bob")): 0.875}
        path = tmp_path / "probs.tsv"
        save_probabilities(probs, path)
        assert load_probabilities(path) == probs

    def test_probabilities_outside_the_unit_interval_are_refused(self, tmp_path):
        # a probabilities file reads its last column as a tuples file does
        path = tmp_path / "probs.tsv"
        for bad in ("1.5", "nan", "-0.25", "maybe"):
            path.write_text(f"t\t1\t0.5\nt\t2\t{bad}\nt\t3\t0.25\n", encoding="utf-8")
            for load in (load_tuples, load_probabilities):
                with pytest.raises(ParseError) as err:
                    load(path)
                assert err.value.line == 2, (bad, load.__name__)

    def test_trace_csv_layout(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace([(0, 0.5, 1.25), (1, 0.125, 2.5)], path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["outer_iter", "objective", "elapsed_ms"]
        assert rows[1][0] == "0" and float(rows[1][1]) == 0.5
        assert len(rows) == 3

    def test_expand_derived_substitutes_lineage(self):
        db, ids = story_db()
        derived = index_derived(ground(parse_program(STORY_RULES), db))
        phi = And(
            Var(TupleId("wonPrize", ("Spielberg", "AcademyAward"))),
            Not(Var(ids["t3"])),
        )
        expanded = expand_derived(phi, derived)
        assert expanded == And(
            derived[("wonPrize", ("Spielberg", "AcademyAward"))].lineage,
            Not(Var(ids["t3"])),
        )
        # references to base tuples pass through untouched
        assert expand_derived(Var(ids["t3"]), derived) == Var(ids["t3"])


# file formats can express string constants only when they do not re-parse
# as integers, so the strategy sticks to clearly textual names
_constants = st.one_of(
    st.integers(-40, 999),
    st.sampled_from(("x", "Bob-7", "a_b", "Wikipedia.org", "LosAngeles")),
)

_file_settings = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRoundTripProperties:
    @pytest.mark.property
    @_file_settings
    @given(data=st.data())
    def test_tuples_file_round_trip(self, data, tmp_path):
        # one fixed arity per relation, as the schema check demands
        arities = {"t": 1, "edge": 2, "likes": 3}
        rows = data.draw(
            st.lists(
                st.sampled_from(sorted(arities)).flatmap(
                    lambda rel: st.tuples(
                        st.just(rel),
                        st.lists(
                            _constants,
                            min_size=arities[rel],
                            max_size=arities[rel],
                        ),
                        st.one_of(st.none(), st.floats(0.0, 1.0, allow_nan=False)),
                    )
                ),
                min_size=1,
                max_size=12,
            )
        )
        db = ProbabilisticDatabase()
        for relation, args, prob in rows:
            t = TupleId(relation, tuple(args))
            if t in db.tuples:
                continue
            if prob is None:
                db.add(t, learnable=True)
            else:
                db.add(t, prob)
        path = tmp_path / "tuples.tsv"
        save_tuples(db, path)
        back = load_tuples(path)
        assert back.tuples == db.tuples
        assert back.learnable == db.learnable
        assert back.probabilities() == db.probabilities()

    @pytest.mark.property
    @_file_settings
    @given(data=st.data())
    def test_labels_file_round_trip(self, data, tmp_path):
        db = ProbabilisticDatabase()
        for i in range(8):
            db.add(tid(i), 0.5)
        labels = tuple(
            Label(build_formula(recipe), target)
            for recipe, target in data.draw(
                st.lists(
                    st.tuples(
                        recipes(max_vars=8, max_leaves=8),
                        st.floats(0.0, 1.0, allow_nan=False),
                    ),
                    min_size=1,
                    max_size=6,
                )
            )
        )
        path = tmp_path / "labels.tsv"
        save_labels(labels, path)
        assert load_labels(path, db) == labels

    @pytest.mark.property
    @_file_settings
    @given(data=st.data())
    def test_rules_file_round_trip(self, data, tmp_path):
        lines, words = [], []
        for i in range(data.draw(st.integers(1, 4))):
            body = [f"t(X, {data.draw(st.integers(0, 9))})"]
            if data.draw(st.booleans()):
                body.append("!u(X)")
            if data.draw(st.booleans()):
                body.append(f"X < {data.draw(st.integers(-5, 20))}")
            if data.draw(st.booleans()):
                # a % inside a quoted constant does not start a comment
                words.append(data.draw(st.sampled_from(["50%", "a b", 'say "hi" %', "%"])))
                quoted = words[-1].replace('"', '\\"')
                body.append(f's(X, "{quoted}")')
            lines.append(f"q{i}(X) :- {', '.join(body)}. % q{i}")
        program = parse_program("\n".join(lines))
        constants = [
            lit.args[1] for rule in program.rules for lit in rule.positive
            if lit.relation == "s"
        ]
        assert constants == words
        path = tmp_path / "rules.dl"
        save_rules(program, path)
        assert load_rules(path) == program


class TestInstanceLoading:
    def write_instance(self, tmp_path, labels_text):
        tuples = tmp_path / "tuples.tsv"
        rules = tmp_path / "rules.dl"
        labels = tmp_path / "labels.tsv"
        tuples.write_text(STORY_TSV, encoding="utf-8")
        rules.write_text(STORY_RULES, encoding="utf-8")
        labels.write_text(labels_text, encoding="utf-8")
        return tuples, rules, labels

    def test_full_instance(self, tmp_path):
        tuples, rules, labels = self.write_instance(
            tmp_path, "Q\twonPrize(Spielberg,AcademyAward)\t0.7\n"
        )
        instance = load_instance(tuples, rules, labels)
        assert len(instance.db.tuples) == 9
        assert len(instance.labels) == 1
        assert instance.labels[0].target == 0.7

    def test_empty_labels_learn_returns_initialization(self, tmp_path):
        tuples, rules, labels = self.write_instance(tmp_path, "% nothing here\n")
        instance = load_instance(tuples, rules, labels)
        assert instance.labels == ()
        result = learn(
            LearningProblem(instance.db, instance.labels),
            LearnerConfig(seed=5),
        )
        assert set(result.probabilities) == instance.db.learnable
        assert all(0.0 < p < 1.0 for p in result.probabilities.values())

    def test_generated_instance_matches_library_labels(self, tmp_path):
        # the rule-pair text written next to the labels grounds back to the
        # very lineage formulas the generator built in memory
        inst = gen_synthetic_srl(8, seed=21, n_tuples=30)
        save_tuples(inst.db, tmp_path / "tuples.tsv")
        save_rules(inst.rules, tmp_path / "rules.dl")
        (tmp_path / "labels.tsv").write_text(
            "".join(f"Q\t{name}\t{target:g}\n" for name, target in inst.label_refs),
            encoding="utf-8",
        )
        loaded = load_instance(
            tmp_path / "tuples.tsv", tmp_path / "rules.dl", tmp_path / "labels.tsv"
        )
        assert [(l.formula, l.target) for l in loaded.labels] == [
            (l.formula, l.target) for l in inst.labels
        ]


class TestBenchHarness:
    def test_empty_matrix(self):
        assert run_bench(sizes=()) == ()

    def test_single_cell_converges(self):
        cells = run_bench(
            sizes=((12, 24, 2),),
            optimizers=("sgd-per-tuple",),
            max_outer_iterations=200,
            seed=1,
        )
        assert len(cells) == 1
        cell = cells[0]
        assert cell.status == "eps_abs"
        assert cell.best <= 1e-6
        assert cell.iterations >= 1
        assert cell.seconds > 0.0
        assert cell.error == ""

    def test_deterministic_at_one_thread(self):
        kwargs = dict(
            sizes=((10, 18, 3),),
            optimizers=("sgd-per-tuple", "gd"),
            max_outer_iterations=150,
            seed=7,
        )
        a = run_bench(**kwargs)
        b = run_bench(**kwargs)
        assert [(c.best, c.iterations, c.status) for c in a] == [
            (c.best, c.iterations, c.status) for c in b
        ]

    @pytest.mark.property
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_labels=st.integers(1, 5),
        blocks=st.integers(1, 2),
    )
    def test_objectives_are_deterministic_per_seed(self, seed, n_labels, blocks):
        kwargs = dict(
            sizes=((n_labels, 12, blocks),),
            optimizers=("sgd-per-tuple",),
            max_outer_iterations=25,
            seed=seed,
        )
        a = run_bench(**kwargs)
        b = run_bench(**kwargs)
        # wall time may drift; the numbers must not
        assert [(c.best, c.iterations, c.status) for c in a] == [
            (c.best, c.iterations, c.status) for c in b
        ]
        assert all(c.status != "error" for c in a)

    def test_a_bad_size_fails_before_any_cell_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "learn", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="need at least 6 tuples per block"):
            run_bench(sizes=((20, 30, 1), (10, 7, 2)), optimizers=("gd",))
        assert calls == []

    def test_cell_failures_do_not_abort_the_sweep(self):
        cells = run_bench(
            sizes=((6, 12, 1),),
            optimizers=("newton", "sgd-per-tuple"),
            max_outer_iterations=50,
        )
        assert cells[0].status == "error"
        assert cells[0].optimizer == "newton"
        assert "optimizer" in cells[0].error
        assert cells[1].status != "error"

    def test_csv_export(self, tmp_path):
        cells = run_bench(
            sizes=((6, 12, 1),), optimizers=("sgd-per-tuple",), max_outer_iterations=50
        )
        path = tmp_path / "cells.csv"
        save_bench(cells, path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:6] == [
            "n_labels",
            "n_tuples",
            "blocks",
            "objective",
            "optimizer",
            "threads",
        ]
        assert len(rows) == 2


# the source tree that holds the pdblearn under test; a relative PYTHONPATH
# would stop resolving once the child runs in a temporary directory
SRC = Path(pdblearn.__file__).resolve().parent.parent


DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=180,
    )


def run_cli(args, cwd):
    return run_python(["-m", "pdblearn", *args], cwd)


@pytest.fixture
def story_files(tmp_path):
    (tmp_path / "tuples.tsv").write_text(STORY_TSV, encoding="utf-8")
    (tmp_path / "rules.dl").write_text(STORY_RULES, encoding="utf-8")
    return tmp_path


class TestCli:
    def test_learn_flags_default_to_the_learner_config(self):
        # every flag of every subcommand that takes a default: the learner
        # flags from LearnerConfig, the rest from the library function it calls
        parse = build_parser().parse_args
        files = ["--tuples", "t.tsv", "--labels", "l.tsv"]
        learner = {
            "objective", "optimizer", "eps_abs", "eps_rel", "seed", "threads",
            "max_iterations",
        }
        # file names, flags without a default, and the two without a library default
        own = {
            "command", "func", "kind", "tuples", "rules", "labels", "out", "trace",
            "out_dir", "n_labels", "n_vars", "n_clauses",
        }
        renamed = {"max_iterations": "max_outer_iterations", "threads_list": "threads"}
        for argv, func in (
            (["learn", *files], None),
            (["clean", *files], update_clean),
            (["condition", *files], condition),
            (["bench"], run_bench),
            (["gen", "srl", "--n-labels", "5", "--out-dir", "o"], gen_synthetic_srl),
            (["gen", "3sat", "--out-dir", "o"], random_3sat),
        ):
            args = parse(argv)
            covered = set(own)
            if argv[0] in ("learn", "clean"):
                assert _learner_config(args) == LearnerConfig()
                covered |= learner
            params = inspect.signature(func).parameters if func else {}
            for dest, value in vars(args).items():
                if dest not in covered:
                    name = renamed.get(dest, dest)
                    assert name in params, (argv, dest)
                    assert value == params[name].default, (argv, dest)

    def test_usage_errors_exit_one(self, tmp_path):
        # the CLI's own messages, so a child that never reached the CLI
        # (an import failure also exits 1) cannot pass for a usage error
        for args in ([], ["prob"]):
            out = run_cli(args, tmp_path)
            assert out.returncode == 1
            assert "usage:" in out.stderr
        out = run_cli(["prob", "t(1", "--tuples", "missing.tsv"], tmp_path)
        assert out.returncode == 1
        assert "error:" in out.stderr and "missing.tsv" in out.stderr
        # a directory where a file is read or written: one line, no traceback
        (tmp_path / "labels.tsv").write_text("F\tt(1)\t0.5\n", encoding="utf-8")
        (tmp_path / "tuples.tsv").write_text("t\t1\t?\n", encoding="utf-8")
        for tuples, out_path in (("tuples.tsv", "."), (".", "learned.tsv")):
            argv = ["learn", "--tuples", tuples, "--labels", "labels.tsv"]
            out = run_cli([*argv, "--out", out_path], tmp_path)
            assert out.returncode == 1
            assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
            assert "Is a directory" in out.stderr

    def test_a_label_nested_too_deep_is_a_syntax_error(self, tmp_path):
        (tmp_path / "tuples.tsv").write_text("t\t1\t?\n", encoding="utf-8")
        deep = "(" * 2000 + "t(1)" + ")" * 2000
        (tmp_path / "labels.tsv").write_text(
            f"F\tt(1)\t1\nF\t{deep}\t1\n", encoding="utf-8"
        )
        out = run_cli(["learn", "--tuples", "tuples.tsv", "--labels", "labels.tsv"], tmp_path)
        assert out.returncode == 1
        # the column is wherever the parser ran out of stack
        assert out.stderr.startswith("error: formula nested too deep at line 2, column ")
        assert out.stderr.count("\n") == 1

    def test_ground_prints_derived_tuples(self, story_files):
        out = run_cli(
            ["ground", "--tuples", "tuples.tsv", "--rules", "rules.dl"], story_files
        )
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert len(lines) == 3
        names = {line.split("\t")[0] for line in lines}
        assert names == {
            "bornIn(Spielberg,Cinncinati)",
            "bornIn(Spielberg,LosAngeles)",
            "wonPrize(Spielberg,AcademyAward)",
        }

    def test_prob_resolves_derived_names(self, tmp_path):
        # fix every tuple so the derived probability is a single number
        text = STORY_TSV.replace("1\tReceived\t?", "1\tReceived\t0.5")
        text = text.replace("2\tWon\t?", "2\tWon\t0.6")
        text = text.replace("3\tBorn\t?", "3\tBorn\t0.2")
        text = text.replace("1\tWikipedia.org\t?", "1\tWikipedia.org\t0.8")
        text = text.replace("2\tImdb.com\t?", "2\tImdb.com\t0.4")
        (tmp_path / "tuples.tsv").write_text(text, encoding="utf-8")
        (tmp_path / "rules.dl").write_text(STORY_RULES, encoding="utf-8")
        out = run_cli(
            [
                "prob",
                "wonPrize(Spielberg,AcademyAward)",
                "--tuples",
                "tuples.tsv",
                "--rules",
                "rules.dl",
            ],
            tmp_path,
        )
        assert out.returncode == 0
        assert float(out.stdout.strip()) == pytest.approx(0.3408, abs=1e-12)
        bad = run_cli(["prob", "ghost(1) | t(2)", "--tuples", "tuples.tsv"], tmp_path)
        assert bad.returncode == 1
        assert bad.stderr == (
            "error: the formula references tuple(s) not in the database: ghost(1), t(2)\n"
        )

    def test_learn_writes_probabilities_and_trace(self, tmp_path):
        (tmp_path / "tuples.tsv").write_text("t\t7\t?\nt\t8\t?\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text(
            "F\tt(7) | t(8)\t0.82\nF\tt(7)\t0.4\n", encoding="utf-8"
        )
        out = run_cli(
            [
                "learn",
                "--tuples",
                "tuples.tsv",
                "--labels",
                "labels.tsv",
                "--eps-abs",
                "1e-10",
                "--eps-rel",
                "0",
                "--seed",
                "3",
                "--out",
                "learned.tsv",
                "--trace",
                "trace.csv",
            ],
            tmp_path,
        )
        assert out.returncode == 0
        assert "status=eps_abs" in out.stderr
        learned = load_probabilities(tmp_path / "learned.tsv")
        assert learned[tid(7)] == pytest.approx(0.4, abs=1e-4)
        assert learned[tid(8)] == pytest.approx(0.7, abs=1e-4)
        with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["outer_iter", "objective", "elapsed_ms"]
        assert len(rows) >= 2

    def test_learn_exit_two_at_the_iteration_cap(self, tmp_path):
        (tmp_path / "tuples.tsv").write_text("t\t7\t?\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text(
            "F\tt(7)\t0.2\nF\tt(7)\t0.8\n", encoding="utf-8"
        )
        out = run_cli(
            [
                "learn",
                "--tuples",
                "tuples.tsv",
                "--labels",
                "labels.tsv",
                "--max-iterations",
                "1",
                "--eps-abs",
                "1e-12",
            ],
            tmp_path,
        )
        assert out.returncode == 2
        assert "status=max_iterations" in out.stderr

    def test_condition_rewrites_the_database(self, tmp_path):
        (tmp_path / "tuples.tsv").write_text("t\t1\t0.5\nt\t2\t0.5\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text("F\tt(1) | t(2)\t1\n", encoding="utf-8")
        out = run_cli(
            [
                "condition",
                "--tuples",
                "tuples.tsv",
                "--labels",
                "labels.tsv",
                "--out",
                "conditioned.tsv",
            ],
            tmp_path,
        )
        assert out.returncode == 0
        assert "constraint_probability=" in out.stderr
        p = load_tuples(tmp_path / "conditioned.tsv").probabilities()
        assert prob_exact(Or(v(1), v(2)), p) >= 1.0 - 1e-5

    def test_condition_exit_codes(self, tmp_path):
        (tmp_path / "tuples.tsv").write_text("t\t1\t0.5\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text(
            "F\tt(1)\t1\nF\t!t(1)\t1\n", encoding="utf-8"
        )
        out = run_cli(
            ["condition", "--tuples", "tuples.tsv", "--labels", "labels.tsv"], tmp_path
        )
        assert out.returncode == 3
        (tmp_path / "labels.tsv").write_text("F\tt(1)\t0.4\n", encoding="utf-8")
        out = run_cli(
            ["condition", "--tuples", "tuples.tsv", "--labels", "labels.tsv"], tmp_path
        )
        assert out.returncode == 1

    def test_clean_reports_deletions(self, tmp_path):
        (tmp_path / "tuples.tsv").write_text("u\t1\t0.5\n", encoding="utf-8")
        (tmp_path / "labels.tsv").write_text("F\tu(1)\t0\n", encoding="utf-8")
        out = run_cli(
            [
                "clean",
                "--tuples",
                "tuples.tsv",
                "--labels",
                "labels.tsv",
                "--prior-weight",
                "1.0",
                "--eps-rel",
                "0",
                "--out",
                "cleaned.tsv",
            ],
            tmp_path,
        )
        assert out.returncode == 0
        assert "delete\tu(1)" in out.stderr
        p = load_tuples(tmp_path / "cleaned.tsv").probabilities()
        assert p[TupleId("u", (1,))] <= 1e-3

    def test_gen_srl_is_reproducible(self, tmp_path):
        for name in ("one", "two"):
            out = run_cli(
                [
                    "gen",
                    "srl",
                    "--n-labels",
                    "6",
                    "--n-tuples",
                    "24",
                    "--seed",
                    "9",
                    "--out-dir",
                    name,
                ],
                tmp_path,
            )
            assert out.returncode == 0
        for name in ("tuples.tsv", "rules.dl", "labels.tsv"):
            a = (tmp_path / "one" / name).read_bytes()
            assert a == (tmp_path / "two" / name).read_bytes()
            assert a
        instance = load_instance(
            tmp_path / "one" / "tuples.tsv",
            tmp_path / "one" / "rules.dl",
            tmp_path / "one" / "labels.tsv",
        )
        assert len(instance.labels) == 6

    def test_importing_the_package_and_cli_loads_no_numpy(self, tmp_path):
        code = "import sys, pdblearn, pdblearn.cli; print('numpy' in sys.modules)"
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    def test_learn_runs_where_numpy_cannot_be_imported(self, tmp_path):
        # the README's learn at two threads; the forked worker inherits the block
        args = [
            "learn",
            "--tuples",
            str(DEMO_DATA / "tuples.tsv"),
            "--rules",
            str(DEMO_DATA / "rules.dl"),
            "--labels",
            str(DEMO_DATA / "labels.tsv"),
            "--threads",
            "2",
        ]
        code = (
            "import runpy, sys; sys.modules['numpy'] = None; "
            "runpy.run_module('pdblearn', run_name='__main__')"
        )
        blocked = run_python(["-c", code, *args], tmp_path)
        plain = run_cli(args, tmp_path)
        assert blocked.returncode == 0, blocked.stderr
        assert plain.returncode == 0, plain.stderr
        assert "status=eps_abs" in blocked.stderr
        assert blocked.stdout.count("\n") == 5  # one row per learnable tuple
        assert (blocked.stdout, blocked.stderr) == (plain.stdout, plain.stderr)

    def test_gen_bench_and_the_oracle_run_where_numpy_cannot_be_imported(self, tmp_path):
        code = """if True:
            import sys
            sys.modules["numpy"] = None
            from pdblearn import Or, TupleId, Var, prob_bruteforce
            from pdblearn.cli import main
            codes = [
                main(["gen", "srl", "--n-labels", "50", "--n-tuples", "120",
                      "--blocks", "2", "--out-dir", "inst"]),
                main(["gen", "3sat", "--n-vars", "20", "--n-clauses", "85",
                      "--seed", "3", "--out-dir", "sat"]),
                main(["bench", "--sizes", "20:30:1", "--out", "bench.csv"]),
            ]
            a, b = TupleId("t", (1,)), TupleId("t", (2,))
            print(*codes, prob_bruteforce(Or(Var(a), Var(b)), {a: 0.5, b: 0.5}))
        """
        out = run_python(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-4:] == ["0", "0", "0", "0.75"]
        inst = gen_synthetic_srl(50, n_tuples=120, blocks=2)
        rules = (tmp_path / "inst" / "rules.dl").read_text(encoding="utf-8")
        assert rules == inst.rules
        loaded = load_instance(
            tmp_path / "inst" / "tuples.tsv",
            tmp_path / "inst" / "rules.dl",
            tmp_path / "inst" / "labels.tsv",
        )
        assert [(l.formula, l.target) for l in loaded.labels] == [
            (l.formula, l.target) for l in inst.labels
        ]
        clauses = (tmp_path / "sat" / "clauses.txt").read_text(encoding="utf-8")
        want = random_3sat(20, 85, seed=3)
        assert clauses == "".join(" ".join(map(str, c)) + "\n" for c in want)
        with open(tmp_path / "bench.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(row["error"] == "" for row in rows)

    def test_a_failed_gen_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "inst"
        for argv, message in (
            (["srl", "--n-labels", "0"], "n_labels must be positive"),
            (["3sat", "--n-vars", "2"], "n_vars must lie in [3, 20]"),
        ):
            assert main(["gen", *argv, "--out-dir", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_gen_3sat_writes_a_loadable_instance(self, tmp_path):
        out = run_cli(
            [
                "gen",
                "3sat",
                "--n-vars",
                "5",
                "--n-clauses",
                "9",
                "--seed",
                "2",
                "--out-dir",
                "sat",
            ],
            tmp_path,
        )
        assert out.returncode == 0
        instance = load_instance(
            tmp_path / "sat" / "tuples.tsv", None, tmp_path / "sat" / "labels.tsv"
        )
        assert len(instance.db.tuples) == 10
        assert len(instance.labels) == 5 + 9
        clauses = (tmp_path / "sat" / "clauses.txt").read_text().splitlines()
        assert len(clauses) == 9

    def test_bench_emits_deterministic_csv(self, tmp_path):
        args = [
            "bench",
            "--sizes",
            "8:12:2",
            "--optimizers",
            "sgd-per-tuple",
            "--max-iterations",
            "120",
            "--seed",
            "4",
            "--out",
            "cells.csv",
        ]
        first = run_cli(args, tmp_path)
        assert first.returncode == 0
        assert "optimizer" in first.stdout
        with open(tmp_path / "cells.csv", newline="", encoding="utf-8") as handle:
            rows_a = list(csv.reader(handle))
        second = run_cli(args, tmp_path)
        assert second.returncode == 0
        with open(tmp_path / "cells.csv", newline="", encoding="utf-8") as handle:
            rows_b = list(csv.reader(handle))
        assert len(rows_a) == 2
        header, row_a, row_b = rows_a[0], rows_a[1], rows_b[1]
        # identical apart from the wall-clock column
        drop = header.index("seconds")
        assert [x for i, x in enumerate(row_a) if i != drop] == [
            x for i, x in enumerate(row_b) if i != drop
        ]
