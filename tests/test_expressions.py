"""Unit tests for the expression tree and its structural utilities."""

import gc
import os
import pickle
import subprocess
import sys

import pytest

from repro.algebra.expressions import (
    FALSE,
    MEMO_SLOTS,
    TRUE,
    And,
    Arithmetic,
    Case,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    column_substitution,
    columns_in,
    conjuncts,
    disjuncts,
    equivalent,
    integer,
    is_not_null,
    make_and,
    make_or,
    normalize,
    string,
    substitute,
    transform,
    walk,
)
from repro.algebra.schema import Column
from repro.algebra.simplify import simplify
from repro.algebra.types import DataType


def col(cid: int, name: str = "c", dtype=DataType.INTEGER) -> Column:
    return Column(cid, name, dtype)


def ref(cid: int, name: str = "c", dtype=DataType.INTEGER) -> ColumnRef:
    return ColumnRef(col(cid, name, dtype))


class TestBasics:
    def test_literal_types(self):
        assert integer(5).dtype is DataType.INTEGER
        assert string("x").dtype is DataType.STRING
        assert TRUE.value is True and FALSE.value is False

    def test_column_ref_dtype(self):
        assert ref(1, dtype=DataType.DOUBLE).dtype is DataType.DOUBLE

    def test_comparison_requires_known_operator(self):
        with pytest.raises(ValueError):
            Comparison("==", integer(1), integer(2))

    def test_comparison_commuted(self):
        cmp = Comparison("<", ref(1), integer(5))
        swapped = cmp.commuted()
        assert swapped.op == ">" and swapped.left == integer(5)

    def test_comparison_negated(self):
        assert Comparison("<=", ref(1), integer(5)).negated().op == ">"
        assert Comparison("=", ref(1), integer(5)).negated().op == "<>"

    def test_arithmetic_type_promotion(self):
        both_int = Arithmetic("+", integer(1), integer(2))
        assert both_int.dtype is DataType.INTEGER
        mixed = Arithmetic("*", integer(1), Literal(2.0, DataType.DOUBLE))
        assert mixed.dtype is DataType.DOUBLE
        division = Arithmetic("/", integer(4), integer(2))
        assert division.dtype is DataType.DOUBLE

    def test_case_dtype_skips_null_branch(self):
        case = Case(
            ((TRUE, Literal(None, DataType.BOOLEAN)), (FALSE, string("x"))),
            string("y"),
        )
        assert case.dtype is DataType.STRING

    def test_function_call_dtype(self):
        assert FunctionCall("abs", (ref(1),)).dtype is DataType.INTEGER
        assert FunctionCall("lower", (string("A"),)).dtype is DataType.STRING
        with pytest.raises(ValueError):
            FunctionCall("nosuch", ()).dtype

    def test_equality_is_structural(self):
        a = And((Comparison("=", ref(1), integer(2)), TRUE))
        b = And((Comparison("=", ref(1), integer(2)), TRUE))
        assert a == b and hash(a) == hash(b)

    def test_literal_zero_sign_is_part_of_identity(self):
        neg, pos = Literal(-0.0, DataType.DOUBLE), Literal(0.0, DataType.DOUBLE)
        assert neg != pos and hash(neg) != hash(pos)
        assert {neg: "neg", pos: "pos"}[Literal(-0.0, DataType.DOUBLE)] == "neg"
        assert Arithmetic("*", ref(1), neg) != Arithmetic("*", ref(1), pos)
        # Everything else is still plain field equality.
        assert pos == Literal(0.0, DataType.DOUBLE) == Literal(0, DataType.DOUBLE)
        assert hash(pos) == hash(Literal(0, DataType.DOUBLE))
        assert integer(0) == integer(0) and integer(0) != integer(1)
        assert Literal(None, DataType.DOUBLE) != pos
        nan = float("nan")
        assert Literal(nan, DataType.DOUBLE) == Literal(nan, DataType.DOUBLE)
        assert Literal(nan, DataType.DOUBLE) != Literal(float("nan"), DataType.DOUBLE)

    def test_hash_is_cached(self):
        e = And((Comparison("=", ref(1), integer(2)),))
        first = hash(e)
        assert e.__dict__.get("_hash") == first
        assert hash(e) == first


def two_conjuncts() -> And:
    """The node ``TestMemoSlots`` sends; built in both processes."""
    return And((Comparison("<", ref(1, "a"), integer(5)), Comparison("=", ref(2, "b"), integer(1))))


UNPICKLE_IN_ANOTHER_PROCESS = """
import pickle, sys
from tests.test_expressions import two_conjuncts

fresh = two_conjuncts()
loaded = pickle.loads(sys.stdin.buffer.read())
assert loaded == fresh
assert {fresh: 1}[loaded] == 1, "equal nodes hash differently"
"""


class TestMemoSlots:
    def test_memo_slots_do_not_travel(self):
        e = two_conjuncts()
        cold = len(pickle.dumps(e))
        hash(e), normalize(e), simplify(e)
        assert set(MEMO_SLOTS) <= e.__dict__.keys()
        assert len(pickle.dumps(e)) == cold
        loaded = pickle.loads(pickle.dumps(e))
        assert loaded == e and loaded.__dict__.keys() == {"terms"}

    def test_memo_slots_make_no_reference_cycle(self):
        """A node that is its own canonical form must not point at
        itself, or every planned tree waits for the cycle collector."""
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                e = And((Not(Not(IsNull(ref(1)))), two_conjuncts(), TRUE))
                simplify(normalize(e)), normalize(simplify(e))
                del e
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unpickled_node_hashes_like_a_local_one(self):
        """``_hash`` mixes in ``str`` hashes, which are per process: a
        worker started with another hash seed must not inherit it."""
        e = two_conjuncts()
        hash(e)
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        done = subprocess.run(
            [sys.executable, "-c", UNPICKLE_IN_ANOTHER_PROCESS],
            input=pickle.dumps(e),
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()


class TestTraversal:
    def test_walk_preorder(self):
        expr = And((Comparison("=", ref(1), integer(2)), Not(ref(3))))
        kinds = [type(e).__name__ for e in walk(expr)]
        assert kinds == ["And", "Comparison", "ColumnRef", "Literal", "Not", "ColumnRef"]

    def test_columns_in(self):
        expr = Or((Comparison("<", ref(1), ref(2)), IsNull(ref(3))))
        assert {c.cid for c in columns_in(expr)} == {1, 2, 3}

    def test_transform_rebuilds_bottom_up(self):
        expr = And((Comparison("=", ref(1), integer(2)),))

        def bump(node: Expression) -> Expression:
            if isinstance(node, Literal) and node.value == 2:
                return integer(3)
            return node

        result = transform(expr, bump)
        assert result == And((Comparison("=", ref(1), integer(3)),))

    def test_substitute_column_with_expression(self):
        expr = Arithmetic("+", ref(1), integer(1))
        result = substitute(expr, {1: Arithmetic("*", ref(2), integer(2))})
        assert result == Arithmetic("+", Arithmetic("*", ref(2), integer(2)), integer(1))

    def test_substitute_empty_mapping_is_identity(self):
        expr = Not(ref(9))
        assert substitute(expr, {}) is expr

    def test_column_substitution_helper(self):
        mapping = column_substitution({col(1): col(2)})
        assert substitute(ref(1), mapping) == ref(2, "c")


class TestConjunctsAndBuilders:
    def test_conjuncts_flatten_nested(self):
        expr = And((And((ref(1), ref(2))), ref(3)))
        assert conjuncts(expr) == [ref(1), ref(2), ref(3)]

    def test_conjuncts_of_true_and_none(self):
        assert conjuncts(TRUE) == []
        assert conjuncts(None) == []

    def test_disjuncts_flatten(self):
        expr = Or((Or((ref(1), ref(2))), ref(3)))
        assert disjuncts(expr) == [ref(1), ref(2), ref(3)]

    def test_make_and_deduplicates_and_drops_true(self):
        result = make_and([ref(1), TRUE, ref(1), ref(2)])
        assert result == And((ref(1), ref(2)))

    def test_make_and_empty_is_true(self):
        assert make_and([]) == TRUE

    def test_make_and_singleton_unwrapped(self):
        assert make_and([ref(1)]) == ref(1)

    def test_make_or_drops_false(self):
        assert make_or([FALSE, ref(1)]) == ref(1)

    def test_make_or_empty_is_false(self):
        assert make_or([]) == FALSE


class TestNormalization:
    def test_and_operands_sorted(self):
        a = And((ref(2, "b"), ref(1, "a")))
        b = And((ref(1, "a"), ref(2, "b")))
        assert normalize(a) == normalize(b)

    def test_comparison_orientation(self):
        lt = Comparison("<", ref(1, "a"), ref(2, "b"))
        gt = Comparison(">", ref(2, "b"), ref(1, "a"))
        assert normalize(lt) == normalize(gt)

    def test_equality_operands_sorted(self):
        assert normalize(Comparison("=", ref(2, "b"), ref(1, "a"))) == normalize(
            Comparison("=", ref(1, "a"), ref(2, "b"))
        )

    def test_commutative_arithmetic_sorted(self):
        assert normalize(Arithmetic("+", ref(2, "b"), ref(1, "a"))) == normalize(
            Arithmetic("+", ref(1, "a"), ref(2, "b"))
        )

    def test_subtraction_not_commuted(self):
        a = Arithmetic("-", ref(1, "a"), ref(2, "b"))
        b = Arithmetic("-", ref(2, "b"), ref(1, "a"))
        assert normalize(a) != normalize(b)

    def test_double_negation_removed(self):
        assert normalize(Not(Not(ref(1)))) == ref(1)

    def test_conjunction_of_nothing_is_true(self):
        assert normalize(And((TRUE, TRUE))) == TRUE
        assert normalize(And((TRUE, And((TRUE,))))) == TRUE
        assert normalize(And((TRUE, ref(1)))) == ref(1)
        assert equivalent(And((TRUE, TRUE)), TRUE)
        assert normalize(Or(())) == FALSE

    def test_in_list_items_sorted(self):
        a = InList(ref(1), (integer(3), integer(1), integer(3)))
        b = InList(ref(1), (integer(1), integer(3)))
        assert normalize(a) == normalize(b)

    def test_equivalent_with_mapping(self):
        left = Comparison("=", ref(1, "a"), integer(5))
        right = Comparison("=", ref(9, "z"), integer(5))
        assert not equivalent(left, right)
        assert equivalent(left, right, {9: ref(1, "a")})

    def test_is_not_null_sugar(self):
        expr = is_not_null(ref(4))
        assert expr == Not(IsNull(ref(4)))


class TestReprForms:
    def test_reprs_are_stable(self):
        expr = Case(
            ((Comparison(">", ref(1, "x"), integer(0)), string("pos")),),
            string("neg"),
        )
        text = repr(expr)
        assert "WHEN" in text and "ELSE" in text

    def test_like_repr(self):
        assert "LIKE" in repr(Like(ref(1, "s", DataType.STRING), "J%"))
