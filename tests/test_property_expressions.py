"""Property-based tests: simplification and normalization preserve
evaluation semantics, and contradiction detection is sound."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    And,
    Arithmetic,
    Case,
    Comparison,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    normalize,
    walk,
)
from repro.algebra.schema import Column
from repro.algebra.simplify import is_contradiction, simplify, simplify_filter
from repro.algebra.types import DataType
from repro.engine.evaluator import compile_expression
from repro.engine.vectors import compile_expression_block
from tests.conftest import BLOCK_REPRESENTATIONS, block_columns

COLUMNS = tuple(Column(i + 1, name, DataType.INTEGER) for i, name in enumerate("abc"))

values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
rows = st.tuples(values, values, values)

leaf = st.one_of(
    st.builds(
        Comparison,
        st.sampled_from(("=", "<>", "<", "<=", ">", ">=")),
        st.sampled_from([ColumnRef(c) for c in COLUMNS]),
        st.one_of(
            st.sampled_from([ColumnRef(c) for c in COLUMNS]),
            st.builds(Literal, st.integers(-5, 5), st.just(DataType.INTEGER)),
        ),
    ),
    st.builds(IsNull, st.sampled_from([ColumnRef(c) for c in COLUMNS])),
    st.builds(
        InList,
        st.sampled_from([ColumnRef(c) for c in COLUMNS]),
        st.lists(
            st.builds(Literal, st.integers(-5, 5), st.just(DataType.INTEGER)),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
)


def boolean_exprs(depth: int = 2):
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.lists(children, min_size=2, max_size=3).map(lambda t: And(tuple(t))),
            st.lists(children, min_size=2, max_size=3).map(lambda t: Or(tuple(t))),
        ),
        max_leaves=8,
    )


def evaluate(expr: Expression, row: tuple):
    return compile_expression(expr, COLUMNS)(row)


class TestSimplifyPreservesSemantics:
    @given(expr=boolean_exprs(), row=rows)
    @settings(max_examples=300, deadline=None)
    def test_simplify_same_value(self, expr, row):
        assert evaluate(simplify(expr), row) == evaluate(expr, row)

    @given(expr=boolean_exprs(), row=rows)
    @settings(max_examples=300, deadline=None)
    def test_normalize_same_value(self, expr, row):
        assert evaluate(normalize(expr), row) == evaluate(expr, row)

    @given(expr=boolean_exprs(), row=rows)
    @settings(max_examples=300, deadline=None)
    def test_simplify_filter_preserves_true_set(self, expr, row):
        # Filter context: only the TRUE-set must be preserved.
        original = evaluate(expr, row) is True
        filtered = evaluate(simplify_filter(expr), row) is True
        assert original == filtered

    @given(expr=boolean_exprs(), row=rows)
    @settings(max_examples=300, deadline=None)
    def test_simplify_idempotent(self, expr, row):
        once = simplify(expr)
        assert simplify(once) == once


class TestMemoIsInvisible:
    """``normalize`` and ``simplify`` store each node's result on the
    node; whatever was stored before must not show in a result."""

    @given(expr=boolean_exprs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_warmed_subtrees_give_the_cold_result(self, expr, data):
        cold = pickle.loads(pickle.dumps(expr))  # equal, no memo slots
        warm_up = st.tuples(st.sampled_from((normalize, simplify)), st.sampled_from(list(walk(expr))))
        for fn, node in data.draw(st.lists(warm_up, max_size=8)):
            fn(node)
        assert normalize(expr) == normalize(cold)
        assert simplify(expr) == simplify(cold)

    @given(expr=boolean_exprs())
    @settings(max_examples=300, deadline=None)
    def test_normalize_idempotent(self, expr):
        once = normalize(expr)
        assert normalize(once) == once


def assert_block_matches_scalar(expr, columns, block, representation):
    """Every lane of the block compiler's result is the scalar
    compiler's value for that row: same value, same Python type, same
    NULL / bool identity, same float bits (NaN, ``-0.0``)."""
    scalar = compile_expression(expr, columns)
    expected = [scalar(row) for row in block]
    with block_columns(columns, block, representation) as cols:
        got = list(compile_expression_block(expr, columns)(cols, len(block)))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is type(e) and repr(g) == repr(e), (got, expected)


@pytest.mark.parametrize("representation", BLOCK_REPRESENTATIONS)
class TestBlockCompilerEquivalence:
    """The block compiler must agree lane for lane with the scalar
    reference in every column representation."""

    @given(expr=boolean_exprs(), block=st.lists(rows, min_size=0, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_boolean_expressions(self, representation, expr, block):
        assert_block_matches_scalar(expr, COLUMNS, block, representation)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_typed_expressions_over_salted_columns(data):
    """Every representation equals the scalar reference, row by row."""
    expr = data.draw(typed_exprs())
    block = data.draw(st.lists(typed_rows, min_size=0, max_size=6))
    for representation in BLOCK_REPRESENTATIONS:
        assert_block_matches_scalar(expr, TYPED_COLUMNS, block, representation)


# -- typed expressions over INTEGER / DOUBLE / BOOLEAN / STRING ------------
#
# Salted with what separates the representations: NULL, NaN, -0.0 and
# infinities, zero divisors, and ints at the documented exactness
# boundaries (2**53: exact as a double; 2**62: the int64 guard).

TYPED_COLUMNS = tuple(
    Column(i + 1, name, dtype)
    for i, (name, dtype) in enumerate(
        [
            ("i", DataType.INTEGER),
            ("j", DataType.INTEGER),
            ("x", DataType.DOUBLE),
            ("y", DataType.DOUBLE),
            ("p", DataType.BOOLEAN),
            ("q", DataType.BOOLEAN),
            ("s", DataType.STRING),
            ("t", DataType.STRING),
        ]
    )
)
INT_REFS, DOUBLE_REFS, BOOL_REFS, STRING_REFS = (
    [ColumnRef(c) for c in TYPED_COLUMNS[k : k + 2]] for k in (0, 2, 4, 6)
)

int_values = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from(
        [0, 2**53, 2**53 + 1, -(2**53) - 1, 2**62 - 1, 1 - 2**62, 2**62, -(2**62)]
    ),
)
double_values = st.one_of(
    st.none(),
    st.sampled_from(
        [0.0, -0.0, 1.5, -2.5, 3.0, float("nan"), float("inf"), 1e308, 2.0**53]
    ),
)
bool_values = st.sampled_from([None, True, False])
string_values = st.sampled_from([None, "", "a", "ab", "Smith"])
typed_rows = st.tuples(
    int_values, int_values, double_values, double_values,
    bool_values, bool_values, string_values, string_values,
)

COMPARE_OPS = st.sampled_from(("=", "<>", "<", "<=", ">", ">="))


def typed_exprs():
    """Type-correct expressions of any result type."""
    # No -0.0 *literal*: Literal(-0.0) == Literal(0.0) as expressions,
    # so every expression-keyed memo may serve either for the other.
    double_literals = double_values.filter(lambda v: repr(v) != "-0.0")
    number_leaf = st.one_of(
        st.sampled_from(INT_REFS + DOUBLE_REFS),
        st.builds(Literal, int_values, st.just(DataType.INTEGER)),
        st.builds(Literal, double_literals, st.just(DataType.DOUBLE)),
    )
    string_leaf = st.one_of(
        st.sampled_from(STRING_REFS),
        st.builds(Literal, string_values, st.just(DataType.STRING)),
    )

    def numbers(children):
        return st.one_of(
            st.builds(
                Arithmetic, st.sampled_from(("+", "-", "*", "/")), children, children
            ),
            st.builds(lambda a: FunctionCall("abs", (a,)), children),
            st.builds(lambda a, b: FunctionCall("coalesce", (a, b)), children, children),
        )

    number = st.recursive(number_leaf, numbers, max_leaves=4)
    string = st.one_of(
        string_leaf,
        st.builds(lambda a: FunctionCall("upper", (a,)), string_leaf),
        st.builds(lambda a, b: FunctionCall("concat", (a, b)), string_leaf, string_leaf),
    )
    boolean_leaf = st.one_of(
        st.sampled_from(BOOL_REFS),
        st.builds(Comparison, COMPARE_OPS, number, number),
        st.builds(Comparison, COMPARE_OPS, string, string),
        st.builds(Comparison, st.sampled_from(("=", "<>")), *[st.sampled_from(BOOL_REFS)] * 2),
        st.builds(IsNull, st.one_of(number, string, st.sampled_from(BOOL_REFS))),
        st.builds(InList, number, st.lists(number_leaf, min_size=1, max_size=3).map(tuple)),
        st.builds(InList, string, st.lists(string_leaf, min_size=1, max_size=3).map(tuple)),
        st.builds(Like, string, st.sampled_from(["a%", "%", "S_ith", ""])),
    )
    boolean = st.recursive(
        boolean_leaf,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.lists(children, min_size=1, max_size=3).map(lambda t: And(tuple(t))),
            st.lists(children, min_size=1, max_size=3).map(lambda t: Or(tuple(t))),
        ),
        max_leaves=5,
    )

    def case_of(values):
        return st.builds(
            lambda whens, default: Case(tuple(whens), default),
            st.lists(st.tuples(boolean, values), min_size=1, max_size=2),
            values,
        )

    return st.one_of(
        number, string, boolean, case_of(number), case_of(string), case_of(boolean)
    )


def _typed_row(i=None, x=None):
    return (i, None, x, None, None, None, None, None)


@pytest.mark.parametrize("representation", BLOCK_REPRESENTATIONS)
@pytest.mark.parametrize(
    "expr, block",
    [
        # int64 lanes convert to doubles inside NumPy comparisons, isin
        # and division; Python compares and divides ints exactly.
        (
            InList(INT_REFS[0], (Literal(2.0**53, DataType.DOUBLE),)),
            [_typed_row(2**53 + 1), _typed_row(2**53)],
        ),
        (
            InList(DOUBLE_REFS[0], (Literal(2**53 + 1, DataType.INTEGER),)),
            [_typed_row(x=2.0**53)],
        ),
        (Comparison("=", INT_REFS[0], DOUBLE_REFS[0]), [_typed_row(2**53 + 1, 2.0**53)]),
        (
            Comparison("<", INT_REFS[0], Literal(2.0**62, DataType.DOUBLE)),
            [_typed_row(2**62 - 1)],
        ),
        (
            Arithmetic("/", INT_REFS[0], Literal(3, DataType.INTEGER)),
            [_typed_row(2**53 + 1), _typed_row(2**62 - 1)],
        ),
        # int64 lanes wrap; Python ints do not.
        (Arithmetic("+", INT_REFS[0], INT_REFS[0]), [_typed_row(2**62 - 1)]),
        (Arithmetic("*", INT_REFS[0], INT_REFS[0]), [_typed_row(2**31), _typed_row(-3)]),
    ],
    ids=repr,
)
def test_integer_exactness_boundaries(representation, expr, block):
    assert_block_matches_scalar(expr, TYPED_COLUMNS, block, representation)


class TestContradictionSoundness:
    @given(expr=boolean_exprs(), row=rows)
    @settings(max_examples=500, deadline=None)
    def test_contradictions_never_evaluate_true(self, expr, row):
        if is_contradiction(expr):
            assert evaluate(expr, row) is not True
