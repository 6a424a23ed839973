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
from repro.engine import vectors
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


#: The simplifier's properties also range over a DOUBLE column whose
#: draws include NaN, which compares false to everything (so, e.g.,
#: ``NOT (d < 1.0)`` is not ``d >= 1.0``).
DOUBLE = Column(len(COLUMNS) + 1, "d", DataType.DOUBLE)
MIXED_COLUMNS = COLUMNS + (DOUBLE,)
_DOUBLE_LITERALS = st.builds(
    Literal, st.sampled_from((-1.5, 0.0, 1.0, 2.5)), st.just(DataType.DOUBLE)
)
mixed_rows = st.tuples(
    values,
    values,
    values,
    st.one_of(st.none(), st.just(float("nan")), st.sampled_from((-1.5, 0.0, 1.0))),
)
double_leaf = st.builds(
    Comparison,
    st.sampled_from(("=", "<>", "<", "<=", ">", ">=")),
    st.just(ColumnRef(DOUBLE)),
    st.one_of(_DOUBLE_LITERALS, st.sampled_from([ColumnRef(c) for c in MIXED_COLUMNS])),
)
mixed_exprs = st.recursive(
    st.one_of(leaf, double_leaf),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.lists(children, min_size=2, max_size=3).map(lambda t: And(tuple(t))),
        st.lists(children, min_size=2, max_size=3).map(lambda t: Or(tuple(t))),
    ),
    max_leaves=8,
)


def evaluate_mixed(expr: Expression, row: tuple):
    return compile_expression(expr, MIXED_COLUMNS)(row)


class TestSimplifyPreservesSemantics:
    @given(expr=mixed_exprs, row=mixed_rows)
    @settings(max_examples=300, deadline=None)
    def test_simplify_same_value(self, expr, row):
        assert evaluate_mixed(simplify(expr), row) == evaluate_mixed(expr, row)

    @given(expr=mixed_exprs, row=mixed_rows)
    @settings(max_examples=300, deadline=None)
    def test_normalize_same_value(self, expr, row):
        assert evaluate_mixed(normalize(expr), row) == evaluate_mixed(expr, row)

    @given(expr=mixed_exprs, row=mixed_rows)
    @settings(max_examples=300, deadline=None)
    def test_simplify_filter_preserves_true_set(self, expr, row):
        # Filter context: only the TRUE-set must be preserved.
        original = evaluate_mixed(expr, row) is True
        filtered = evaluate_mixed(simplify_filter(expr), row) is True
        assert original == filtered

    @given(expr=mixed_exprs, row=mixed_rows)
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


def assert_block_matches_scalar(expr, columns, block, representation, env=None):
    """Every lane of the block compiler's result is the scalar
    compiler's value for that row: same value, same Python type, same
    NULL / bool identity, same float bits (NaN, ``-0.0``)."""
    scalar = compile_expression(expr, columns, env)
    expected = [scalar(row) for row in block]
    cols = block_columns(columns, block, representation)
    got = list(compile_expression_block(expr, columns, env)(cols, len(block)))
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


# -- AND/OR over terms that decide many lanes ----------------------------
#
# Every term is evaluated over every lane, including the lanes earlier
# terms decided, and the terms fold in one Kleene step
# (vectors._kleene).  Column ``a`` is skewed: a share of the rows hold
# 0, the rest anything; ``a = 0`` / ``a <> 0`` then decide that share
# (or its complement) of the lanes before later terms run.

_A, _B, _C = (ColumnRef(c) for c in COLUMNS)
_ZERO = Literal(0, DataType.INTEGER)


def skewed_blocks(rows_per_block: int = 24):
    """Blocks whose ``a`` is 0 on 0 %, ~50 %, > 90 % or 100 % of rows."""

    def build(share, tails, others):
        zeros = rows_per_block * share // 100
        column_a = [0] * zeros + list(tails[: rows_per_block - zeros])
        return [(a, b, c) for a, (b, c) in zip(column_a, others)]

    return st.builds(
        build,
        st.sampled_from((0, 50, 92, 100)),
        st.lists(values, min_size=rows_per_block, max_size=rows_per_block),
        st.lists(
            st.tuples(values, values), min_size=rows_per_block, max_size=rows_per_block
        ),
    )


def nested_and_or():
    """AND-in-OR-in-AND and its dual, led by a term on the skewed
    column, bare or as a CASE condition / branch."""
    first = st.builds(Comparison, st.sampled_from(("=", "<>")), st.just(_A), st.just(_ZERO))
    pair = st.lists(leaf, min_size=2, max_size=2)

    def nest(outer, inner):
        return st.builds(
            lambda head, innermost, middle, tail: outer(
                (head, inner((outer(tuple(innermost)), *middle)), *tail)
            ),
            first,
            pair,
            st.lists(leaf, min_size=1, max_size=2),
            st.lists(leaf, min_size=0, max_size=1),
        )

    bare = st.one_of(nest(And, Or), nest(Or, And))
    in_case = st.builds(
        lambda cond, then, default: Case(((cond, then),), default), bare, bare, bare
    )
    return st.one_of(bare, in_case)


@pytest.mark.parametrize("representation", BLOCK_REPRESENTATIONS)
class TestAndOrBySelection:
    @given(expr=nested_and_or(), block=skewed_blocks())
    @settings(max_examples=150, deadline=None)
    def test_skewed_first_terms(self, representation, expr, block):
        assert_block_matches_scalar(expr, COLUMNS, block, representation)

    @pytest.mark.parametrize(
        "expr",
        [
            # Non-boolean and constant terms: only identity True / False
            # decide a lane, as in the scalar loop.
            And((Literal(5, DataType.INTEGER), Literal(None, DataType.BOOLEAN))),
            Or((_A, Literal(True, DataType.BOOLEAN))),
            And((_A, _B, Or((_B, _C, Comparison("<", _C, _ZERO))))),
            Or((_A, And((_B, _C, Comparison(">", _B, _C))), _C)),
            And((Literal(True, DataType.BOOLEAN), Comparison("=", _A, _ZERO))),
            # One term: normalized by a self-fold.
            And((_A,)),
            Or((Comparison("=", _A, _B),)),
            # The later term divides by ``a``, zero exactly on the lanes
            # the first term decided.
            And(
                (
                    Comparison("<>", _A, _ZERO),
                    Comparison(">", Arithmetic("/", _B, _A), Literal(1, DataType.INTEGER)),
                    Comparison("<", Arithmetic("/", _C, _A), Literal(2, DataType.INTEGER)),
                )
            ),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("rows_in_block", [0, 1, 40])
    def test_deterministic_cases(self, representation, expr, rows_in_block):
        cycle = [None, 0, 1, 0, 0, -3, 0, True, False, 0]
        block = [
            (cycle[i % 10] if i % 4 else 0, cycle[(i * 3) % 10], cycle[(i * 7 + 2) % 10])
            for i in range(rows_in_block)
        ]
        assert_block_matches_scalar(expr, COLUMNS, block, representation)

    def test_correlated_term_reads_the_environment(self, representation):
        outer = Column(99, "outer", DataType.INTEGER)
        expr = And(
            (
                Comparison("=", _A, _ZERO),
                Or(
                    (
                        Comparison("<", _B, ColumnRef(outer)),
                        Comparison("=", _C, ColumnRef(outer)),
                        IsNull(_B),
                    )
                ),
            )
        )
        block = [(0 if i % 9 else 1, i % 5 - 1 if i % 7 else None, i % 4) for i in range(40)]
        for bound in (2, None):
            assert_block_matches_scalar(
                expr, COLUMNS, block, representation, env={outer.cid: bound}
            )


@pytest.mark.parametrize("terms, folds", [(1, 1), (2, 1), (3, 2), (5, 4)])
def test_terms_that_never_narrow_fold_n_minus_one_times(monkeypatch, terms, folds):
    """An n-term AND over lists costs n - 1 list folds (the first term
    enters raw; a lone term folds with itself to normalize)."""
    calls = []

    def spy(conj, a, b, fold=vectors._fold):
        calls.append(len(a))
        return fold(conj, a, b)

    monkeypatch.setattr(vectors, "_fold", spy)
    expr = And(tuple(Comparison(">=", _A, Literal(-k, DataType.INTEGER)) for k in range(terms)))
    block = [(i, None, None) for i in range(50)]
    assert_block_matches_scalar(expr, COLUMNS, block, "lists")
    assert calls == [50] * folds


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
