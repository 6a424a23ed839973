"""Unit tests for expression evaluation (3-valued logic) and aggregators."""

import math
import warnings

import pytest

from repro.algebra.expressions import (
    FALSE,
    TRUE,
    And,
    Arithmetic,
    Case,
    ColumnRef,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    integer,
    string,
)
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.engine.evaluator import Aggregator, compile_expression
from repro.engine.vectors import (
    accumulate_block,
    compile_expression_block,
    numpy_enabled,
    vector_from_values,
)
from repro.engine.session import Session
from repro.errors import ExecutionError
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store
from tests.conftest import BLOCK_REPRESENTATIONS, block_columns, simple_table

I = DataType.INTEGER
COLS = (Column(1, "a", I), Column(2, "b", I))
SCOLS = (Column(1, "s", DataType.STRING), Column(2, "t", DataType.STRING))
A, B = (ColumnRef(c) for c in COLS)


def run(expr, row):
    return compile_expression(expr, COLS)(row)


S = ColumnRef(SCOLS[0])
XCOLS = (Column(1, "x", DataType.DOUBLE),)
X = ColumnRef(XCOLS[0])

#: (expression, schema, rows, expected per row) — run through both the
#: scalar compiler (``test_functions``) and the block compiler in every
#: column representation (``TestBlockCompilation.test_function_call``).
FUNCTION_CASES = [
    (FunctionCall("upper", (S,)), SCOLS, [("ab", "x"), (None, "y")], ["AB", None]),
    (FunctionCall("lower", (S,)), SCOLS, [("AbC", "x"), (None, "y")], ["abc", None]),
    (
        FunctionCall("length", (S,)),
        SCOLS,
        [("abc", "x"), ("", "y"), (None, "z")],
        [3, 0, None],
    ),
    (FunctionCall("round", (X,)), XCOLS, [(2.567,), (-0.4,), (None,)], [3.0, -0.0, None]),
    (
        FunctionCall("round", (X, integer(2))),
        XCOLS,
        [(2.567,), (None,)],
        [2.57, None],
    ),
    # A NULL digits argument means "no digits", not a NULL result.
    (FunctionCall("round", (X, Literal(None, I))), XCOLS, [(2.567,)], [3.0]),
]


class TestNullSemantics:
    def test_comparison_with_null(self):
        assert run(Comparison("=", A, B), (1, None)) is None
        assert run(Comparison("<", A, B), (None, 5)) is None
        assert run(Comparison("<=", A, B), (1, 2)) is True

    def test_and_kleene(self):
        expr = And((Comparison("=", A, integer(1)), Comparison("=", B, integer(2))))
        assert run(expr, (1, 2)) is True
        assert run(expr, (0, 2)) is False
        assert run(expr, (1, None)) is None
        assert run(expr, (0, None)) is False  # FALSE dominates NULL

    def test_or_kleene(self):
        expr = Or((Comparison("=", A, integer(1)), Comparison("=", B, integer(2))))
        assert run(expr, (1, None)) is True  # TRUE dominates NULL
        assert run(expr, (0, None)) is None
        assert run(expr, (0, 3)) is False

    def test_not_null(self):
        assert run(Not(Comparison("=", A, B)), (None, 1)) is None
        assert run(Not(FALSE), ()) is True or True  # sanity: constant path below

    def test_is_null(self):
        assert run(IsNull(A), (None, 0)) is True
        assert run(IsNull(A), (3, 0)) is False

    def test_arithmetic_null_propagation(self):
        assert run(Arithmetic("+", A, B), (None, 1)) is None
        assert run(Arithmetic("*", A, B), (3, 4)) == 12

    def test_division_by_zero_degrades_to_null(self):
        assert run(Arithmetic("/", A, B), (1, 0)) is None
        assert run(Arithmetic("/", A, B), (6, 3)) == 2.0

    def test_in_list_null_semantics(self):
        expr = InList(A, (integer(1), integer(2)))
        assert run(expr, (1, 0)) is True
        assert run(expr, (9, 0)) is False
        assert run(expr, (None, 0)) is None
        with_null = InList(A, (integer(1), Literal(None, I)))
        assert run(with_null, (9, 0)) is None
        assert run(with_null, (1, 0)) is True


class TestScalarOperators:
    def test_case_first_match_wins(self):
        expr = Case(
            (
                (Comparison(">", A, integer(10)), string("big")),
                (Comparison(">", A, integer(0)), string("small")),
            ),
            string("neg"),
        )
        assert run(expr, (20, 0)) == "big"
        assert run(expr, (5, 0)) == "small"
        assert run(expr, (-1, 0)) == "neg"
        assert run(expr, (None, 0)) == "neg"  # NULL condition is not TRUE

    def test_like(self):
        s = (Column(1, "s", DataType.STRING),)
        fn = compile_expression(Like(ColumnRef(s[0]), "J%n"), s)
        assert fn(("John",)) is True
        assert fn(("Jane",)) is False
        assert fn((None,)) is None

    def test_like_underscore(self):
        s = (Column(1, "s", DataType.STRING),)
        fn = compile_expression(Like(ColumnRef(s[0]), "J_hn"), s)
        assert fn(("John",)) is True
        assert fn(("Jon",)) is False

    def test_functions(self):
        assert run(FunctionCall("abs", (A,)), (-3, 0)) == 3
        assert run(FunctionCall("coalesce", (A, B)), (None, 7)) == 7
        assert run(FunctionCall("floor", (A,)), (3, 0)) == 3
        for expr, columns, rows, expected in FUNCTION_CASES:
            fn = compile_expression(expr, columns)
            assert [fn(row) for row in rows] == expected, expr
        s = (Column(1, "s", DataType.STRING),)
        substr = compile_expression(
            FunctionCall("substr", (ColumnRef(s[0]), integer(2), integer(2))), s
        )
        assert substr(("abcdef",)) == "bc"

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            compile_expression(FunctionCall("frobnicate", ()), COLS)

    def test_unbound_column_without_env(self):
        ghost = ColumnRef(Column(99, "ghost", I))
        with pytest.raises(ExecutionError):
            compile_expression(ghost, COLS)

    def test_env_fallback_for_correlation(self):
        ghost = ColumnRef(Column(99, "ghost", I))
        env = {99: 42}
        fn = compile_expression(Comparison("=", ghost, integer(42)), COLS, env)
        assert fn((0, 0)) is True
        env[99] = 0
        assert fn((0, 0)) is False

    def test_unbound_env_read_raises(self):
        ghost = ColumnRef(Column(99, "ghost", I))
        fn = compile_expression(ghost, COLS, {})
        with pytest.raises(ExecutionError):
            fn((0, 0))


class TestAggregators:
    def test_count_skips_nulls(self):
        acc = Aggregator("count")
        for v in (1, None, 2):
            acc.add(v)
        assert acc.result() == 2

    def test_count_star(self):
        acc = Aggregator("count")
        acc.add_count_star()
        acc.add_count_star()
        assert acc.result() == 2

    def test_sum_and_empty_sum(self):
        acc = Aggregator("sum")
        assert acc.result() is None
        for v in (1, 2, None):
            acc.add(v)
        assert acc.result() == 3

    def test_avg(self):
        acc = Aggregator("avg")
        for v in (2, 4):
            acc.add(v)
        assert acc.result() == 3.0
        assert Aggregator("avg").result() is None

    def test_min_max(self):
        lo, hi = Aggregator("min"), Aggregator("max")
        for v in (5, None, 1, 9):
            lo.add(v)
            hi.add(v)
        assert lo.result() == 1 and hi.result() == 9
        assert Aggregator("min").result() is None

    def test_stddev_samp(self):
        acc = Aggregator("stddev_samp")
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            acc.add(v)
        assert math.isclose(acc.result(), 2.138, rel_tol=1e-3)
        single = Aggregator("stddev_samp")
        single.add(1.0)
        assert single.result() is None

    def test_distinct_aggregation(self):
        acc = Aggregator("count", distinct=True)
        for v in (1, 1, 2, None, 2, 3):
            acc.add(v)
        assert acc.result() == 3

    def test_distinct_sum(self):
        acc = Aggregator("sum", distinct=True)
        for v in (5, 5, 3):
            acc.add(v)
        assert acc.result() == 8


class TestLikeCacheBound:
    """The process-wide LIKE pattern cache must stay bounded (it lives
    for the whole session) and keep hot patterns resident."""

    def test_cache_never_exceeds_cap(self):
        from repro.engine import evaluator

        evaluator._LIKE_CACHE.clear()
        for i in range(evaluator._LIKE_CACHE_MAX * 2):
            evaluator._like_pattern(f"prefix{i}%")
        assert len(evaluator._LIKE_CACHE) == evaluator._LIKE_CACHE_MAX

    def test_hits_return_same_compiled_pattern(self):
        from repro.engine import evaluator

        first = evaluator._like_pattern("Smi%")
        assert evaluator._like_pattern("Smi%") is first

    def test_lru_keeps_recently_used(self):
        from repro.engine import evaluator

        evaluator._LIKE_CACHE.clear()
        hot = evaluator._like_pattern("hot%")
        for i in range(evaluator._LIKE_CACHE_MAX - 1):
            evaluator._like_pattern(f"cold{i}%")
        # Touch the hot pattern, then overflow the cache: the oldest
        # *cold* pattern is evicted, not the recently used hot one.
        assert evaluator._like_pattern("hot%") is hot
        evaluator._like_pattern("overflow%")
        assert "hot%" in evaluator._LIKE_CACHE
        assert "cold0%" not in evaluator._LIKE_CACHE


@pytest.mark.parametrize("representation", BLOCK_REPRESENTATIONS)
class TestBlockCompilation:
    """Deterministic spot-checks of the block compiler's edge semantics
    in every column representation (the property suite cross-checks it
    against the scalar compiler more broadly)."""

    def _run(self, expr, block, representation, columns=COLS, env=None):
        with block_columns(columns, block, representation) as cols:
            fn = compile_expression_block(expr, columns, env)
            return list(fn(cols, len(block)))

    def test_division_by_zero_is_null(self, representation):
        expr = Arithmetic("/", A, B)
        block = [(10, 2), (10, 0), (None, 2)]
        assert self._run(expr, block, representation) == [5.0, None, None]

    def test_in_list_with_null_item(self, representation):
        expr = InList(A, (integer(1), Literal(None, I), integer(3)))
        block = [(1, 0), (2, 0), (None, 0)]
        assert self._run(expr, block, representation) == [True, None, None]

    def test_in_list_with_column_items(self, representation):
        expr = InList(A, (B, integer(7), Literal(None, I)))
        block = [(1, 1), (7, 0), (2, 3), (None, 0)]
        assert self._run(expr, block, representation) == [True, True, None, None]

    def test_like_null_operand(self, representation):
        expr = Like(ColumnRef(SCOLS[0]), "Sm%")
        block = [("Smith", "x"), (None, "y"), ("Jones", "z")]
        assert self._run(expr, block, representation, SCOLS) == [True, None, False]

    def test_case_first_true_branch_wins(self, representation):
        expr = Case(
            (
                (Comparison("=", B, integer(0)), integer(-1)),
                (Comparison(">", A, integer(5)), Arithmetic("/", A, B)),
            ),
            A,
        )
        block = [(10, 0), (10, 5), (2, 1), (None, None)]
        assert self._run(expr, block, representation) == [-1, 2.0, 2, None]

    def test_case_branches_are_lazy(self, representation):
        # floor(NaN) raises: the THEN branch must never see the NaN
        # lane, which only the ELSE branch claims.
        cols = (Column(1, "x", DataType.DOUBLE),)
        x = ColumnRef(cols[0])
        expr = Case(
            ((Comparison("=", x, x), FunctionCall("floor", (x,))),), integer(-1)
        )
        block = [(1.5,), (float("nan"),), (None,)]
        assert self._run(expr, block, representation, cols) == [1, -1, -1]

    def test_function_call(self, representation):
        for expr, columns, block, expected in FUNCTION_CASES:
            assert self._run(expr, block, representation, columns) == expected, expr

    def test_correlated_column_reads_env_at_call_time(self, representation):
        env = {}
        expr = Comparison("=", A, ColumnRef(Column(99, "outer", I)))
        block = [(1, 0), (2, 0)]
        env[99] = 2
        assert self._run(expr, block, representation, env=env) == [False, True]
        env[99] = 1
        assert self._run(expr, block, representation, env=env) == [True, False]
        env[99] = None
        assert self._run(expr, block, representation, env=env) == [None, None]

    def test_unbound_correlated_column_raises(self, representation):
        expr = ColumnRef(Column(99, "outer", I))
        with pytest.raises(ExecutionError):
            self._run(expr, [(1, 2)], representation, env={})

    def test_column_outside_schema_without_env_fails_to_compile(
        self, representation
    ):
        with pytest.raises(ExecutionError):
            self._run(ColumnRef(Column(99, "outer", I)), [(1, 2)], representation)

    def test_constant_expression_fills_the_block(self, representation):
        expr = And((Comparison("<", integer(1), integer(2)), Not(FALSE)))
        assert self._run(expr, [(1, 2), (3, 4)], representation) == [True, True]

    def test_single_term_and_normalizes(self, representation):
        assert self._run(And((A,)), [(5, 0), (None, 0)], representation) == [
            True,
            None,
        ]

    def test_empty_block(self, representation):
        expr = Comparison(">", A, integer(3))
        assert self._run(expr, [], representation) == []


class TestNumpyBlockPaths:
    """Array-path behaviour that must equal Python's scalar semantics."""

    pytestmark = pytest.mark.skipif(
        not numpy_enabled(), reason="NumPy backend disabled"
    )
    DCOLS = (Column(1, "x", DataType.DOUBLE), Column(2, "y", DataType.DOUBLE))

    def test_float_overflow_is_silent(self):
        # Regression: only division ran under np.errstate, so x * x
        # leaked "RuntimeWarning: overflow encountered in multiply".
        x, y = (ColumnRef(c) for c in self.DCOLS)
        inf = float("inf")
        with block_columns(self.DCOLS, [(1e308, -1e308)], "vectors") as cols:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for op, expected in (("*", -inf), ("-", inf), ("+", 0.0)):
                    fn = compile_expression_block(Arithmetic(op, x, y), self.DCOLS)
                    assert list(fn(cols, 1)) == [expected]
                big = Arithmetic("*", x, x)
                fn = compile_expression_block(Arithmetic("-", big, big), self.DCOLS)
                (value,) = list(fn(cols, 1))
                assert math.isnan(value)

    def test_accumulate_block_sums_past_int64(self):
        # Regression: ndarray.sum() wraps int64 silently.
        values = vector_from_values([2**61] * 8, I)
        mask = vector_from_values([True] * 7 + [False], DataType.BOOLEAN)
        for func, expected in (
            ("sum", 7 * 2**61),
            ("avg", 7 * 2**61 / 7),
        ):
            acc = Aggregator(func)
            accumulate_block(acc, values, mask, 8)
            assert acc.result() == expected
        acc = Aggregator("sum")
        accumulate_block(acc, values, None, 8)
        assert acc.result() == 2**64
        reference = Aggregator("stddev_samp")
        reference.add_block([2**61] * 8, None, 8)
        acc = Aggregator("stddev_samp")
        accumulate_block(acc, values, None, 8)
        assert acc.result() == reference.result()


ENGINE_CONFIGS = {
    "row": OptimizerConfig(engine="row"),
    "batch": OptimizerConfig(engine="batch"),
    "compiled-python": OptimizerConfig(engine="compiled", vectors="python"),
    "compiled-numpy": OptimizerConfig(engine="compiled", vectors="numpy"),
}


@pytest.mark.parametrize("engine", ENGINE_CONFIGS)
class TestOverflowThroughSql:
    """The two array-path defects above, end to end on every engine."""

    def _session(self, engine):
        store = Store()
        store.put(
            simple_table(
                "big",
                [("id", I), ("n", I), ("x", DataType.DOUBLE)],
                [(i, 2**61, 1e308) for i in range(8)],
                primary_key=("id",),
            )
        )
        return Session(store, ENGINE_CONFIGS[engine])

    def test_integer_sum_is_exact_past_int64(self, engine):
        session = self._session(engine)
        assert session.execute("SELECT sum(b.n), avg(b.n) FROM big b").rows == [
            (2**64, float(2**61))
        ]
        grouped = session.execute(
            "SELECT b.x, sum(b.n), count(*) FROM big b GROUP BY b.x"
        )
        assert grouped.rows == [(1e308, 2**64, 8)]

    def test_float_overflow_raises_no_warning(self, engine):
        session = self._session(engine)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = session.execute("SELECT b.x * b.x FROM big b WHERE b.id < 2")
        assert result.rows == [(float("inf"),)] * 2
