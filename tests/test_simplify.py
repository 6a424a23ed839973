"""Unit tests for expression simplification and contradiction detection."""

from repro.algebra.expressions import (
    FALSE,
    TRUE,
    And,
    Case,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    integer,
    make_and,
    string,
)
from repro.algebra.schema import Column
from repro.algebra.simplify import is_contradiction, simplify, simplify_filter
from repro.algebra.types import DataType


def ref(cid: int, name: str = "c") -> ColumnRef:
    return ColumnRef(Column(cid, name, DataType.INTEGER))


class TestConstantFolding:
    def test_literal_comparison_folds(self):
        assert simplify(Comparison("<", integer(1), integer(2))) == TRUE
        assert simplify(Comparison(">=", integer(1), integer(2))) == FALSE

    def test_null_comparison_folds_to_null(self):
        folded = simplify(Comparison("=", Literal(None, DataType.INTEGER), integer(1)))
        assert isinstance(folded, Literal) and folded.value is None

    def test_not_folding(self):
        assert simplify(Not(TRUE)) == FALSE
        assert simplify(Not(Not(ref(1)))) == ref(1)

    def test_not_of_comparison_becomes_complement(self):
        assert simplify(Not(Comparison("<", ref(1), integer(5)))) == Comparison(
            ">=", ref(1), integer(5)
        )

    def test_is_null_of_literal(self):
        assert simplify(IsNull(Literal(None, DataType.INTEGER))) == TRUE
        assert simplify(IsNull(integer(3))) == FALSE

    def test_in_list_of_literals(self):
        assert simplify(InList(integer(2), (integer(1), integer(2)))) == TRUE
        assert simplify(InList(integer(9), (integer(1), integer(2)))) == FALSE

    def test_in_list_with_null_item_is_null_when_no_match(self):
        folded = simplify(
            InList(integer(9), (integer(1), Literal(None, DataType.INTEGER)))
        )
        assert isinstance(folded, Literal) and folded.value is None

    def test_case_prunes_false_branches(self):
        case = Case(((FALSE, string("a")), (TRUE, string("b"))), string("z"))
        assert simplify(case) == string("b")

    def test_case_keeps_runtime_branches(self):
        cond = Comparison(">", ref(1), integer(0))
        case = Case(((cond, string("a")),), string("z"))
        assert simplify(case) == case


class TestBooleanStructure:
    def test_and_short_circuits_false(self):
        assert simplify(And((ref(1), FALSE))) == FALSE

    def test_and_drops_true(self):
        assert simplify(And((TRUE, ref(1)))) == ref(1)

    def test_or_short_circuits_true(self):
        assert simplify(Or((ref(1), TRUE))) == TRUE

    def test_or_drops_false(self):
        assert simplify(Or((FALSE, ref(1)))) == ref(1)

    def test_absorption_law(self):
        b1 = Comparison("=", ref(1), integer(1))
        b2 = Comparison("=", ref(1), integer(2))
        expr = And((b1, Or((b1, b2))))
        assert simplify(expr) == b1

    def test_absorption_with_conjunct_pieces(self):
        low = Comparison(">=", ref(1), integer(1))
        high = Comparison("<=", ref(1), integer(20))
        other = And((Comparison(">=", ref(1), integer(21)), Comparison("<=", ref(1), integer(40))))
        cumulative = Or((And((low, high)), other))
        expr = make_and([low, high, cumulative])
        assert simplify(expr) == And((low, high))

    def test_absorption_keeps_unrelated_or(self):
        a = Comparison("=", ref(1), integer(1))
        unrelated = Or((Comparison("=", ref(2), integer(5)), Comparison("=", ref(2), integer(6))))
        expr = And((a, unrelated))
        assert simplify(expr) == expr


class TestContradictions:
    def test_equal_different_literals(self):
        expr = And((Comparison("=", ref(1), integer(1)), Comparison("=", ref(1), integer(2))))
        assert is_contradiction(expr)

    def test_disjoint_ranges(self):
        expr = And((Comparison("<", ref(1), integer(5)), Comparison(">", ref(1), integer(10))))
        assert is_contradiction(expr)

    def test_touching_ranges_not_contradictory(self):
        expr = And((Comparison("<=", ref(1), integer(5)), Comparison(">=", ref(1), integer(5))))
        assert not is_contradiction(expr)

    def test_open_touching_ranges_contradictory(self):
        expr = And((Comparison("<", ref(1), integer(5)), Comparison(">=", ref(1), integer(5))))
        assert is_contradiction(expr)

    def test_equality_with_not_equal(self):
        expr = And((Comparison("=", ref(1), integer(3)), Comparison("<>", ref(1), integer(3))))
        assert is_contradiction(expr)

    def test_tag_dispatch_case(self):
        tag = ref(7, "tag")
        expr = And((Comparison("=", tag, integer(1)), Comparison("=", tag, integer(2))))
        assert is_contradiction(expr)

    def test_in_list_intersection_empty(self):
        expr = And(
            (
                InList(ref(1), (integer(1), integer(2))),
                InList(ref(1), (integer(3), integer(4))),
            )
        )
        assert is_contradiction(expr)

    def test_in_list_vs_range(self):
        expr = And(
            (
                InList(ref(1), (integer(1), integer(2))),
                Comparison(">", ref(1), integer(5)),
            )
        )
        assert is_contradiction(expr)

    def test_satisfiable_is_not_flagged(self):
        expr = And((Comparison(">", ref(1), integer(1)), Comparison("<", ref(1), integer(10))))
        assert not is_contradiction(expr)

    def test_different_columns_not_confused(self):
        expr = And((Comparison("=", ref(1), integer(1)), Comparison("=", ref(2), integer(2))))
        assert not is_contradiction(expr)

    def test_literal_null_never_true(self):
        assert is_contradiction(Literal(None, DataType.BOOLEAN))
        assert is_contradiction(FALSE)
        assert not is_contradiction(TRUE)

    def test_string_ranges(self):
        expr = And(
            (
                Comparison("=", ref(1), string("a")),
                Comparison("=", ref(1), string("b")),
            )
        )
        assert is_contradiction(expr)

    def test_mixed_types_conservative(self):
        # Incomparable literal types must not crash or mis-prove.
        expr = And(
            (
                Comparison(">", ref(1), string("z")),
                Comparison("<", ref(1), integer(0)),
            )
        )
        assert is_contradiction(expr) in (True, False)


class TestFilterSimplification:
    def test_simplify_filter_collapses_contradiction(self):
        expr = And((Comparison("=", ref(1), integer(1)), Comparison("=", ref(1), integer(2))))
        assert simplify_filter(expr) == FALSE

    def test_simplify_filter_prunes_contradictory_disjuncts(self):
        tag = ref(7, "tag")
        bad = And((Comparison("=", tag, integer(1)), Comparison("=", tag, integer(2))))
        good = Comparison("=", tag, integer(1))
        assert simplify_filter(Or((bad, good))) == good
