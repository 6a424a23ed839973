"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["SELECT 1"])
        assert args.scale == 0.1 and not args.baseline and not args.compare

    def test_flags(self):
        args = build_parser().parse_args(
            ["--scale", "0.02", "--baseline", "--explain", "SELECT 1"]
        )
        assert args.scale == 0.02 and args.baseline and args.explain


class TestMain:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_simple_query(self, capsys):
        code, out, _ = self.run(
            capsys, "--scale", "0.01", "SELECT count(*) AS n FROM reason"
        )
        assert code == 0
        assert "n" in out and "10" in out
        assert "wall=" in out and "plan=" in out

    def test_explain_flag(self, capsys):
        code, out, _ = self.run(
            capsys, "--scale", "0.01", "--explain", "SELECT r_reason_desc FROM reason"
        )
        assert code == 0 and "Scan[reason]" in out

    def test_row_limit(self, capsys):
        code, out, _ = self.run(
            capsys, "--scale", "0.01", "--limit", "2", "SELECT d_date_sk FROM date_dim"
        )
        assert code == 0 and "more rows" in out

    def test_compare_mode(self, capsys):
        sql = (
            "SELECT (SELECT count(*) FROM store_sales WHERE ss_quantity > 50) AS a, "
            "(SELECT count(*) FROM store_sales WHERE ss_quantity <= 50) AS b"
        )
        code, out, _ = self.run(capsys, "--scale", "0.01", "--compare", sql)
        assert code == 0
        assert "baseline vs fusion" in out
        assert "% of baseline" in out

    def test_sql_error_reported(self, capsys):
        code, _, err = self.run(capsys, "--scale", "0.01", "SELECT FROM nothing")
        assert code == 1 and "error:" in err

    def test_unknown_table_reported(self, capsys):
        code, _, err = self.run(capsys, "--scale", "0.01", "SELECT x FROM missing")
        assert code == 1 and "unknown table" in err
