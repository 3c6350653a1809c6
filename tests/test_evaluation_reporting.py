"""Tests for table rendering."""

import pytest

from repro.evaluation.reporting import format_table


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert set(lines[1]) <= {"-", "+"}

    def test_numeric_right_aligned(self):
        out = format_table(["n"], [[1], [100]])
        lines = out.splitlines()
        assert lines[2].endswith("1")
        assert lines[3].endswith("100")

    def test_format_specs(self):
        out = format_table(["x"], [[3.14159]], formats=[".2f"])
        assert "3.14" in out
        assert "3.14159" not in out

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out

    def test_bools_render_as_yes_no(self):
        out = format_table(["fits L2"], [[True], [False]])
        assert "yes" in out and "no" in out
        assert "True" not in out and "False" not in out
