"""Harness: report formatting and small figure runs."""

import pytest

from repro.harness import FigureResult, format_table, gmean


class TestGmean:
    def test_identity(self):
        assert gmean([2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gmean([])


class TestFormatTable:
    def test_headers_and_rows_rendered(self):
        text = format_table(["app", "x"], [["foo", 1.25]], title="T")
        assert "T" in text and "app" in text and "1.250" in text

    def test_numeric_right_aligned(self):
        text = format_table(["a", "value"], [["x", 1.0]])
        line = text.splitlines()[-1]
        assert line.endswith("1.000")


class TestFigureResult:
    def test_add_and_column(self):
        r = FigureResult("F", "d", ["app", "v"])
        r.add("a", 1.5)
        r.add("b", 2.5)
        assert r.column("v") == [1.5, 2.5]

    def test_format_includes_summary(self):
        r = FigureResult("F", "d", ["app", "v"], summary={"g": 1.06})
        r.add("a", 1.0)
        assert "g=1.060" in r.format_table()


class TestFigureFunctions:
    """Small-n runs of the figure specs (one shared engine batch)."""

    def test_fig13_structure(self, figure_results):
        result = figure_results["fig13"]
        assert len([r for r in result.rows if not str(r[0]).startswith("[")]) == 37
        assert result.rows[-1][0] == "[All gmean]"
        assert 1.0 <= result.summary["all_gmean"] < 1.5

    def test_tab01_lists_cxl_devices(self, figure_results):
        result = figure_results["tab01"]
        assert [r[0] for r in result.rows] == ["CXL-A", "CXL-B", "CXL-C", "CXL-D"]

    def test_hw_overhead_is_176_bytes(self, figure_results):
        result = figure_results["hw"]
        assert result.summary["rbt_bytes"] == 176.0

    def test_fig22_rbt_monotone(self, figure_results):
        result = figure_results["fig22"]
        row = result.rows[-1]
        assert row[1] >= row[2] >= row[3] * 0.99  # smaller RBT never faster

    def test_fig01_depth_monotone(self, figure_results):
        result = figure_results["fig01"]
        row = result.rows[-1]  # all-gmean
        assert row[1] > row[4]  # 2-level slowdown worse than 5-level

    def test_experiment_registry_complete(self):
        from repro.harness.figures import SPECS

        assert set(SPECS) == {
            "fig01", "fig06", "fig08", "fig13", "fig14", "fig15", "tab01",
            "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
            "fig24", "fig25", "fig26", "fig27", "hw", "multicore", "recovery",
            "faults", "intermittent", "delayfree",
        }
