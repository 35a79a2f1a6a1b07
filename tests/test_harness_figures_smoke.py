"""Small-n runs of every figure spec not covered in test_harness.py,
asserting the structural/shape claims, and mutated results that each
spec's check must reject."""

import copy

import pytest

from repro.harness.figures import SPECS, recovery_check
from repro.harness.spec import ShapeError, validate_result
from repro.workloads.profiles import ALL_APPS, MEMORY_INTENSIVE


@pytest.fixture(scope="module")
def recovery_result():
    return recovery_check(stride=71)


class TestSmallFigures:
    def test_fig06_rows_cover_all_apps(self, figure_results):
        r = figure_results["fig06"]
        assert len(r.rows) == len(ALL_APPS) + 1  # + mean row

    def test_fig08_mean_row_last(self, figure_results):
        r = figure_results["fig08"]
        assert r.rows[-1][0] == "[mean]"
        assert all(v >= 0 for v in r.column("WPQ HPMI"))

    def test_fig14_headers(self, figure_results):
        r = figure_results["fig14"]
        assert r.headers == [
            "suite", "ReplayCache", "Capri-4GB", "Capri-32GB", "cWSP-4GB", "cWSP-32GB",
        ]
        assert r.summary["replaycache"] > r.summary["cwsp_4gb"]

    def test_fig15_six_stages(self, figure_results):
        r = figure_results["fig15"]
        assert len(r.headers) == 7  # suite + 6 stages

    def test_fig17_covers_memory_intensive(self, figure_results):
        r = figure_results["fig17"]
        apps = [row[0] for row in r.rows if not str(row[0]).startswith("[")]
        assert apps == list(MEMORY_INTENSIVE)

    def test_fig18_psp_worse_than_cwsp(self, figure_results):
        r = figure_results["fig18"]
        assert r.summary["psp"] > r.summary["cwsp"]

    def test_fig20_structure(self, figure_results):
        r = figure_results["fig20"]
        assert r.summary["all_gmean"] >= 1.0

    def test_fig21_bandwidth_labels(self, figure_results):
        r = figure_results["fig21"]
        assert r.headers[1:] == ["1GB", "2GB", "4GB", "10GB", "20GB", "32GB"]
        assert r.summary["1GB"] >= r.summary["32GB"] * 0.99

    def test_fig23_latencies_all_low(self, figure_results):
        r = figure_results["fig23"]
        assert all(v < 1.3 for v in r.summary.values())

    def test_fig24_flat(self, figure_results):
        r = figure_results["fig24"]
        assert abs(r.summary["WB-8"] - r.summary["WB-32"]) < 0.05

    def test_fig25_pb_sizes(self, figure_results):
        r = figure_results["fig25"]
        assert list(r.summary) == ["PB-20", "PB-40", "PB-50", "PB-60"]

    def test_fig26_wpq_monotone(self, figure_results):
        r = figure_results["fig26"]
        assert r.summary["WPQ-8"] >= r.summary["WPQ-32"] * 0.98

    def test_fig27_own_baselines(self, figure_results):
        r = figure_results["fig27"]
        assert all(v >= 0.99 for v in r.summary.values())

    def test_fig19_mean_in_figure(self, figure_results):
        r = figure_results["fig19"]
        assert 10 < r.summary["mean_insts_per_region"] < 80

    def test_multicore_structure(self, figure_results):
        r = figure_results["multicore"]
        assert [row[0] for row in r.rows] == ["SPLASH3", "WHISPER", "STAMP"]
        assert r.summary["gmean_8core"] >= 1.0

    def test_recovery_check_no_divergences(self, recovery_result):
        assert recovery_result.summary["divergences"] == 0.0


def _splash3_not_worst(r):
    row = next(row for row in r.rows if row[0] == "[CPU2006]")
    splash = next(row for row in r.rows if row[0] == "[SPLASH3]")
    row[1] = splash[1] + 0.01


def _capri_above_replaycache(r):
    # The other half of ReplayCache > Capri-4GB > cWSP: Capri-4GB
    # below cWSP is rejected by the looser check as well.
    r.summary["capri_4gb"] = r.summary["replaycache"] + 0.1


def _wb_delaying_jump(r):
    r.summary["+WB Delaying"] = r.summary["+MC Speculation"] + 0.03


def _contended_multicore(r):
    r.summary["gmean_8core"] = 1.95


def _few_recovery_points(r):
    r.summary["points"] = 50.0


def _wide_rbt_entries(r):
    rbt = next(row for row in r.rows if row[0] == "RBT")
    rbt[1], rbt[2] = 8, 22  # still 176 bytes in all


BROKEN_CLAIMS = [
    ("fig13", _splash3_not_worst),
    ("fig14", _capri_above_replaycache),
    ("fig15", _wb_delaying_jump),
    ("multicore", _contended_multicore),
    ("recovery", _few_recovery_points),
    ("hw", _wide_rbt_entries),
]


@pytest.mark.parametrize(
    "name, mutate", BROKEN_CLAIMS, ids=[name for name, _ in BROKEN_CLAIMS]
)
def test_check_rejects_a_broken_claim(name, mutate, figure_results, recovery_result):
    real = recovery_result if name == "recovery" else figure_results[name]
    validate_result(SPECS[name], real)  # the real result holds the claim
    broken = copy.deepcopy(real)
    mutate(broken)
    with pytest.raises(ShapeError, match=f"^{name}: "):
        validate_result(SPECS[name], broken)
