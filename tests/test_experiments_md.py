"""EXPERIMENTS.md generation must be deterministic: same inputs,
byte-identical document."""

from repro.harness.engine import Engine, ResultCache
from repro.harness.experiments_md import HEADER, build_document, generate
from repro.harness.figures import SPECS

NAMES = ["tab01", "hw"]  # no simulation: instant and fully deterministic


class TestBuildDocument:
    def _results(self):
        return Engine().run([SPECS[n] for n in NAMES])

    def test_contains_header_and_tables(self):
        text = build_document(self._results(), n_insts=8000, names=NAMES)
        assert text.startswith("# EXPERIMENTS")
        assert "n_insts=8000" in text
        assert "## Table I" in text
        assert "## Section IX-N" in text

    def test_summary_table_rows(self):
        text = build_document(self._results(), n_insts=8000, names=NAMES)
        assert "| Table I |" in text
        assert "rbt_bytes=176.000" in text

    def test_no_timings_embedded(self):
        text = build_document(self._results(), n_insts=8000, names=NAMES)
        assert "regenerated in" not in text  # timing text breaks determinism

    def test_byte_identical_regeneration(self, tmp_path):
        a = generate(n_insts=8000, engine=Engine(cache=ResultCache(tmp_path)), names=NAMES)
        b = generate(n_insts=8000, engine=Engine(cache=ResultCache(tmp_path)), names=NAMES)
        assert a == b

    def test_byte_identical_with_simulation(self, tmp_path):
        # A real (tiny) simulated figure, cold cache vs warm cache.
        eng = Engine(cache=ResultCache(tmp_path), n_insts=1500)
        cold = generate(n_insts=1500, engine=eng, names=["fig13"])
        assert eng.last_run.simulated > 0
        warm = generate(n_insts=1500, engine=eng, names=["fig13"])
        assert eng.last_run.simulated == 0
        assert cold == warm

    def test_header_mentions_generator(self):
        assert "python -m repro.harness.experiments_md" in HEADER


class TestSpliceSection:
    def test_appends_then_replaces(self):
        from repro.harness.experiments_md import splice_section

        doc = "# EXPERIMENTS\n\nbody\n"
        once = splice_section(doc, "explore-x", "## Frontier\n\nv1")
        assert once.startswith("# EXPERIMENTS")
        assert "v1" in once
        twice = splice_section(once, "explore-x", "## Frontier\n\nv2")
        assert "v2" in twice and "v1" not in twice
        assert twice.count("begin autogen:explore-x") == 1

    def test_idempotent(self):
        from repro.harness.experiments_md import splice_section

        doc = splice_section("x\n", "a", "section")
        assert splice_section(doc, "a", "section") == doc

    def test_unterminated_marker_raises(self):
        import pytest

        from repro.harness.experiments_md import section_markers, splice_section

        begin, _ = section_markers("a")
        with pytest.raises(ValueError, match="unterminated"):
            splice_section(f"doc\n{begin}\n", "a", "s")

    def test_independent_sections_coexist(self):
        from repro.harness.experiments_md import splice_section

        doc = splice_section("base\n", "a", "AAA")
        doc = splice_section(doc, "b", "BBB")
        doc = splice_section(doc, "a", "AAA2")
        assert "AAA2" in doc and "BBB" in doc and "AAA\n" not in doc

    def test_carry_over_survives_regeneration(self):
        # Full regeneration rebuilds the figure document from scratch;
        # campaign sections spliced in by repro.explore must ride over.
        from repro.harness.experiments_md import (
            carry_over_sections,
            splice_section,
        )

        old = splice_section("# EXPERIMENTS (old)\n", "explore-d", "## F\n\nrows")
        old = splice_section(old, "explore-e", "EEE")
        new = carry_over_sections(old, "# EXPERIMENTS (new)\n")
        assert new.startswith("# EXPERIMENTS (new)")
        assert "rows" in new and "EEE" in new
        assert "(old)" not in new
        # Idempotent: carrying over from the result changes nothing.
        assert carry_over_sections(new, new) == new

    def test_carry_over_without_sections_is_noop(self):
        from repro.harness.experiments_md import carry_over_sections

        assert carry_over_sections("plain old\n", "new\n") == "new\n"
