"""Documentation integrity: files exist and reference real artifacts."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocsPresent:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md",
                                      "EXPERIMENTS.md", "docs/isa.md",
                                      "docs/architecture.md"])
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500

    def test_examples_listed_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_design_experiment_index_points_at_real_benches(self):
        """Every bench file a doc names exists, DESIGN's index included."""
        for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md",
                     "docs/architecture.md"):
            text = (ROOT / name).read_text()
            for match in re.findall(r"\b(bench_\w+\.py)", text):
                assert (ROOT / "benchmarks" / match).exists(), (name, match)

    def test_experiments_md_mentions_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for section in ("Table I", "Table II", "Table III", "Table IV",
                        "Figure 3", "Figure 7", "Figure 8", "Figure 9",
                        "Figure 10"):
            assert section in text, section

    def test_design_documents_substitutions(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "GPGPU-Sim" in design
        assert "fairyforest" in design
        # The substitution table must explain why it preserves behaviour.
        assert "Why it is faithful" in design


class TestPublicAPI:
    def test_readme_quickstart_snippet_is_valid(self):
        """The programmatic example in README must actually run."""
        from repro import api
        workload = api.build_workload(
            "conference", api.get_preset("tiny"))
        pdom = api.simulate(workload, "pdom_block", max_cycles=5_000)
        spawn = api.simulate(workload, "spawn", max_cycles=5_000)
        assert spawn.verify() and pdom.verify()

    def test_readme_probe_snippet_is_valid(self):
        """The probe example in README must actually run."""
        from repro import api
        from repro.obs import render_interval_plot
        workload = api.build_workload(
            "conference", api.get_preset("tiny"))
        result = api.simulate(workload, "spawn", max_cycles=5_000,
                              probes=True)
        assert "idle" in render_interval_plot(result.trace)
        assert "dram_pending" in result.trace.stall_attribution()

    def test_all_subpackage_exports_importable(self):
        import repro
        import repro.analysis
        import repro.harness
        import repro.isa
        import repro.kernels
        import repro.rt
        import repro.simt
        for module in (repro.analysis, repro.harness, repro.isa,
                       repro.kernels, repro.rt, repro.simt):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
