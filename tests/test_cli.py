"""CLI tests (tiny preset to keep them fast)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scene == "conference"
        assert args.mode == "spawn"

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mode", "magic"])

    def test_bad_scene_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "--scene", "cornell"])

    def test_jobs_flag(self):
        args = build_parser().parse_args(["experiments", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["experiments"]).jobs is None

    def test_cache_verbs(self):
        assert build_parser().parse_args(["cache", "info"]).verb == "info"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "purge"])

    def test_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            ["experiments", "--checkpoint", "manifest.jsonl", "--resume",
             "--retries", "5", "--job-timeout", "2.5"])
        assert args.checkpoint == "manifest.jsonl"
        assert args.resume is True
        assert args.retries == 5
        assert args.job_timeout == 2.5

    def test_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.checkpoint == ""
        assert args.resume is False
        assert args.retries == 3
        assert args.job_timeout is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8732
        assert args.checkpoint_dir == ""

    def test_worker_requires_manifest(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_command_round_trips_through_the_parser(self):
        """The argv the sweep driver starts workers with must stay
        parseable; the retry policy travels in the manifest, not argv."""
        from repro.serve.manifest import worker_command

        argv = worker_command("m.jsonl", "w0")[3:]
        args = build_parser().parse_args(argv)
        assert args.manifest == "m.jsonl"
        assert args.id == "w0"
        assert args.once is True
        assert not hasattr(args, "retries")

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.url == "http://127.0.0.1:8732"
        assert args.scene == "conference"
        assert args.no_wait is False


class TestCommands:
    def test_disasm_traditional(self, capsys):
        assert main(["disasm", "traditional"]) == 0
        out = capsys.readouterr().out
        assert ".kernel trace" in out
        assert "TRACE_DOWN:" in out

    def test_disasm_microkernels(self, capsys):
        assert main(["disasm", "microkernels"]) == 0
        out = capsys.readouterr().out
        assert "spawn $uk_traverse" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "--preset", "tiny",
                     "--only", "table1,table2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out

    def test_experiments_unknown_name(self, capsys):
        assert main(["experiments", "--only", "fig99"]) == 2

    def test_experiments_with_jobs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["experiments", "--preset", "tiny",
                     "--only", "fig3", "--jobs", "2"]) == 0
        assert "Figure 3" in capsys.readouterr().out
        assert list(tmp_path.glob("*.npz"))  # sweep populated the cache

    def test_cache_info_and_clear(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "info"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["dir"] == str(tmp_path)
        assert info["entries"] == 0
        (tmp_path / "bogus-primary-0000.npz").write_bytes(b"x")
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.npz"))

    def test_experiments_permanent_failure_exits_nonzero(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULT_SPEC",
                           "exception@conference:pdom_block*5")
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
        code = main(["experiments", "--preset", "tiny", "--only", "fig3",
                     "--jobs", "1", "--retries", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "fig3: skipped" in captured.out
        assert "FAILED (exception)" in captured.err
        assert "1 failed" in captured.err

    def test_experiments_unverified_exits_nonzero(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.harness import sweep as sweep_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        real_execute = sweep_module.execute_job

        def tainted(job, injector=None):
            result = real_execute(job, injector)
            result.verified = False
            return result

        monkeypatch.setattr(sweep_module, "execute_job", tainted)
        code = main(["experiments", "--preset", "tiny", "--only", "fig3",
                     "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "1 unverified" in captured.err

    def test_experiments_checkpoint_resume(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        manifest = tmp_path / "manifest.jsonl"
        assert main(["experiments", "--preset", "tiny", "--only", "fig3",
                     "--jobs", "1", "--checkpoint", str(manifest)]) == 0
        assert manifest.exists()
        first = capsys.readouterr()
        assert "resumed from checkpoint" not in first.err
        assert main(["experiments", "--preset", "tiny", "--only", "fig3",
                     "--jobs", "1", "--checkpoint", str(manifest),
                     "--resume"]) == 0
        second = capsys.readouterr()
        assert "resumed from checkpoint" in second.err
        assert first.out == second.out

    def test_run_command(self, capsys):
        code = main(["run", "--preset", "tiny", "--mode", "pdom_warp",
                     "--divergence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SIMT efficiency" in out
        assert "W29:32" in out

    def test_render_command(self, tmp_path, capsys):
        out_file = tmp_path / "img.ppm"
        code = main(["render", "--scene", "atrium", "--width", "8",
                     "--height", "8", "--detail", "0.25",
                     "--out", str(out_file)])
        assert code == 0
        assert out_file.read_bytes().startswith(b"P6 8 8 255")

    def test_fuzz_unknown_model_exits_2(self, capsys):
        assert main(["fuzz", "--cases", "1", "--models", "turbo"]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'turbo'" in err
        assert "pdom_block" in err and "spawn" in err

    def test_fuzz_writes_shrunk_failing_cases(self, tmp_path, monkeypatch,
                                              capsys):
        """A divergence is shrunk before it is written: the predicate
        re-runs the oracle on each candidate, so the written case is
        smaller than the generated one."""
        import repro.fuzz as fuzz
        from repro.fuzz import FuzzReport, load_case, make_case
        from repro.fuzz.oracle import CaseResult

        case = make_case(3)
        size = len(case.program)
        assert size > 2

        def diverging(candidate, models=None):
            # Any program of two or more instructions "diverges".
            failures = ["spawn/base: synthetic divergence"] \
                if len(candidate.program) >= 2 else []
            return CaseResult(candidate, failures=failures)

        def campaign(num_cases, seed, **kwargs):
            return FuzzReport(cases_run=1, failures=[diverging(case)])

        monkeypatch.setattr(fuzz, "run_fuzz", campaign)
        monkeypatch.setattr(fuzz, "run_case", diverging)
        out = tmp_path / "failures"
        assert main(["fuzz", "--cases", "1", "--quiet",
                     "--out", str(out)]) == 1
        [written] = out.glob("case-*.json")
        assert len(load_case(str(written)).program) < size
        assert f"({size} instructions)" not in capsys.readouterr().out

    def test_fuzz_campaign_clean(self, capsys):
        code = main(["fuzz", "--cases", "2", "--quiet"])
        assert code == 0
        assert "0 with divergences" in capsys.readouterr().out
