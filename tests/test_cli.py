"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_fig10_runs(self, capsys):
        assert main(["fig10", "--n", "14"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "load-managed" in out

    def test_fig9_runs_tiny(self, capsys):
        # Keep it snappy: small n still produces the full table.
        assert main(["fig9", "--n", "13"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "adaptive" in out

    def test_sweep_gamma(self, capsys):
        assert main(["sweep-gamma", "--n", "14"]) == 0
        assert "merge split" in capsys.readouterr().out

    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "--n", "13", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "profile" in stdout and "trace events" in stdout
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases

    def test_metrics_writes_summary_and_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        code = main([
            "metrics", "--n", "13",
            "--out", str(out), "--prom", str(prom),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "top queues by peak depth" in stdout
        assert "per-device utilization" in stdout
        assert "per-stage record latency" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert any(k.startswith("repro_cpu_utilization") for k in doc["final"])
        assert "repro_stage_record_latency_seconds" in "".join(doc["histograms"])
        assert "# TYPE repro_cpu_utilization gauge" in prom.read_text()

    def test_metrics_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["metrics", "--n", "12", "--out", str(a)]) == 0
        assert main(["metrics", "--n", "12", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig11"])

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "Load-Managed" in capsys.readouterr().out


class TestRecoverCli:
    def test_replicate_kill_sweep(self, capsys, tmp_path):
        import json

        out = tmp_path / "replicate.json"
        rc = main(["replicate", "--n", "11", "--seeds", "1", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "replicate soak (grid)" in stdout and "PASS" in stdout
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        # 3 r-values x 4 ASUs x 1 kill instant
        assert len(doc["cases"]) == 12
        assert all(c["invariants"]["byte_identical"] for c in doc["cases"])
        replicated = [c for c in doc["cases"] if c["params"]["r"] >= 2]
        assert replicated
        assert all(c["n_reemitted_runs"] == 0 for c in replicated)
        assert all(c["n_replayed_frags"] == 0 for c in replicated)

    def test_recover_kill_sweep_byte_identical(self, capsys, tmp_path):
        import json

        out = tmp_path / "recover.json"
        rc = main(["recover", "--n", "12", "--seeds", "2", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "recovery soak (grid)" in stdout and "PASS" in stdout
        doc = json.loads(out.read_text())
        assert doc["ok"] is True and len(doc["cases"]) == 2
        assert all(c["invariants"]["byte_identical"] for c in doc["cases"])
        assert all(c["n_attempts"] == 2 for c in doc["cases"])


    @pytest.mark.parametrize("seed", [0, 1])
    def test_partition_grid_all_cases_clean(self, capsys, tmp_path, seed):
        # The grid's cases run with the workload seed that produced the
        # reference digest, so every seed (not just 0) is byte-identical.
        import json

        out = tmp_path / "partition.json"
        rc = main([
            "partition", "--n", "12", "--seed", str(seed), "--out", str(out),
        ])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert len(doc["cases"]) == 36
        assert all(
            c["invariants"]["byte_identical_no_split_brain"]
            for c in doc["cases"]
        )
        assert all(c["ok"] for c in doc["cases"])
        assert doc["sweep_checks"]["fencing_exercised"]["ok"] is True
        assert rc == 0 and doc["ok"] is True

    def test_raising_case_is_a_violation_not_an_abort(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro.dsmsort.runtime import DsmSortJob

        verify = DsmSortJob.verify

        def exploding_verify(job):
            if len(job.faults):  # the fault-free reference still verifies
                raise RuntimeError("verify exploded")
            return verify(job)

        monkeypatch.setattr(DsmSortJob, "verify", exploding_verify)
        out = tmp_path / "replicate.json"
        rc = main([
            "replicate", "--n", "11", "--seeds", "1", "--workers", "1",
            "--out", str(out),
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["ok"] is False
        assert len(doc["cases"]) == 12  # every case ran and was recorded
        assert not any(c["ok"] for c in doc["cases"])
        assert len(doc["violations"]) == 12
        assert all(
            v.endswith("raised: RuntimeError: verify exploded")
            for v in doc["violations"]
        )
        assert all(
            c["raised_at"].endswith("in exploding_verify") for c in doc["cases"]
        )

class TestChaosCli:
    def test_list_apps_names_every_registered_app(self, capsys):
        assert main(["chaos", "--list-apps"]) == 0
        out = capsys.readouterr().out
        for app in ("dsmsort", "filterscan", "partition", "scheduler",
                    "recovery", "replicate"):
            assert app in out
        # Each line carries a one-line summary, not just the name.
        lines = [l for l in out.splitlines() if l.strip()]
        assert all(len(l.split(None, 1)) == 2 for l in lines)
