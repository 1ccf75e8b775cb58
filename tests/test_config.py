"""repro.config: one call-time reader for every REPRO_* knob, and the
``python -m repro`` CLI that sits on top of the campaign layer."""

import json

import pytest

from repro import campaigns, config
from repro.campaigns.cli import main, parse_executor


class TestConfig:
    def test_documented_defaults(self, monkeypatch):
        for var in (config.ENV_WORKERS,
                    config.ENV_SAMPLES, config.ENV_SCALE, config.ENV_JSON,
                    config.ENV_JSON_DIR):
            monkeypatch.delenv(var, raising=False)
        assert config.workers() == 0
        assert config.samples() == 200
        assert config.scale() == 1.0
        assert config.json_enabled()
        assert config.json_dir("fallback") == "fallback"

    def test_reads_at_call_time(self, monkeypatch):
        monkeypatch.setenv(config.ENV_WORKERS, "4")
        assert config.workers() == 4
        monkeypatch.setenv(config.ENV_WORKERS, "0")
        assert config.workers() == 0
        monkeypatch.setenv(config.ENV_WORKERS, "-3")
        assert config.workers() == 0  # floored

    def test_samples_scale_interaction(self, monkeypatch):
        monkeypatch.setenv(config.ENV_SAMPLES, "100")
        monkeypatch.setenv(config.ENV_SCALE, "2.5")
        assert config.samples() == 250
        assert config.scale() == 2.5

    def test_json_knobs(self, monkeypatch):
        monkeypatch.setenv(config.ENV_JSON, "off")
        assert not config.json_enabled()
        assert config.json_enabled(argv=["bench.py", "--json"])
        monkeypatch.setenv(config.ENV_JSON_DIR, "/tmp/elsewhere")
        assert config.json_dir("fallback") == "/tmp/elsewhere"

    def test_checkpoint_fsync_knob(self, monkeypatch):
        monkeypatch.delenv(config.ENV_CHECKPOINT_FSYNC, raising=False)
        assert config.checkpoint_fsync()  # durable by default
        for off in ("0", "off", "false", "NO", " 0 "):
            monkeypatch.setenv(config.ENV_CHECKPOINT_FSYNC, off)
            assert not config.checkpoint_fsync()
        monkeypatch.setenv(config.ENV_CHECKPOINT_FSYNC, "1")
        assert config.checkpoint_fsync()

    def test_service_knobs(self, monkeypatch):
        for var in (config.ENV_SERVICE_PORT, config.ENV_SERVICE_THREADS,
                    config.ENV_SERVICE_EXECUTOR):
            monkeypatch.delenv(var, raising=False)
        assert config.service_port() == 8765
        assert config.service_threads() == 2
        assert config.service_executor() == "inline-chunked"
        monkeypatch.setenv(config.ENV_SERVICE_PORT, "9000")
        monkeypatch.setenv(config.ENV_SERVICE_THREADS, "0")
        monkeypatch.setenv(config.ENV_SERVICE_EXECUTOR, " pool:2 ")
        assert config.service_port() == 9000
        assert config.service_threads() == 1  # floored at one runner
        assert config.service_executor() == "pool:2"

    def test_snapshot_keys(self):
        snap = config.snapshot()
        assert set(snap) == {"workers", "samples", "scale",
                             "json", "checkpoint_fsync", "service_port",
                             "service_threads", "service_executor"}


class TestCli:
    def _write_spec(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(campaigns.spec_to_json(spec))
        return str(path)

    def test_run_prints_result_json(self, tmp_path, capsys):
        spec = campaigns.MemorySpec(distance=3, p=2e-2, samples=16,
                                    seed=1)
        assert main(["run", self._write_spec(tmp_path, spec)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "memory"
        assert doc["provenance"]["spec_hash"] == campaigns.spec_hash(spec)

    def test_run_with_output_and_checkpoint(self, tmp_path, capsys):
        spec = campaigns.MemorySpec(distance=3, p=2e-2, samples=32,
                                    seed=2, batch_size=8)
        out = tmp_path / "result.json"
        code = main(["run", self._write_spec(tmp_path, spec),
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["counts"]["samples"] == 32
        # Second run resumes every chunk from the shard.
        assert main(["run", self._write_spec(tmp_path, spec),
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--output", str(out)]) == 0
        assert json.loads(
            out.read_text())["provenance"]["resumed_chunks"] == 4

    def test_run_sweep(self, tmp_path, capsys):
        sweep = campaigns.Sweep(
            campaigns.ThroughputSpec(num_instructions=20,
                                     strike_prob_per_slot=1e-4,
                                     strike_duration_slots=10),
            axes={"architecture": ["mbbe_free", "baseline"]})
        assert main(["run", self._write_spec(tmp_path, sweep)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "sweep"
        assert len(doc["points"]) == 2

    def test_validate_and_hash(self, tmp_path, capsys):
        spec = campaigns.DetectionSpec(distance=5, p=1e-3, p_ano=0.05,
                                       anomaly_size=2, c_win=40, trials=2)
        path = self._write_spec(tmp_path, spec)
        assert main(["validate", path]) == 0
        assert "DetectionSpec" in capsys.readouterr().out
        assert main(["hash", path]) == 0
        assert capsys.readouterr().out.strip() == campaigns.spec_hash(spec)

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "memory", "distance": 1}')
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "missing.json")]) == 1

    def test_executor_argument_parsing(self):
        assert parse_executor("inline").whole_request
        assert not parse_executor("inline-chunked").whole_request
        pool = parse_executor("pool:3")
        assert isinstance(pool, campaigns.ProcessPoolExecutor)
        assert pool.workers == 3
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_executor("gpu")

    def test_module_entry_point(self, tmp_path):
        """`python -m repro run` works end to end (the CI smoke step)."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        spec = campaigns.ThroughputSpec(num_instructions=10,
                                        strike_prob_per_slot=1e-4,
                                        strike_duration_slots=5)
        path = self._write_spec(tmp_path, spec)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", path],
            capture_output=True, text=True, check=True, env=env)
        assert json.loads(proc.stdout)["kind"] == "throughput"