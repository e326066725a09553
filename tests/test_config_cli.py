"""Tests for config parsing, CSV reporting, and the CLI verbs."""

import csv
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from orliczlab.cli import main
from orliczlab.config import ConfigError, ExperimentConfig, dump_config, load_config
from orliczlab.lab import run_experiment
from orliczlab.reports import CSV_COLUMNS, ReportError, emit_report, params_hash, result_records


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip_identity(tmp_path):
    cfg = ExperimentConfig(
        experiment="bdg_scalar",
        seed=7,
        replicates=5000,
        grid_n=256,
        params={"horizon": 2.0, "betas": [1.5, 2.0]},
    )
    assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg
    path = tmp_path / "cfg.yaml"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_config_defaults_and_minimal_mapping():
    cfg = ExperimentConfig.from_mapping({"experiment": "young"})
    assert cfg.seed == 20260825
    assert cfg.replicates is None and cfg.grid_n is None
    assert cfg.params == {}


def test_config_unknown_field_is_named():
    with pytest.raises(ConfigError, match="'replicas'"):
        ExperimentConfig.from_mapping({"experiment": "young", "replicas": 100})


def test_config_missing_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_mapping({"seed": 1})


def test_config_replicate_floor():
    with pytest.raises(ConfigError, match="at least 100"):
        ExperimentConfig(experiment="bdg_scalar", replicates=50)


def test_config_bad_types_are_named():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(experiment="young", seed=-1)
    with pytest.raises(ConfigError, match="grid_n"):
        ExperimentConfig(experiment="young", grid_n=1)
    with pytest.raises(ConfigError, match="params"):
        ExperimentConfig(experiment="young", params=[1, 2])


def test_config_gauge_typo_names_field():
    # misspelled family inside a gauge sub-config is caught at parse time
    with pytest.raises(ConfigError, match=r"params\.extra_gauges\[0\]"):
        ExperimentConfig(
            experiment="young",
            params={"extra_gauges": [{"family": "powr", "p": 2.0}]},
        )
    with pytest.raises(ConfigError, match=r"params\.gauge"):
        ExperimentConfig(experiment="young", params={"gauge": {"family": "power"}})


def test_empty_config_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)


# ---------------------------------------------------------------------------
# reports


@pytest.fixture(scope="module")
def small_run():
    cfg = ExperimentConfig(experiment="bdg_scalar", replicates=500, grid_n=64)
    return cfg, run_experiment(cfg)


def test_csv_schema_and_values(tmp_path, small_run):
    cfg, result = small_run
    emit_report(tmp_path, [(cfg, result)])
    with open(tmp_path / "bdg_scalar.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "csv must contain data rows"
    with open(tmp_path / "bdg_scalar.csv", newline="") as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == CSV_COLUMNS
    for row in rows:
        assert row["experiment"].startswith("bdg_scalar.")
        assert len(row["params-hash"]) == 12
        float(row["lhs_mean"]); float(row["rhs_mean"])  # parse round-trip
        assert row["verdict"] in ("pass", "fail")
    assert (tmp_path / "summary.txt").exists()


def test_summary_carries_tag_per_row(tmp_path, small_run):
    cfg, result = small_run
    emit_report(tmp_path, [(cfg, result)])
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    row_lines = [ln for ln in lines if ln.strip().startswith("[")]
    assert row_lines and all(ln.startswith("[bdg-scalar]") for ln in row_lines)


def test_params_hash_distinguishes_configs(small_run):
    cfg, result = small_run
    other = ExperimentConfig(experiment="bdg_scalar", replicates=500, grid_n=64, seed=1)
    row = result.reports[0]
    assert params_hash(cfg, row) != params_hash(other, row)
    assert params_hash(cfg, row) == params_hash(cfg, row)


def test_emit_rejects_empty():
    with pytest.raises(ReportError, match="no experiment results"):
        emit_report("unused", [])


def test_emit_groups_by_experiment_kind(tmp_path, small_run):
    cfg, result = small_run
    cfg2 = ExperimentConfig(experiment="moment_constant")
    result2 = run_experiment(cfg2)
    # interleaved kinds are grouped into one csv per kind, order preserved
    emit_report(tmp_path, [(cfg, result), (cfg2, result2), (cfg, result)])
    with open(tmp_path / "bdg_scalar.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(result.reports)
    assert (tmp_path / "moment_constant.csv").exists()


def test_records_use_shortest_roundtrip_floats(small_run):
    cfg, result = small_run
    rec = result_records(cfg, result)[0]
    assert float(rec["lhs_mean"]) == result.reports[0].lhs.mean


# ---------------------------------------------------------------------------
# cli


def test_cli_list_verbs():
    runner = CliRunner()
    gauges = runner.invoke(main, ["list-gauges"])
    assert gauges.exit_code == 0
    assert "power_2: t^2" in gauges.output
    experiments = runner.invoke(main, ["list-experiments"])
    assert experiments.exit_code == 0
    for name in ("young", "isometry", "good_lambda", "orlicz_bdg"):
        assert name in experiments.output


def test_cli_run_passes_and_writes_csv(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(
        {"experiment": "bdg_scalar", "replicates": 500, "grid_n": 64}
    ))
    out = tmp_path / "out"
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(config), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "bdg_scalar.csv").exists()
    assert "4/4 rows pass" in res.output


def test_cli_run_exit_one_on_failed_row(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(
        {"experiment": "moment_constant", "params": {"orders": [4.0]}}
    ))
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "out")])
    assert res.exit_code == 1


def test_cli_out_env_override(tmp_path, monkeypatch):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"experiment": "moment_constant"}))
    target = tmp_path / "from-env"
    monkeypatch.setenv("ORLICZLAB_OUT", str(target))
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(config)])
    assert res.exit_code == 0, res.output
    assert (target / "moment_constant.csv").exists()


def test_cli_flag_beats_env(tmp_path, monkeypatch):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"experiment": "moment_constant"}))
    monkeypatch.setenv("ORLICZLAB_OUT", str(tmp_path / "ignored"))
    out = tmp_path / "explicit"
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(config), "--out", str(out)])
    assert res.exit_code == 0
    assert (out / "moment_constant.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_bad_config_reports_field(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(
        {"experiment": "young", "params": {"extra_gauges": [{"family": "powr", "p": 2}]}}
    ))
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert res.exit_code != 0
    assert isinstance(res.exception, Exception)
    assert "powr" in str(res.exception) and "extra_gauges" in str(res.exception)
