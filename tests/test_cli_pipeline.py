import argparse
import datetime as dt
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from stcast import dataio, errors
from stcast.causal import AdjustedPanel
from stcast.cli import build_parser, main
from stcast.config import RunConfig, load_run_config, parse_config_file
from stcast.errors import ConfigError, InputValidationError
from stcast.forecaster import ModelConfig
from stcast.pipeline import ARTIFACTS, model_label, run_pipeline
from stcast.synth import GeneratorSpec, generate


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    """One shared synthetic dataset on disk for the CLI tests."""
    root = tmp_path_factory.mktemp("data")
    spec = GeneratorSpec(n_regions=4, t_steps=120, true_rho=0.4,
                         true_delta=-2.0, noise_sigma=0.2,
                         post_onset_index=60, seed=14)
    regions, panel, truth = generate(spec)
    dataio.write_regions_csv(regions, panel.treated, root / "regions.csv")
    dataio.write_panel_csv(panel, root / "panel.csv")
    dataio.write_ground_truth_csv(truth, root / "ground_truth.csv")
    onset = panel.times[60].isoformat()
    return {"root": root, "panel": panel, "onset": onset, "spec": spec}


@pytest.fixture(scope="module")
def trained_stages(synth_files, tmp_path_factory):
    """did_estimate.csv, adjusted_panel.csv and model.npz from the stage
    subcommands on the shared dataset."""
    out = tmp_path_factory.mktemp("stages")
    flags = as_flags(base_overrides(synth_files, out, epochs=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["estimate", *flags]) == 0
        assert main(["adjust", *flags,
                     "--estimate", str(out / "did_estimate.csv")]) == 0
        assert main(["train", *flags,
                     "--adjusted", str(out / "adjusted_panel.csv")]) == 0
    return out


def as_flags(values: dict) -> list[str]:
    """CLI flags for a dict of config values (booleans as bare switches)."""
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False:
            flags += [flag, str(value)]
    return flags


def base_overrides(synth_files, out, **extra):
    values = dict(
        regions=str(synth_files["root"] / "regions.csv"),
        panel=str(synth_files["root"] / "panel.csv"),
        out=str(out),
        post_onset_date=synth_files["onset"],
        target_transform="standardize",
        context_len=20, horizon=4, epochs=6, hidden_size=8,
        num_layers=1, num_samples=30, batch_size=32, seed=3,
    )
    values.update(extra)
    return values


class TestRunConfig:
    def test_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "alpha = 2.0\n"
            "horizon=7\n"
            "no_spatial = true\n"
        )
        with pytest.warns(RuntimeWarning, match="5:1"):   # 25:9, at load
            cfg = load_run_config(cfg_file, {"horizon": 9, "seed": 4})
        assert cfg.alpha == 2.0
        assert cfg.horizon == 9
        assert cfg.no_spatial is True
        assert cfg.seed == 4

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("learning_rat=0.1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(cfg_file)

    def test_bad_boolean_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_spatial=maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_file(cfg_file)

    def test_bad_transform_rejected(self):
        with pytest.raises(ConfigError, match="target_transform"):
            load_run_config(overrides={"target_transform": "sqrt"})

    def test_forecaster_settings_checked_at_load(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 0\n")
        with pytest.raises(InputValidationError,
                           match="epochs must be a positive integer"):
            load_run_config(cfg_file)

    def test_model_settings_declared_once(self):
        # RunConfig inherits the forecaster's settings and declares only
        # the run's own keys.
        model = [f.name for f in fields(ModelConfig)]
        run = [f.name for f in fields(RunConfig)]
        assert run[:len(model)] == model
        assert set(RunConfig.__annotations__).isdisjoint(model)

    def test_readme_table_matches_fields(self):
        # The README's key table is the user-facing copy of the defaults.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = text.split("### Configuration keys and defaults")[1]
        rows = {}
        for line in table.strip().splitlines()[2:]:
            if not line.startswith("| `"):
                break
            key, default = (cell.strip() for cell in line.split("|")[1:3])
            rows[key.strip("`")] = default
        expected = {}
        for f in fields(RunConfig):
            if f.default == "":
                expected[f.name] = "—"
            elif isinstance(f.default, bool):
                expected[f.name] = f"`{str(f.default).lower()}`"
            else:
                expected[f.name] = f"`{f.default}`"
        assert rows == expected

    def test_readme_exit_codes_match_errors(self):
        # The README's exit-code paragraph lists success and every code an
        # error class declares, and no other.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("## Exit codes")[1].split("\n## ")[0]
        documented = {int(code) for code in re.findall(r"`(\d+)`", section)}
        declared = {cls.exit_code for cls in vars(errors).values()
                    if isinstance(cls, type) and issubclass(cls, errors.StcastError)}
        assert documented == {0, *declared}

    def test_every_field_has_a_pipeline_flag(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = sub.choices["pipeline"]._option_string_actions
        for f in fields(RunConfig):
            if f.name in ("out", "seed"):
                continue
            flag = "--" + f.name.replace("_", "-")
            assert flag in flags and flags[flag].dest == f.name, flag


class TestPipeline:
    def test_end_to_end_artifacts(self, synth_files, tmp_path):
        cfg = load_run_config(overrides=base_overrides(synth_files, tmp_path / "run"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            artifacts = run_pipeline(cfg)
        for name in ("spatial_matrix.csv", "did_estimate.csv",
                     "adjusted_panel.csv", "model.npz",
                     "forecast_samples.csv", "scores.csv", "manifest.txt"):
            assert artifacts[name].exists(), name
        scores = artifacts["scores.csv"].read_text()
        for metric in ("crps", "wql,0.1", "wql,0.5", "wql,0.9",
                       "coverage_interval,0.1", "coverage_quantile,0.9",
                       "energy"):
            assert metric in scores
        manifest = artifacts["manifest.txt"].read_text()
        assert "status=ok" in manifest
        assert "artifact_sha256.forecast_samples.csv=" in manifest

    def test_determinism_byte_identical(self, synth_files, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = run_pipeline(load_run_config(
                overrides=base_overrides(synth_files, tmp_path / "a")))
            b = run_pipeline(load_run_config(
                overrides=base_overrides(synth_files, tmp_path / "b")))
        for name in ("forecast_samples.csv", "scores.csv", "did_estimate.csv",
                     "adjusted_panel.csv", "spatial_matrix.csv"):
            assert a[name].read_bytes() == b[name].read_bytes(), name

    def test_seed_changes_forecasts(self, synth_files, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = run_pipeline(load_run_config(
                overrides=base_overrides(synth_files, tmp_path / "a", seed=1)))
            b = run_pipeline(load_run_config(
                overrides=base_overrides(synth_files, tmp_path / "b", seed=2)))
        assert a["forecast_samples.csv"].read_bytes() != \
            b["forecast_samples.csv"].read_bytes()

    def test_no_spatial_ablation_contract(self, synth_files, tmp_path):
        cfg = load_run_config(overrides=base_overrides(
            synth_files, tmp_path / "ns", no_spatial=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            artifacts = run_pipeline(cfg)
        est = dataio.read_did_estimate(artifacts["did_estimate.csv"])
        assert est.rho == 0.0
        text = artifacts["adjusted_panel.csv"].read_text().splitlines()[1:]
        for line in text:
            _, _, y_tilde, z = line.split(",")
            assert y_tilde == z

    def test_no_factors_ablation_contract(self, synth_files, tmp_path):
        cfg = load_run_config(overrides=base_overrides(
            synth_files, tmp_path / "nf", no_factors=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            artifacts = run_pipeline(cfg)
        est = dataio.read_did_estimate(artifacts["did_estimate.csv"])
        assert est.gamma.size == 0

    def test_model_label_names_each_ablation(self):
        labels = {(ns, nf): model_label(RunConfig(distribution="laplace",
                                                  no_spatial=ns, no_factors=nf))
                  for ns in (False, True) for nf in (False, True)}
        assert labels == {(False, False): "laplace-full",
                          (True, False): "laplace-nospatial",
                          (False, True): "laplace-nofactors",
                          (True, True): "laplace-nospatial-nofactors"}

    def test_default_log1p_transform_end_to_end(self, tmp_path, capsys):
        # The default target transform on a positive panel, through the CLI.
        spec = GeneratorSpec(n_regions=4, t_steps=120, true_beta0=10.0,
                             post_onset_index=60, seed=14)
        regions, panel, _ = generate(spec)
        assert panel.y.min() > 0
        dataio.write_regions_csv(regions, panel.treated, tmp_path / "regions.csv")
        dataio.write_panel_csv(panel, tmp_path / "panel.csv")
        values = base_overrides({"root": tmp_path,
                                 "onset": panel.times[60].isoformat()},
                                tmp_path / "run", epochs=2)
        del values["target_transform"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pipeline", *as_flags(values)]) == 0
        capsys.readouterr()
        manifest = (tmp_path / "run" / "manifest.txt").read_text().splitlines()
        assert "status=ok" in manifest
        assert "config.target_transform=log1p-standardize" in manifest
        rows = [line.split(",") for line in
                (tmp_path / "run" / "scores.csv").read_text().splitlines()[1:]]
        crps = [float(value) for metric, level, value in rows
                if (metric, level) == ("crps", "")]
        assert len(crps) == 1 and np.isfinite(crps[0])

    def test_full_size_smoke(self, tmp_path):
        # N=6, T=300, horizon 10: the canonical run size completes and
        # scores.csv carries every reported metric row.
        spec = GeneratorSpec(n_regions=6, t_steps=300, true_rho=0.4,
                             true_delta=-2.0, noise_sigma=0.2,
                             post_onset_index=150, seed=77)
        regions, panel, _ = generate(spec)
        cfg = load_run_config(overrides=dict(
            out=str(tmp_path / "run"),
            post_onset_date=panel.times[150].isoformat(),
            target_transform="none",
            context_len=50, horizon=10, epochs=5, hidden_size=16,
            num_layers=1, num_samples=100, batch_size=256, seed=9))
        artifacts = run_pipeline(cfg, regions=regions, panel=panel)
        rows = {tuple(line.split(",")[:2])
                for line in artifacts["scores.csv"].read_text().splitlines()[1:]}
        for expected in [("crps", ""), ("energy", ""),
                         ("wql", "0.1"), ("wql", "0.5"), ("wql", "0.9"),
                         ("coverage_interval", "0.1"), ("coverage_interval", "0.5"),
                         ("coverage_interval", "0.9"),
                         ("coverage_quantile", "0.1"), ("coverage_quantile", "0.5"),
                         ("coverage_quantile", "0.9")]:
            assert expected in rows, expected
        samples_lines = artifacts["forecast_samples.csv"].read_text().splitlines()
        assert len(samples_lines) == 1 + 6 * 10 * 100

    def test_failed_stage_recorded_in_manifest(self, synth_files, tmp_path):
        overrides = base_overrides(synth_files, tmp_path / "fail")
        overrides["post_onset_date"] = "2050-01-01"   # post all zero
        cfg = load_run_config(overrides=overrides)
        with pytest.raises(Exception):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_pipeline(cfg)
        manifest = (tmp_path / "fail" / "manifest.txt").read_text()
        assert "status=failed" in manifest
        assert "failed_stage=estimate" in manifest
        assert "stale_artifact.spatial_matrix.csv=" in manifest


    def test_crash_replaces_ok_manifest(self, synth_files, tmp_path,
                                        monkeypatch):
        cfg = load_run_config(overrides=base_overrides(synth_files, tmp_path))
        manifest = tmp_path / "manifest.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(cfg)
            assert "status=ok" in manifest.read_text()
            seen = []

            def disk_full(*args):
                seen.append(manifest.read_text())
                raise OSError("No space left on device")

            monkeypatch.setattr(dataio, "write_forecast_samples_csv", disk_full)
            with pytest.raises(OSError):
                run_pipeline(cfg)
        assert seen == ["status=running\n"]
        text = manifest.read_text()
        assert "status=failed" in text
        assert "failed_stage=forecast" in text
        assert "artifact_sha256" not in text
        assert "stale_artifact.forecast_samples.csv=" in text


class TestCli:
    def test_simulate_then_pipeline(self, tmp_path, capsys):
        data = tmp_path / "sim"
        rc = main(["simulate", "--out", str(data), "--seed", "5",
                   "--n-regions", "4", "--t-steps", "100",
                   "--post-onset-index", "50"])
        assert rc == 0
        assert (data / "panel.csv").exists()
        out = capsys.readouterr().out
        onset = out.split("post onset ")[1].split(")")[0]

        run = tmp_path / "run"
        rc = main([
            "pipeline",
            "--regions", str(data / "regions.csv"),
            "--panel", str(data / "panel.csv"),
            "--out", str(run),
            "--post-onset-date", onset,
            "--target-transform", "standardize",
            "--context-len", "20", "--horizon", "4",
            "--epochs", "4", "--hidden-size", "8", "--num-layers", "1",
            "--num-samples", "20", "--seed", "2",
        ])
        assert rc == 0
        assert (run / "scores.csv").exists()

    def test_stagewise_flow(self, synth_files, tmp_path, capsys):
        root = synth_files["root"]
        common = [
            "--regions", str(root / "regions.csv"),
            "--panel", str(root / "panel.csv"),
            "--post-onset-date", synth_files["onset"],
            "--target-transform", "standardize",
        ]
        out = tmp_path / "stages"
        assert main(["build-spatial", "--regions", str(root / "regions.csv"),
                     "--out", str(out)]) == 0
        assert (out / "spatial_matrix.csv").exists()

        assert main(["estimate", *common, "--out", str(out)]) == 0
        assert (out / "did_estimate.csv").exists()

        assert main(["adjust", *common, "--out", str(out),
                     "--estimate", str(out / "did_estimate.csv")]) == 0
        assert (out / "adjusted_panel.csv").exists()

        assert main(["train", *common, "--out", str(out),
                     "--adjusted", str(out / "adjusted_panel.csv"),
                     "--context-len", "20", "--horizon", "4",
                     "--epochs", "3", "--hidden-size", "8",
                     "--num-layers", "1", "--seed", "1"]) == 0
        assert (out / "model.npz").exists()

        assert main(["forecast", *common, "--out", str(out),
                     "--model", str(out / "model.npz"),
                     "--adjusted", str(out / "adjusted_panel.csv"),
                     "--estimate", str(out / "did_estimate.csv"),
                     "--context-len", "20", "--horizon", "4",
                     "--num-samples", "10", "--seed", "1"]) == 0
        assert (out / "forecast_samples.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [
        {"target_transform": "standardize"},
        {"target_transform": "none"},
        {"target_transform": "standardize", "no_spatial": True},
    ], ids=["standardize", "none", "no-spatial"])
    def test_stages_match_pipeline_bytes(self, synth_files, tmp_path, capsys,
                                         extra):
        # Stage subcommands run on the conditioning range, then evaluate
        # against the full panel, reproduce every pipeline artifact.
        panel = synth_files["panel"]
        values = base_overrides(synth_files, tmp_path / "pipe", **extra)
        cond = tmp_path / "cond.csv"
        dataio.write_panel_csv(panel.window(panel.t - values["horizon"]), cond)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pipeline", *as_flags(values)]) == 0
            stages = tmp_path / "stages"
            flags = as_flags({**values, "panel": str(cond), "out": str(stages)})
            assert main(["build-spatial", "--regions", values["regions"],
                         "--out", str(stages)]) == 0
            assert main(["estimate", *flags]) == 0
            assert main(["adjust", *flags,
                         "--estimate", str(stages / "did_estimate.csv")]) == 0
            assert main(["train", *flags,
                         "--adjusted", str(stages / "adjusted_panel.csv")]) == 0
            assert main(["forecast", *flags,
                         "--model", str(stages / "model.npz"),
                         "--adjusted", str(stages / "adjusted_panel.csv"),
                         "--estimate", str(stages / "did_estimate.csv")]) == 0
            label = model_label(load_run_config(overrides=values))
            assert main(["evaluate", "--out", str(stages),
                         "--forecast", str(stages / "forecast_samples.csv"),
                         "--truth", values["panel"],
                         "--model-name", label]) == 0
        capsys.readouterr()
        for name in ARTIFACTS:
            assert (stages / name).read_bytes() == \
                (tmp_path / "pipe" / name).read_bytes(), name

    def test_evaluate_perfect_forecast(self, tmp_path, capsys):
        # Samples equal to the truth everywhere give zero scores.
        dates = tuple(dt.date(2021, 3, 1) + dt.timedelta(days=k)
                      for k in range(3))
        truth = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        samples = np.repeat(truth[:, :, None], 5, axis=2)
        fc = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(samples, ("a", "b"), dates, fc)
        tp = tmp_path / "truth.csv"
        with open(tp, "w") as fh:
            fh.write("region_id,date,y\n")
            for i, rid in enumerate(("a", "b")):
                for j, d in enumerate(dates):
                    fh.write(f"{rid},{d.isoformat()},{float(truth[i, j])!r}\n")
        rc = main(["evaluate", "--forecast", str(fc), "--truth", str(tp),
                   "--out", str(tmp_path / "scores")])
        assert rc == 0
        text = (tmp_path / "scores" / "scores.csv").read_text()
        assert "crps,,0.0\n" in text
        assert "energy,,0.0\n" in text
        capsys.readouterr()

    def test_evaluate_calibrated_sampler_coverage(self, tmp_path, capsys):
        # A forecaster that samples from the true distribution scores
        # close to nominal coverage through the file-based path too.
        rng = np.random.default_rng(55)
        n, m, s = 20, 50, 300
        dates = tuple(dt.date(2021, 5, 1) + dt.timedelta(days=k)
                      for k in range(m))
        rids = tuple(f"g{i:02d}" for i in range(n))
        mu = rng.normal(0, 2, size=(n, m))
        sigma = rng.uniform(0.5, 1.5, size=(n, m))
        truth = rng.normal(mu, sigma)
        samples = rng.normal(mu[:, :, None], sigma[:, :, None], size=(n, m, s))
        fc = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(samples, rids, dates, fc)
        tp = tmp_path / "truth.csv"
        with open(tp, "w") as fh:
            fh.write("region_id,date,y\n")
            for i, rid in enumerate(rids):
                for j, d in enumerate(dates):
                    fh.write(f"{rid},{d.isoformat()},{float(truth[i, j])!r}\n")
        rc = main(["evaluate", "--forecast", str(fc), "--truth", str(tp),
                   "--out", str(tmp_path / "scores")])
        assert rc == 0
        rows = {}
        for line in (tmp_path / "scores" / "scores.csv").read_text().splitlines()[1:]:
            metric, level, value = line.split(",")
            rows[(metric, level)] = float(value)
        assert abs(rows[("coverage_interval", "0.1")] - 0.9) <= 0.05
        assert abs(rows[("coverage_quantile", "0.5")] - 0.5) <= 0.05
        capsys.readouterr()

    def test_evaluate_alignment_error_exit_code(self, tmp_path, capsys):
        dates = (dt.date(2021, 3, 1),)
        samples = np.ones((1, 1, 3))
        fc = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(samples, ("a",), dates, fc)
        tp = tmp_path / "truth.csv"
        tp.write_text("region_id,date,y\nb,2021-03-01,1.0\n")
        rc = main(["evaluate", "--forecast", str(fc), "--truth", str(tp),
                   "--out", str(tmp_path / "scores")])
        assert rc == 8
        assert "error:" in capsys.readouterr().err

    def test_ingestion_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "regions.csv"
        bad.write_text("region_id,lat,lon,treated\nR00,200.0,0.0,1\n")
        rc = main(["build-spatial", "--regions", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc != 0
        capsys.readouterr()

    def test_duplicate_coefficient_exit_code(self, synth_files, tmp_path,
                                             capsys):
        # A second delta row would otherwise replace the fitted one.
        out = tmp_path / "stages"
        flags = as_flags(base_overrides(synth_files, out))
        assert main(["estimate", *flags]) == 0
        est_path = out / "did_estimate.csv"
        lines = est_path.read_text().splitlines()
        first = 1 + next(k for k, text in enumerate(lines)
                         if text.startswith("delta,"))
        est_path.write_text("\n".join(lines + ["delta,999.0,"]) + "\n")
        capsys.readouterr()
        assert main(["adjust", *flags, "--estimate", str(est_path)]) == 7
        assert (f"line {len(lines) + 1}: duplicate coefficient 'delta' "
                f"(first at line {first})") in capsys.readouterr().err
        assert not (out / "adjusted_panel.csv").exists()

    def test_unreadable_file_exit_code(self, tmp_path, capsys):
        rc = main(["build-spatial", "--regions", str(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 7
        assert "error:" in capsys.readouterr().err

    def test_simulate_defaults_are_generator_defaults(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "cli")]) == 0
        capsys.readouterr()
        regions, panel, truth = generate(GeneratorSpec())
        ref = tmp_path / "ref"
        ref.mkdir()
        dataio.write_regions_csv(regions, panel.treated, ref / "regions.csv")
        dataio.write_panel_csv(panel, ref / "panel.csv")
        dataio.write_ground_truth_csv(truth, ref / "ground_truth.csv")
        for name in ("regions.csv", "panel.csv", "ground_truth.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == \
                (ref / name).read_bytes(), name

    @pytest.mark.parametrize("bad", [
        ["--distribution", "cauchy"], ["--epochs", "0"],
        ["--grad-clip", "nan"], ["--learning-rate", "nan"],
        ["--alpha", "nan"], ["--alpha", "inf"], ["--seed", "-1"],
        ["--post-onset-date", "2020-13-40"],
    ])
    def test_invalid_setting_exits_before_any_stage_writes(
            self, synth_files, tmp_path, capsys, bad):
        out = tmp_path / "run"
        rc = main(["pipeline", *as_flags(base_overrides(synth_files, out)), *bad])
        assert rc == (9 if bad[0] == "--post-onset-date" else 2)
        assert "error:" in capsys.readouterr().err
        assert not any((out / name).exists() for name in ARTIFACTS)
        assert not out.exists()

    def test_single_sample_pipeline_exits_before_writing(
            self, synth_files, tmp_path, capsys):
        # Scoring needs two sample paths; the pipeline says so before it
        # writes a manifest or any artifact.
        out = tmp_path / "run"
        out.mkdir()
        rc = main(["pipeline", *as_flags(base_overrides(synth_files, out)),
                   "--num-samples", "1"])
        assert rc == 2
        assert "num_samples >= 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["build-spatial", "--regions", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 7
        capsys.readouterr()

    def test_nonpositive_forecast_size_exit_code(self, synth_files, tmp_path,
                                                 capsys):
        # A horizon or sample count below 1 is invalid input (exit 2) and
        # leaves no forecast behind.
        out = tmp_path / "stages"
        flags = as_flags(base_overrides(synth_files, out, epochs=2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["estimate", *flags]) == 0
            assert main(["adjust", *flags,
                         "--estimate", str(out / "did_estimate.csv")]) == 0
            assert main(["train", *flags,
                         "--adjusted", str(out / "adjusted_panel.csv")]) == 0
            for bad in (["--horizon", "0"], ["--horizon", "-1"],
                        ["--num-samples", "0"]):
                rc = main(["forecast", *flags, *bad,
                           "--model", str(out / "model.npz"),
                           "--adjusted", str(out / "adjusted_panel.csv"),
                           "--estimate", str(out / "did_estimate.csv")])
                assert rc == 2, bad
                assert not (out / "forecast_samples.csv").exists(), bad
            # One sample path is a valid forecast; only scoring needs two.
            assert main(["forecast", *flags, "--num-samples", "1",
                         "--model", str(out / "model.npz"),
                         "--adjusted", str(out / "adjusted_panel.csv"),
                         "--estimate", str(out / "did_estimate.csv")]) == 0
        assert "must be a positive integer" in capsys.readouterr().err

    def test_evaluate_duplicate_truth_row_exit_code(self, tmp_path, capsys):
        # A repeated truth cell cites its first line, as in every keyed reader.
        fc = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(np.ones((1, 1, 3)), ("a",),
                                          (dt.date(2021, 3, 1),), fc)
        tp = tmp_path / "truth.csv"
        tp.write_text("region_id,date,y\na,2021-03-01,1.0\na,2021-03-01,2.0\n")
        rc = main(["evaluate", "--forecast", str(fc), "--truth", str(tp),
                   "--out", str(tmp_path / "scores")])
        assert rc == 7
        assert ("line 3: duplicate (region, date) = (a, 2021-03-01) "
                "(first at line 2)") in capsys.readouterr().err
        assert not (tmp_path / "scores" / "scores.csv").exists()

    @pytest.mark.parametrize("defect", [
        "missing-member", "missing-parameter", "not-npz", "unknown-config-key",
        "misshaped-parameter", "config-hidden-size", "non-finite-parameter",
        "undeclared-layer", "misshaped-scaler", "nonpositive-scaler-std",
        "invalid-config-value"])
    def test_malformed_model_exit_code(self, synth_files, trained_stages,
                                       tmp_path, capsys, defect):
        # The trained model has one layer of 8 hidden units on 4 regions.
        with np.load(trained_stages / "model.npz") as data:
            arrays = dict(data.items())
        config = json.loads(str(arrays["meta.config"]))
        model = tmp_path / "model.npz"
        if defect == "missing-member":
            del arrays["scaler.z_std"]
            expected = "missing member 'scaler.z_std'"
        elif defect == "missing-parameter":
            del arrays["param.head.W"]
            expected = "missing member 'param.head.W'"
        elif defect == "not-npz":
            expected = "not an .npz checkpoint"
        elif defect == "unknown-config-key":
            arrays["meta.config"] = np.array(json.dumps({**config, "depth": 3}))
            expected = "bad meta.config"
        elif defect == "misshaped-parameter":
            arrays["param.l0.U"] = arrays["param.l0.U"][:, :, :7]
            expected = ("member 'param.l0.U' is float64 (3, 8, 7), "
                        "expected float64 (3, 8, 8)")
        elif defect == "config-hidden-size":
            arrays["meta.config"] = np.array(json.dumps({**config,
                                                         "hidden_size": 16}))
            expected = ("member 'param.l0.W' is float64 (3, 2, 8), "
                        "expected float64 (3, 2, 16)")
        elif defect == "non-finite-parameter":
            arrays["param.head.b"][1] = np.nan
            expected = "member 'param.head.b' is non-finite"
        elif defect == "nonpositive-scaler-std":
            arrays["scaler.y_std"] = -arrays["scaler.y_std"]
            expected = "member 'scaler.y_std' is not positive"
        elif defect == "invalid-config-value":
            arrays["meta.config"] = np.array(json.dumps({**config, "epochs": 0}))
            expected = "bad meta.config (epochs must be a positive integer)"
        elif defect == "undeclared-layer":
            # A second layer's blocks under a one-layer meta.config.
            for kind, shape in (("W", (3, 8, 8)), ("U", (3, 8, 8)), ("b", (3, 8))):
                arrays[f"param.l1.{kind}"] = np.zeros(shape)
            expected = "member 'param.l1.W' is not declared by meta.config"
        else:
            arrays["scaler.y_mean"] = arrays["scaler.y_mean"][:3]
            expected = ("member 'scaler.y_mean' is float64 (3,), "
                        "expected float64 (4,)")
        if defect == "not-npz":
            model.write_text("not a checkpoint\n")
        else:
            np.savez(model, **arrays)
        out = tmp_path / "out"
        rc = main(["forecast", *as_flags(base_overrides(synth_files, out)),
                   "--model", str(model),
                   "--adjusted", str(trained_stages / "adjusted_panel.csv"),
                   "--estimate", str(trained_stages / "did_estimate.csv")])
        assert rc == 7
        assert f"{model}: {expected}" in capsys.readouterr().err
        assert not (out / "forecast_samples.csv").exists()

    def test_forecast_rejects_reordered_regions(self, synth_files,
                                                trained_stages, tmp_path,
                                                capsys):
        # The same regions in reverse order would apply each region's
        # saved scaler to another region.
        lines = (synth_files["root"] / "regions.csv").read_text().splitlines()
        (tmp_path / "regions.csv").write_text(
            "\n".join([lines[0], *reversed(lines[1:])]) + "\n")
        out = tmp_path / "out"
        values = base_overrides(synth_files, out,
                                regions=str(tmp_path / "regions.csv"))
        first_fitted = synth_files["panel"].region_ids[0]
        first_given = synth_files["panel"].region_ids[-1]
        rc = main(["forecast", *as_flags(values),
                   "--model", str(trained_stages / "model.npz"),
                   "--adjusted", str(trained_stages / "adjusted_panel.csv"),
                   "--estimate", str(trained_stages / "did_estimate.csv")])
        assert rc == 2
        assert (f"panel region 0 is '{first_given}', but the model was fitted "
                f"with '{first_fitted}' there") in capsys.readouterr().err
        assert not (out / "forecast_samples.csv").exists()

    def test_single_date_panel_forecast_exit_code(self, synth_files,
                                                  trained_stages, tmp_path,
                                                  capsys):
        # Future dates continue the panel's spacing, which one date lacks.
        panel = synth_files["panel"].window(1)
        dataio.write_panel_csv(panel, tmp_path / "panel.csv")
        dataio.write_adjusted_csv(
            panel, AdjustedPanel(y_tilde=panel.y, z=panel.y),
            tmp_path / "adjusted_panel.csv")
        out = tmp_path / "out"
        values = base_overrides(synth_files, out,
                                panel=str(tmp_path / "panel.csv"))
        rc = main(["forecast", *as_flags(values),
                   "--model", str(trained_stages / "model.npz"),
                   "--adjusted", str(tmp_path / "adjusted_panel.csv"),
                   "--estimate", str(trained_stages / "did_estimate.csv")])
        assert rc == 3
        assert "needs at least 2 dates; got 1" in capsys.readouterr().err
        assert not (out / "forecast_samples.csv").exists()
