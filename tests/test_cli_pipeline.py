import argparse
import datetime as dt
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

from stcast import _blas, causal, dataio, errors, heads
from stcast._blas import blas_threads
from stcast.causal import AdjustedPanel, coefficient_names
from stcast.cli import build_parser, main
from stcast.config import RunConfig, load_run_config, parse_config_file
from stcast.errors import ConfigError, InputValidationError
from stcast.forecaster import ModelConfig
from stcast.pipeline import (ARTIFACTS, model_label, run_pipeline,
                             write_manifest)
from stcast.spatial import RegionSet
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

    def test_duplicate_key_rejected(self, tmp_path):
        # A repeated key would otherwise silently win, where every CSV
        # reader rejects a repeated key.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs=3\n# comment\nalpha=2.0\n epochs = 5\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{cfg_file}:4: duplicate key 'epochs' (first at line 1)")):
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

    @pytest.mark.parametrize("key, value", [
        ("no_spatial", "false"), ("no_spatial", 2), ("no_factors", 1),
        ("no_factors", None), ("alpha", "abc"), ("alpha", True),
        ("learning_rate", "0.1"), ("learning_rate", False),
        ("grad_clip", "5"), ("grad_clip", True),
    ])
    def test_bool_and_float_keys_type_checked(self, key, value):
        # A truthy string such as "false" would otherwise switch an
        # ablation on, and a string rate or decay would raise a bare
        # TypeError.
        with pytest.raises(InputValidationError, match=key):
            RunConfig(**{key: value})
        if not isinstance(value, str) and value is not None:
            with pytest.raises(InputValidationError, match=key):
                load_run_config(overrides={key: value})

    @pytest.mark.parametrize("value", [3, None, b"x.csv", 1.5])
    @pytest.mark.parametrize("key", ["regions", "panel", "out",
                                     "post_onset_date"])
    def test_text_keys_type_checked(self, key, value):
        # An int path would be read as a file descriptor, and a non-string
        # onset date would raise a bare TypeError.
        with pytest.raises(InputValidationError,
                           match=f"^{key} must be a string, got ") as exc:
            RunConfig(**{key: value})
        assert exc.value.exit_code == 2
        if value is not None:
            with pytest.raises(InputValidationError, match=f"^{key} must be"):
                load_run_config(None, {key: value})

    def test_integer_regions_leave_the_descriptor_open(self):
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(InputValidationError, match="^regions must"):
                load_run_config(None, {"regions": read_end})
            os.fstat(read_end)
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_real_numbers_of_any_type_accepted(self):
        cfg = RunConfig(alpha=2, learning_rate=np.float64(0.5),
                        grad_clip=np.float32(3.0))
        assert (cfg.alpha, cfg.learning_rate, cfg.grad_clip) == (2, 0.5, 3.0)

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

    def test_options_pinned(self):
        # The generated flags keep the strings, dests, metavars and types
        # the hand-written ones had.
        common = [("--config", "config", "CONFIG", None),
                  ("--out", "out", "OUT", None), ("--seed", "seed", "SEED", "int")]
        run = [("--" + name.replace("_", "-"), name, name.upper(), kind)
               for name, kind in (
                   ("hidden_size", "int"), ("num_layers", "int"),
                   ("distribution", "str"), ("context_len", "int"),
                   ("horizon", "int"), ("learning_rate", "float"),
                   ("epochs", "int"), ("grad_clip", "float"),
                   ("num_samples", "int"), ("batch_size", "int"),
                   ("regions", "str"), ("panel", "str"), ("alpha", "float"),
                   ("post_onset_date", "str"), ("target_transform", "str"))]
        run += [("--no-spatial", "no_spatial", None, None),
                ("--no-factors", "no_factors", None, None)]
        simulate = [
            ("--n-regions", "n_regions", "N_REGIONS", "int"),
            ("--t-steps", "t_steps", "T_STEPS", "int"),
            ("--alpha", "alpha", "ALPHA", "float"),
            ("--rho", "true_rho", "RHO", "float"),
            ("--delta", "true_delta", "DELTA", "float"),
            ("--gamma", "true_gamma", "GAMMA", "_floats"),
            ("--beta0", "true_beta0", "BETA0", "float"),
            ("--beta1", "true_beta1", "BETA1", "float"),
            ("--beta2", "true_beta2", "BETA2", "float"),
            ("--treated-fraction", "treated_fraction", "TREATED_FRACTION",
             "float"),
            ("--post-onset-index", "post_onset_index", "POST_ONSET_INDEX",
             "int"),
            ("--noise-sigma", "noise_sigma", "NOISE_SIGMA", "float")]
        estimate = [("--estimate", "estimate", "ESTIMATE", None)]
        adjusted = [("--adjusted", "adjusted", "ADJUSTED", None)]
        expected = {
            "simulate": common[1:] + simulate,
            "build-spatial": common + [run[10], run[12]],
            "estimate": common + run,
            "adjust": common + run + estimate,
            "train": common + run + adjusted,
            "forecast": common + run + [("--model", "model", "MODEL", None),
                                        *adjusted, *estimate],
            "evaluate": [("--out", "out", "OUT", None),
                         ("--forecast", "forecast", "FORECAST", None),
                         ("--truth", "truth", "TRUTH", None),
                         ("--model-name", "model_name", "MODEL_NAME", None)],
            "pipeline": common + run,
        }
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {}
        for command, parser in sub.choices.items():
            got[command] = [
                (*a.option_strings, a.dest,
                 None if a.nargs == 0 else a.metavar or a.dest.upper(),
                 getattr(a.type, "__name__", None))
                for a in parser._actions if a.dest != "help"]
        assert got == expected
        gamma = sub.choices["simulate"]._option_string_actions["--gamma"]
        assert gamma.help == "comma-separated covariate effects"


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
        # Every artifact replaced its temporary sibling.
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
            sorted(artifacts)
        scores = artifacts["scores.csv"].read_text()
        for metric in ("crps", "wql,0.1", "wql,0.5", "wql,0.9",
                       "coverage_interval,0.1", "coverage_quantile,0.9",
                       "energy"):
            assert metric in scores
        manifest = artifacts["manifest.txt"].read_text()
        assert "status=ok" in manifest
        assert "artifact_sha256.forecast_samples.csv=" in manifest

    def test_manifest_records_run_environment(self, synth_files, tmp_path):
        # Wide-panel outputs depend on numpy's BLAS thread count, so a run
        # records it; the fit restores scipy's pool before the manifest.
        cfg = load_run_config(overrides=base_overrides(
            synth_files, tmp_path / "run", epochs=1, num_samples=5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            artifacts = run_pipeline(cfg)
        lines = artifacts["manifest.txt"].read_text().splitlines()
        env = dict(line.split("=", 1) for line in lines
                   if line.startswith("env."))
        assert env["env.nproc"] == str(os.cpu_count())
        assert env["env.numpy"] == np.__version__
        assert env["env.scipy"] == scipy.__version__
        assert {key: int(value) for key, value in env.items()
                if key.startswith("env.blas_threads.")} == {
            f"env.blas_threads.{pool}": threads
            for pool, threads in blas_threads().items()}
        assert lines.index("status=ok") == 0

    def test_manifest_omits_a_pool_it_cannot_find(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.delitem(_blas.POOLS, "numpy", raising=False)
        write_manifest(tmp_path, RunConfig(), "ok")
        text = (tmp_path / "manifest.txt").read_text()
        assert "env.blas_threads.numpy=" not in text
        assert "env.nproc=" in text

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
        assert est.table["rho"] == (0.0, None)
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
        assert list(est.table) == coefficient_names(0)

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


    def test_misordered_regions_fail_estimate(self, tmp_path):
        # In-memory regions in another order than the panel's build a
        # matrix the estimate refuses instead of fitting rho to it.
        regions, panel, _ = generate(GeneratorSpec(seed=3))
        cfg = load_run_config(overrides=dict(
            out=str(tmp_path / "run"), target_transform="standardize",
            context_len=10, horizon=2, epochs=1, num_samples=5))
        with pytest.raises(InputValidationError, match="matrix region 0 "):
            run_pipeline(cfg, panel=panel, regions=RegionSet(
                tuple(reversed(regions.regions))))
        manifest = (tmp_path / "run" / "manifest.txt").read_text()
        assert "status=failed" in manifest
        assert "failed_stage=estimate" in manifest

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
        {"target_transform": "standardize", "no_factors": True},
        {"target_transform": "standardize", "no_spatial": True,
         "no_factors": True},
    ], ids=["standardize", "none", "no-spatial", "no-factors",
            "no-spatial-no-factors"])
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

    def test_covariate_free_panel_is_the_no_factors_run(self, tmp_path,
                                                        capsys):
        # A panel.csv without covariate columns runs end to end, exactly as
        # --no-factors on the full panel; only the model label differs.
        assert main(["simulate", "--out", str(tmp_path), "--seed", "31",
                     "--n-regions", "4", "--t-steps", "80",
                     "--post-onset-index", "40", "--gamma", "0.3,-0.2"]) == 0
        onset = re.search(r"post onset (\S+)\)", capsys.readouterr().out)[1]
        full = tmp_path / "panel.csv"
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(",".join(line.split(",")[:3]) + "\n"
                                for line in full.read_text().splitlines()))
        common = ["--regions", str(tmp_path / "regions.csv"),
                  "--post-onset-date", onset,
                  "--target-transform", "standardize", "--epochs", "1",
                  "--num-samples", "10", "--context-len", "10",
                  "--horizon", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pipeline", *common, "--panel", str(bare),
                         "--out", str(tmp_path / "bare")]) == 0
            assert main(["pipeline", *common, "--panel", str(full),
                         "--no-factors", "--out", str(tmp_path / "nf")]) == 0
        capsys.readouterr()
        for name in ARTIFACTS:
            got = (tmp_path / "bare" / name).read_bytes()
            want = (tmp_path / "nf" / name).read_bytes()
            if name == "scores_long.csv":
                got = got.replace(b"gaussian-full", b"gaussian-nofactors")
            assert got == want, name

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

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_evaluate_rejects_unwritable_model_name(self, tmp_path, capsys,
                                                    char):
        # scores_long.csv is never quoted, so such a name would add fields
        # or rows to it; it exits 2 before --out exists.
        dates = (dt.date(2021, 3, 1), dt.date(2021, 3, 2))
        fc = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(np.zeros((2, 2, 3)), ("a", "b"),
                                          dates, fc)
        tp = tmp_path / "truth.csv"
        tp.write_text("region_id,date,y\n" + "".join(
            f"{rid},{d.isoformat()},0.0\n" for rid in "ab" for d in dates))
        out = tmp_path / "scores"
        rc = main(["evaluate", "--model-name", f"a{char}b", "--forecast",
                   str(fc), "--truth", str(tp), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: model name {f'a{char}b'!r} contains a comma, quote or "
            "line break\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("command, defect, code, message", [
        ("adjust", "unknown-region", 7, "unknown region 'RX'"),
        ("train", "gap", 7, "covers 119 of 120 dates; first missing"),
        ("train", "duplicate", 7, "duplicate (region, date) = "),
        ("train", "missing-date", 8, "has no date '2020-09-28' of the panel"),
        ("forecast", "extra-region", 8, "has region 'RX', which the panel lacks"),
        ("forecast", "non-finite", 7, "non-finite value in column 'z'"),
        ("evaluate", "gap", 7, "covers 119 of 120 dates; first missing"),
        ("evaluate", "missing-date", 8,
         "has no date '2020-09-28' of the forecast"),
    ], ids=["adjust-panel-unknown-region", "train-adjusted-gap",
            "train-adjusted-duplicate", "train-adjusted-missing-date",
            "forecast-adjusted-extra-region", "forecast-adjusted-non-finite",
            "evaluate-truth-gap", "evaluate-truth-missing-date"])
    def test_grid_exit_codes(self, synth_files, trained_stages, tmp_path,
                             capsys, command, defect, code, message):
        # A file that is not one full grid on its own exits 7; a full grid
        # whose regions or dates differ from its counterpart exits 8.
        panel = synth_files["panel"]
        assert panel.times[-1] == dt.date(2020, 9, 28)
        source = {"adjust": synth_files["root"] / "panel.csv",
                  "evaluate": synth_files["root"] / "panel.csv"}.get(
                      command, trained_stages / "adjusted_panel.csv")
        header, *rows = source.read_text().splitlines()
        first = panel.region_ids[0] + ","
        if defect == "unknown-region":
            rows.append("RX," + rows[0].split(",", 1)[1])
        elif defect == "gap":
            del rows[5]
        elif defect == "duplicate":
            rows.append(rows[5])
        elif defect == "missing-date":
            rows = [row for row in rows if ",2020-09-28," not in row]
        elif defect == "extra-region":
            rows += ["RX," + row[len(first):] for row in rows
                     if row.startswith(first)]
        else:
            rows[5] = rows[5].rsplit(",", 1)[0] + ",inf"
        bad = tmp_path / source.name
        bad.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "out"
        values = base_overrides(synth_files, out)
        if command == "adjust":
            values["panel"] = str(bad)
        argv = {
            "adjust": ["--estimate", str(trained_stages / "did_estimate.csv")],
            "train": ["--adjusted", str(bad)],
            "forecast": ["--model", str(trained_stages / "model.npz"),
                         "--adjusted", str(bad),
                         "--estimate", str(trained_stages / "did_estimate.csv")],
        }
        if command == "evaluate":
            fc = tmp_path / "fc.csv"
            dataio.write_forecast_samples_csv(
                np.zeros((panel.n, 2, 3)), panel.region_ids, panel.times[-2:], fc)
            argv = ["evaluate", "--forecast", str(fc), "--truth", str(bad),
                    "--out", str(out)]
        else:
            argv = [command, *as_flags(values), *argv[command]]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(
            (out / name).exists() for name in ARTIFACTS)

    def test_evaluate_shuffled_truth_same_scores(self, synth_files, tmp_path,
                                                 capsys):
        panel = synth_files["panel"]
        rng = np.random.default_rng(12)
        fc = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(
            panel.y[:, -3:, None] + rng.normal(size=(panel.n, 3, 20)),
            panel.region_ids, panel.times[-3:], fc)
        truth = synth_files["root"] / "panel.csv"
        header, *rows = truth.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(
            [header, *(rows[k] for k in rng.permutation(len(rows)))]) + "\n")
        for path, out in ((truth, "a"), (shuffled, "b")):
            assert main(["evaluate", "--forecast", str(fc), "--truth", str(path),
                         "--out", str(tmp_path / out)]) == 0
        capsys.readouterr()
        for name in ("scores.csv", "scores_long.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

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

    @pytest.mark.parametrize("old, new, message", [
        ("gamma2,", None, "coefficient 'gamma3' without 'gamma2'"),
        ("gamma1,", "gamma0,", "unknown coefficient 'gamma0'"),
        ("delta,", "deltaa,", "unknown coefficient 'deltaa'"),
    ], ids=["gamma-gap", "gamma0", "unknown-name"])
    def test_misnamed_coefficient_exit_code(self, synth_files, tmp_path,
                                            capsys, old, new, message):
        # A misnamed or missing row never renumbers another coefficient;
        # the error cites the line now holding the first offending row.
        out = tmp_path / "stages"
        flags = as_flags(base_overrides(synth_files, out))
        assert main(["estimate", *flags]) == 0
        est_path = out / "did_estimate.csv"
        lines = est_path.read_text().splitlines()
        k = next(k for k, text in enumerate(lines) if text.startswith(old))
        if new is None:
            del lines[k]
        else:
            lines[k] = new + lines[k][len(old):]
        est_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["adjust", *flags, "--estimate", str(est_path)]) == 7
        assert f"line {k + 1}: {message}" in capsys.readouterr().err
        assert not (out / "adjusted_panel.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("rho,1.0,0.05", "|rho| = 1.0000 >= 1"),
        ("delta,-2.0,0.0", "standard error of 'delta' must be positive"),
    ], ids=["rho-one", "delta-se-zero"])
    def test_rejected_value_exit_code(self, synth_files, tmp_path, capsys,
                                      row, message):
        # A value the estimate refuses is a defect of the file (exit 7),
        # not invalid input (2) or a failed estimation (4).
        out = tmp_path / "stages"
        flags = as_flags(base_overrides(synth_files, out))
        assert main(["estimate", *flags]) == 0
        est_path = out / "did_estimate.csv"
        lines = est_path.read_text().splitlines()
        name = row.split(",")[0]
        k = next(k for k, text in enumerate(lines)
                 if text.startswith(name + ","))
        lines[k] = row
        est_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["adjust", *flags, "--estimate", str(est_path)]) == 7
        assert f"line {k + 1}: {message}" in capsys.readouterr().err
        assert not (out / "adjusted_panel.csv").exists()

    def test_unreadable_file_exit_code(self, tmp_path, capsys):
        rc = main(["build-spatial", "--regions", str(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 7
        assert "error:" in capsys.readouterr().err

    def test_unwritable_artifact_exit_code(self, synth_files, tmp_path, capsys):
        # A directory where the artifact goes cannot be replaced: an
        # OSError (exit 7) that leaves the directory and no temporary file.
        out = tmp_path / "o"
        (out / "spatial_matrix.csv").mkdir(parents=True)
        rc = main(["build-spatial", "--regions",
                   str(synth_files["root"] / "regions.csv"), "--out", str(out)])
        assert rc == 7
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["spatial_matrix.csv"]
        assert (out / "spatial_matrix.csv").is_dir()

    @pytest.mark.parametrize("name, row, message", [
        ("panel.csv", b"R00,2020-06-01," + b"9" * 131_073,
         "line {line}: field larger than field limit"),
        ("panel.csv", b"R00,2020-06-01,\xff", "not utf-8 text"),
        ("regions.csv", b"R99,\xff,0.0,1", "not utf-8 text"),
    ], ids=["panel-long-field", "panel-undecodable", "regions-undecodable"])
    def test_unparseable_csv_exit_code(self, synth_files, tmp_path, capsys,
                                       name, row, message):
        # A file that does not decode or parse as CSV is malformed (exit
        # 7); the error names the file, and the line for a parse error.
        data = tmp_path / "data"
        data.mkdir()
        for part in ("regions.csv", "panel.csv"):
            (data / part).write_bytes((synth_files["root"] / part).read_bytes())
        path = data / name
        line = len(path.read_bytes().splitlines()) + 1
        with path.open("ab") as fh:
            fh.write(row + b"\n")
        out = tmp_path / "est"
        flags = as_flags(base_overrides(synth_files, out,
                                        regions=data / "regions.csv",
                                        panel=data / "panel.csv"))
        assert main(["estimate", *flags]) == 7
        assert (f"error: {path}: {message.format(line=line)}"
                in capsys.readouterr().err)
        assert not (out / "did_estimate.csv").exists()

    def test_undecodable_config_exit_code(self, synth_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs=1\n# \xff\n")
        out = tmp_path / "run"
        rc = main(["pipeline", "--config", str(cfg),
                   *as_flags(base_overrides(synth_files, out))])
        assert rc == 9
        assert f"error: {cfg}: not utf-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_bom_prefixed_config_reads_as_plain(self, tmp_path):
        text = "# run settings\nepochs = 3\nhidden_size = 8\n"
        plain = tmp_path / "plain.cfg"
        bom = tmp_path / "bom.cfg"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes("\ufeff".encode("utf-8") + text.encode("utf-8"))
        assert parse_config_file(bom) == parse_config_file(plain)
        first = "\ufeffepochs = 3\n".encode("utf-8")
        bom.write_bytes(first)
        assert parse_config_file(bom) == {"epochs": 3}

    def test_pipeline_opens_no_file_in_locale_encoding(self, synth_files,
                                                       tmp_path):
        # Every open names its encoding: with the default-encoding warning
        # raised as an error, a whole pipeline run still exits 0.
        out = tmp_path / "run"
        flags = as_flags(base_overrides(synth_files, out, epochs=1,
                                        num_samples=5, context_len=10,
                                        horizon=2))
        env = dict(os.environ, PYTHONPATH=str(Path(causal.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "stcast.cli", "pipeline",
             *flags], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "status=ok" in (out / "manifest.txt").read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("flags, hint", [([], True), (["--beta0", "10"], False)],
                             ids=["default", "beta0=10"])
    def test_simulate_names_the_transform_its_panel_needs(self, tmp_path,
                                                          capsys, flags, hint):
        # The default spec draws y <= -1, which log1p-standardize refuses.
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        y = np.array([float(row.split(",")[2]) for row
                      in (out / "panel.csv").read_text().splitlines()[1:]])
        assert bool(np.any(y <= -1)) is hint
        assert "post onset" in lines[0]
        assert lines[1:] == (["y has values <= -1: run pipeline with "
                              "--target-transform standardize, since the "
                              "default log1p-standardize needs y > -1"]
                             if hint else [])

    def test_simulate_explosive_dynamics_exit_code(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--out", str(out), "--rho", "0.99",
                   "--beta0", "1e9", "--noise-sigma", "0", "--t-steps", "60",
                   "--post-onset-index", "30"])
        assert rc == 6
        assert capsys.readouterr().err == \
            "error: dynamics exploded at step 1 (|y| > 1e+09)\n"
        assert not out.exists()

    def test_simulate_rejected_spec_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--rho", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_simulate_negative_noise_creates_no_directory(self, tmp_path,
                                                          capsys):
        # numpy would refuse the scale mid-draw; the spec refuses it first.
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--noise-sigma", "-1"]) == 2
        assert "noise_sigma must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_negative_seed_creates_no_directory(self, tmp_path,
                                                         capsys):
        # numpy's generator would refuse the seed with a bare ValueError.
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: seed must be a non-negative integer\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--rho", "nan"], "true_rho"), (["--beta0", "inf"], "true_beta0"),
        (["--delta", "nan"], "true_delta"), (["--gamma", "1,nan"], "true_gamma"),
    ], ids=["rho", "beta0", "delta", "gamma"])
    def test_simulate_non_finite_coefficient_creates_no_directory(
            self, tmp_path, capsys, flags, name):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{cfg}"],
        ["evaluate", "--config", "{cfg}"],
        ["evaluate", "--seed", "3"],
    ], ids=["simulate-config", "evaluate-config", "evaluate-seed"])
    def test_unread_common_flag_rejected(self, tmp_path, capsys, argv):
        # simulate and evaluate read no config file and evaluate draws no
        # random numbers, so argparse refuses these flags before any write.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key=1\n")
        out = tmp_path / "out"
        files = ["--forecast", str(tmp_path / "f.csv"),
                 "--truth", str(tmp_path / "t.csv")] if argv[0] == "evaluate" else []
        with pytest.raises(SystemExit) as exc:
            main([*(a.format(cfg=cfg) for a in argv), "--out", str(out), *files])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_pipeline_without_onset_date_creates_no_directory(
            self, synth_files, tmp_path, capsys):
        # Ingesting files needs the onset date; without it the run exits 9
        # before it creates --out for its manifest.
        out = tmp_path / "run"
        values = base_overrides(synth_files, out)
        del values["post_onset_date"]
        assert main(["pipeline", *as_flags(values)]) == 9
        assert "post_onset_date is required" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_cannot_hold_out_whole_panel(self, synth_files,
                                                  tmp_path, capsys):
        out = tmp_path / "run"
        t = synth_files["panel"].t
        flags = as_flags(base_overrides(synth_files, out, horizon=t))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pipeline", *flags]) == 3
        assert (f"panel has {t} steps, cannot hold out horizon={t}"
                in capsys.readouterr().err)
        manifest = (out / "manifest.txt").read_text()
        assert "status=failed\nfailed_stage=ingest\n" in manifest
        assert not any((out / name).exists() for name in ARTIFACTS)

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_divergence_exit_code(self, synth_files, trained_stages, tmp_path,
                                  capsys, monkeypatch, command):
        # A non-finite batch NLL stops training at its first batch (exit 5)
        # before model.npz is written.
        nll_and_raw_grad = heads.nll_and_raw_grad

        def diverging(raw, targets, family):
            values, d_raw = nll_and_raw_grad(raw, targets, family)
            values[0, 0] = np.inf
            return values, d_raw

        monkeypatch.setattr(heads, "nll_and_raw_grad", diverging)
        out = tmp_path / "run"
        argv = [command, *as_flags(base_overrides(synth_files, out))]
        if command == "train":
            argv += ["--adjusted", str(trained_stages / "adjusted_panel.csv")]
        assert main(argv) == 5
        assert "non-finite loss at epoch 0" in capsys.readouterr().err
        assert not (out / "model.npz").exists()
        if command == "train":
            assert not out.exists()
        else:
            manifest = (out / "manifest.txt").read_text()
            assert "status=failed\nfailed_stage=train\n" in manifest

    def test_overflow_leaves_one_error_line(self, tmp_path, capsys):
        # A run whose training overflows exits 5 with its one error: line;
        # numpy's floating-point warnings stay off the CLI's stderr.
        data = tmp_path / "data"
        assert main(["simulate", "--out", str(data), "--seed", "31",
                     "--n-regions", "4", "--t-steps", "80",
                     "--post-onset-index", "40", "--gamma", "0.3,-0.2"]) == 0
        capsys.readouterr()
        argv = ["pipeline", "--regions", str(data / "regions.csv"),
                "--panel", str(data / "panel.csv"),
                "--post-onset-date", "2020-07-11",
                "--target-transform", "standardize", "--epochs", "1",
                "--num-samples", "10", "--context-len", "10", "--horizon", "2",
                "--learning-rate", "1e300", "--grad-clip", "inf",
                "--out", str(tmp_path / "run")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 5
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: stage ")

    def test_library_warnings_still_show(self, synth_files, tmp_path,
                                         monkeypatch):
        # Only numpy's floating-point warnings are off: the context_len
        # ratio warning and the ridge fallback's still reach the user.
        monkeypatch.setattr(causal, "_COND_LIMIT", 1.0)   # every fit ridges
        out = tmp_path / "est"
        flags = as_flags(base_overrides(synth_files, out, context_len=25,
                                        horizon=9))
        with pytest.warns(RuntimeWarning) as record:
            assert main(["estimate", *flags]) == 0
        messages = [str(w.message) for w in record]
        assert any("recommended ratio is 5:1" in m for m in messages)
        assert any("solving with ridge" in m for m in messages)

    def test_evaluate_non_finite_score_exit_code(self, synth_files, tmp_path,
                                                 capsys):
        # Finite samples near 1e200 overflow the energy score's squared
        # norms; the score is refused (exit 5) before --out is created.
        panel = synth_files["panel"]
        forecast, out = tmp_path / "fc.csv", tmp_path / "eval"
        samples = 1e200 * np.random.default_rng(0).normal(size=(panel.n, 2, 5))
        dataio.write_forecast_samples_csv(samples, panel.region_ids,
                                          panel.times[-2:], forecast)
        argv = ["evaluate", "--forecast", str(forecast),
                "--truth", str(synth_files["root"] / "panel.csv"),
                "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 5
        assert "score 'energy' is non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["build-spatial", "--regions", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 7
        capsys.readouterr()

    @pytest.mark.parametrize("command, reads", [
        ("build-spatial", ["--regions"]), ("estimate", ["--panel"]),
        ("adjust", ["--estimate"]), ("train", ["--adjusted"]),
        ("forecast", ["--adjusted", "--estimate", "--model"]),
        ("evaluate", ["--forecast", "--truth"]),
    ], ids=["build-spatial", "estimate", "adjust", "train", "forecast",
            "evaluate"])
    def test_missing_input_creates_no_directory(
            self, synth_files, trained_stages, tmp_path, capsys, command,
            reads):
        # A stage command creates --out only when it writes; the missing
        # file is the one its command reads last.
        root, out = synth_files["root"], tmp_path / "out"
        forecast = tmp_path / "forecast_samples.csv"
        dataio.write_forecast_samples_csv(
            np.ones((1, 1, 3)), synth_files["panel"].region_ids[:1],
            synth_files["panel"].times[-1:], forecast)
        files = {"--regions": root / "regions.csv", "--panel": root / "panel.csv",
                 "--estimate": trained_stages / "did_estimate.csv",
                 "--adjusted": trained_stages / "adjusted_panel.csv",
                 "--model": trained_stages / "model.npz",
                 "--forecast": forecast, "--truth": root / "panel.csv",
                 reads[-1]: tmp_path / "missing.csv"}
        if command in ("build-spatial", "evaluate"):
            argv = [command, "--out", str(out)]
        else:
            argv = [command, *as_flags(base_overrides(synth_files, out))]
        for flag in reads:
            argv += [flag, str(files[flag])]
        assert main(argv) == 7
        assert str(tmp_path / "missing.csv") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("command", ["estimate", "evaluate"])
    def test_failing_stage_creates_no_directory(
            self, synth_files, tmp_path, capsys, command, existing):
        # Both read their inputs, then fail in the stage: no region is
        # treated (rank-deficient instruments, exit 4), or the forecast
        # has one sample path (exit 2).  --out appears only at the first
        # artifact write; one that already existed stays, empty.
        root, out = synth_files["root"], tmp_path / "out"
        if existing:
            out.mkdir()
        if command == "estimate":
            regions, treated = dataio.read_regions(root / "regions.csv")
            untreated = tmp_path / "untreated.csv"
            dataio.write_regions_csv(regions, np.zeros(len(treated)), untreated)
            argv = ["estimate", *as_flags(base_overrides(synth_files, out)),
                    "--regions", str(untreated)]
            code, message = 4, "rank-deficient instrument matrix"
        else:
            forecast = tmp_path / "forecast_samples.csv"
            dataio.write_forecast_samples_csv(
                np.ones((1, 1, 1)), synth_files["panel"].region_ids[:1],
                synth_files["panel"].times[-1:], forecast)
            argv = ["evaluate", "--forecast", str(forecast),
                    "--truth", str(root / "panel.csv"), "--out", str(out)]
            code, message = 2, "sample"
        assert main(argv) == code
        assert message in capsys.readouterr().err
        if existing:
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()

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
        "invalid-config-value", "float-config-value"])
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
        elif defect == "float-config-value":
            # 8.0 == 8, so the parameter shapes alone would accept it.
            arrays["meta.config"] = np.array(json.dumps({**config,
                                                         "hidden_size": 8.0}))
            expected = "bad meta.config (hidden_size must be a positive integer)"
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

    @pytest.mark.parametrize("defect", ["0-d", "repeated"])
    def test_malformed_model_region_ids_exit_code(
            self, synth_files, trained_stages, tmp_path, capsys, defect):
        with np.load(trained_stages / "model.npz") as data:
            arrays = dict(data.items())
        ids = [str(r) for r in arrays["meta.region_ids"]]
        if defect == "0-d":
            arrays["meta.region_ids"] = np.array(ids[0])
            expected = "member 'meta.region_ids' is (), expected one id per region"
        else:
            arrays["meta.region_ids"] = np.array([ids[1], *ids[1:]])
            expected = (f"member 'meta.region_ids' has duplicate region ids: "
                        f"['{ids[1]}']")
        model = tmp_path / "model.npz"
        np.savez(model, **arrays)
        out = tmp_path / "out"
        rc = main(["forecast", *as_flags(base_overrides(synth_files, out)),
                   "--model", str(model),
                   "--adjusted", str(trained_stages / "adjusted_panel.csv"),
                   "--estimate", str(trained_stages / "did_estimate.csv")])
        assert rc == 7
        assert f"error: {model}: {expected}\n" == capsys.readouterr().err
        assert not out.exists()

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
