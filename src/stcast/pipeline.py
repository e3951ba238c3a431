"""The stage graph, shared by the CLI and ``run_pipeline``.

Each stage is one function that computes its result and writes its
artifacts into an output directory: ``transform_targets`` (writes
nothing), ``build_spatial``, ``estimate``, ``adjust``, ``train``,
``forecast`` and ``evaluate``.  ``run_pipeline`` chains them on one panel
and scores the forecast against a held-out tail: the last ``horizon``
steps are never seen by estimation, the target transforms, or training.

A run first replaces any earlier manifest with ``status=running``.  It
ends with a manifest of the configuration, seed, and SHA-256 content
hashes of all artifacts; a run that raises anything records the failing
stage and flags already-written artifacts as stale.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio
from .causal import Panel, adjust_panel, fit_did, report_parameters
from .config import RunConfig
from .errors import (AlignmentError, InputValidationError,
                     InsufficientDataError, StcastError)
from .forecaster import ForecastModel
from .metrics import score_report
from .spatial import build_spatial_matrix, spatial_matrix_to_csv
from .transforms import fit_target_transform

ARTIFACTS = (
    "spatial_matrix.csv",
    "did_estimate.csv",
    "parameter_report.txt",
    "adjusted_panel.csv",
    "model.npz",
    "forecast_samples.csv",
    "scores.csv",
    "scores_long.csv",
)

# Forecast sampling uses its own stream so that training consumes an
# identical sequence regardless of num_samples.
_FORECAST_SEED_OFFSET = 1


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, config: RunConfig, status: str,
                   failed_stage: str | None = None) -> Path:
    path = out_dir / "manifest.txt"
    lines = [f"status={status}"]
    if failed_stage:
        lines.append(f"failed_stage={failed_stage}")
    for key, value in config.items():
        lines.append(f"config.{key}={value}")
    for name in ARTIFACTS:
        artifact = out_dir / name
        if artifact.exists():
            key = "stale_artifact" if status != "ok" else "artifact_sha256"
            lines.append(f"{key}.{name}={_sha256(artifact)}")
    path.write_text("\n".join(lines) + "\n")
    return path


@contextmanager
def _stage(name: str):
    try:
        yield
    except BaseException as err:
        err.stage = name
        if isinstance(err, StcastError):
            err.args = (f"stage '{name}': {err.args[0]}",) + err.args[1:]
        raise


def model_label(config: RunConfig) -> str:
    """``<family>-full``, or the family and each ablation the run sets."""
    suffix = "-nospatial" * config.no_spatial + "-nofactors" * config.no_factors
    return config.distribution + (suffix or "-full")


def output_dir(path) -> Path:
    """The output directory, created if missing."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def transform_targets(panel: Panel, kind: str):
    """Fit the target transform on ``panel``; returns it and the panel with
    transformed targets."""
    transform = fit_target_transform(panel.y, kind)
    return transform, replace(panel, y=transform.apply(panel.y))


def build_spatial(regions, alpha: float, out: Path):
    S = build_spatial_matrix(regions, alpha)
    spatial_matrix_to_csv(S, out / "spatial_matrix.csv")
    return S


def estimate(panel_t: Panel, S, config: RunConfig, out: Path):
    """Fit the regression; returns the estimate and its parameter report."""
    est = fit_did(panel_t, S, no_spatial=config.no_spatial,
                  no_factors=config.no_factors)
    report = report_parameters(est)
    dataio.write_did_estimate_csv(est, out / "did_estimate.csv")
    dataio.write_parameter_report(report, out / "parameter_report.txt")
    return est, report


def adjust(panel_t: Panel, est, S, config: RunConfig, out: Path):
    adjusted = adjust_panel(panel_t, est, S, no_spatial=config.no_spatial)
    dataio.write_adjusted_csv(panel_t, adjusted, out / "adjusted_panel.csv")
    return adjusted


def train(adjusted, panel_t: Panel, config: RunConfig, out: Path):
    """Train the forecaster; returns the model and its per-epoch NLL trace."""
    model = ForecastModel(config)
    trace = model.fit(adjusted, panel_t)
    model.save(out / "model.npz")
    return model, trace


def forecast(model, adjusted, panel_t: Panel, transform, est, post, dates,
             config: RunConfig, out: Path) -> np.ndarray:
    """Sample ``config.horizon`` steps past the end of ``panel_t``.

    ``post`` and ``dates`` describe the forecast steps.  Samples predict
    the adjusted series; the estimated treatment effect is restored on
    treated post-period cells, then the target transform is undone.  The
    panel's regions must be the model's, in its order.
    """
    for i, (fitted, given) in enumerate(zip(model.region_ids, panel_t.region_ids)):
        if fitted != given:
            raise InputValidationError(f"panel region {i} is {given!r}, but the "
                                       f"model was fitted with {fitted!r} there")
    dist = model.forecast(
        adjusted.z, panel_t.y,
        horizon=config.horizon,
        num_samples=config.num_samples,
        seed=config.seed + _FORECAST_SEED_OFFSET,
    )
    effect = est.delta * np.outer(panel_t.treated, post)
    samples = transform.invert(dist.samples + effect[:, :, None])
    dataio.write_forecast_samples_csv(samples, panel_t.region_ids, dates,
                                      out / "forecast_samples.csv")
    return samples


def evaluate(samples, truth, region_ids, model: str, out: Path):
    """Score (N, m, s) samples against (N, m) truth; writes both score CSVs."""
    report = score_report(samples, truth, region_ids=region_ids)
    dataio.write_scores_csv(report, out / "scores.csv")
    dataio.write_scores_long_csv(report, model, truth.shape[1],
                                 out / "scores_long.csv")
    return report


def run_pipeline(config: RunConfig, regions=None, panel=None) -> dict[str, Path]:
    """Execute all stages; returns a name -> path map of artifacts.

    ``regions``/``panel`` may be passed in-memory (e.g. straight from the
    generator); otherwise they are ingested from the configured paths.
    Scoring needs ``num_samples >= 2``; a smaller count is rejected before
    anything is written.
    """
    if config.num_samples < 2:
        raise InputValidationError(
            f"pipeline scores its forecast, which needs num_samples >= 2, "
            f"got {config.num_samples}"
        )
    out_dir = output_dir(config.out)
    manifest = out_dir / "manifest.txt"
    manifest.write_text("status=running\n")
    try:
        _run_stages(config, out_dir, regions, panel)
    except BaseException as err:
        write_manifest(out_dir, config, "failed",
                       failed_stage=getattr(err, "stage", "unknown"))
        raise
    write_manifest(out_dir, config, "ok")
    artifacts = {name: out_dir / name for name in ARTIFACTS}
    artifacts["manifest.txt"] = manifest
    return artifacts


def _run_stages(config, out, regions, panel):
    with _stage("ingest"):
        if panel is None or regions is None:
            regions, panel = dataio.ingest(
                config.regions, config.panel, config.onset_date()
            )
        horizon = config.horizon
        if panel.t <= horizon:
            raise InsufficientDataError(
                f"panel has {panel.t} steps, cannot hold out horizon={horizon}"
            )
        t_start = panel.t - horizon
        cond_panel = panel.window(t_start)

    with _stage("transform"):
        transform, cond_t = transform_targets(cond_panel, config.target_transform)

    with _stage("spatial"):
        S = build_spatial(regions, config.alpha, out)

    with _stage("estimate"):
        est, _ = estimate(cond_t, S, config, out)

    with _stage("adjust"):
        adjusted = adjust(cond_t, est, S, config, out)

    with _stage("train"):
        model, _ = train(adjusted, cond_t, config, out)

    with _stage("forecast"):
        samples = forecast(model, adjusted, cond_t, transform, est,
                           panel.post[t_start:], panel.times[t_start:],
                           config, out)

    with _stage("evaluate"):
        evaluate(samples, panel.y[:, t_start:], panel.region_ids,
                 model_label(config), out)


def evaluate_files(forecast_path, truth_panel_path, out_dir,
                   model: str = "external"):
    """Score a forecast_samples.csv against a truth panel.csv.

    Cells are aligned on (region_id, date); any forecast cell missing
    from the truth file is an alignment error.
    """
    out = output_dir(out_dir)
    region_ids, dates, samples = dataio.read_forecast_samples(forecast_path)
    truth_map = dataio.read_truth_values(truth_panel_path)
    observed = np.empty((len(region_ids), len(dates)))
    for i, rid in enumerate(region_ids):
        for j, date in enumerate(dates):
            key = (rid, date)
            if key not in truth_map:
                raise AlignmentError(
                    f"truth panel has no value for ({rid}, {date.isoformat()})"
                )
            observed[i, j] = truth_map[key]
    report = evaluate(samples, observed, region_ids, model, out)
    return report, {name: out / name for name in ("scores.csv", "scores_long.csv")}
