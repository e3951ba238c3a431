"""Command-line entry point.

Subcommands mirror the pipeline stages so each can be rerun on the
previous stage's artifacts:

    simulate       write a synthetic regions/panel/ground-truth triple
    build-spatial  regions.csv -> spatial_matrix.csv
    estimate       fit the regression, write did_estimate.csv + report
    adjust         apply the fitted effect, write adjusted_panel.csv
    train          train the forecaster, write model.npz
    forecast       sample future trajectories -> forecast_samples.csv
    evaluate       score a forecast against a truth panel -> scores.csv
    pipeline       all stages end to end with a held-out scoring window

A stage subcommand reads its inputs, calls that stage's function in
``pipeline``, which creates ``--out`` at its first write, and prints a
summary; a command that fails before that leaves no output directory.
``pipeline`` creates ``--out`` first, since a failed run records its
manifest there; ``simulate`` creates it just before it writes.  Stage
subcommands operate on the full panel they are given; only ``pipeline``
reserves the final horizon steps for scoring.

Flags are generated from the ``RunConfig`` fields, ``simulate``'s from
the ``GeneratorSpec`` fields; ``--config`` points at a key=value file,
and flags override it.  ``simulate`` (which passes only the flags given)
and ``evaluate`` take no ``--config``, nor ``evaluate`` a ``--seed``.

A command runs with numpy's floating-point warnings off: every stage
checks its results for non-finite values and exits with its code, so an
overflow on the way shows as one ``error:`` line, not as numpy's
``RuntimeWarning`` lines.  Warnings the library raises itself, such as
the ridge fallback's, still print.

Exit codes: 0 success; 7 malformed CSV or model.npz, or any ``OSError``;
otherwise the failing error class's code (see errors module).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio, pipeline, synth
from .config import RunConfig, load_run_config
from .errors import PARSERS, InsufficientDataError, StcastError
from .forecaster import ForecastModel
from .pipeline import evaluate_files, model_label, run_pipeline
from .spatial import build_spatial_matrix


def _add_common(parser: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="run seed")


def _add_fields(parser: argparse.ArgumentParser, cls, keys=None) -> None:
    """One flag per field of ``cls`` (all, or those in ``keys``) but the
    common ``out`` and ``seed``: its name less a ``true_`` prefix, dashed,
    with that stem upper-cased as metavar, ``errors.PARSERS``' parser of
    its type and its ``help`` metadata."""
    for f in fields(cls):
        if f.name in ("out", "seed") or (keys is not None and f.name not in keys):
            continue
        stem = f.name.removeprefix("true_")
        flag = "--" + stem.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, action="store_const", const=True, dest=f.name)
        else:
            parser.add_argument(flag, type=PARSERS[f.type], dest=f.name,
                                metavar=stem.upper(), help=f.metadata.get("help"))


def _config_from(args: argparse.Namespace) -> RunConfig:
    """The run config from ``--config`` plus flags."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_run_config(getattr(args, "config", None), overrides)


def _stage_inputs(args):
    """Config, regions, and the target transform fitted on the ingested
    panel together with the transformed panel."""
    config = _config_from(args)
    regions, panel = dataio.ingest(config.regions, config.panel,
                                   config.onset_date())
    transform, panel_t = pipeline.transform_targets(panel,
                                                    config.target_transform)
    return config, regions, transform, panel_t


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(synth.GeneratorSpec)
             if getattr(args, f.name, None) is not None}
    spec = synth.GeneratorSpec(**given)
    regions, panel, truth = synth.generate(spec)
    out = Path(args.out or "stcast-out")
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_regions_csv(regions, panel.treated, out / "regions.csv")
    dataio.write_panel_csv(panel, out / "panel.csv")
    dataio.write_ground_truth_csv(truth, out / "ground_truth.csv")
    onset = panel.times[spec.post_onset_index]
    print(f"wrote {out}/regions.csv, panel.csv, ground_truth.csv "
          f"(N={panel.n}, T={panel.t}, post onset {onset.isoformat()})")
    if np.any(panel.y <= -1):
        print("y has values <= -1: run pipeline with --target-transform "
              "standardize, since the default log1p-standardize needs y > -1")
    return 0


def _cmd_build_spatial(args) -> int:
    config = _config_from(args)
    regions, _ = dataio.read_regions(config.regions)
    out = Path(config.out)
    S = pipeline.build_spatial(regions, config.alpha, out)
    print(f"wrote {out / 'spatial_matrix.csv'} (N={S.n}, alpha={S.alpha})")
    return 0


def _cmd_estimate(args) -> int:
    config, regions, _, panel_t = _stage_inputs(args)
    S = build_spatial_matrix(regions, config.alpha)
    _, report = pipeline.estimate(panel_t, S, config, Path(config.out))
    print(report, end="")
    return 0


def _cmd_adjust(args) -> int:
    config, regions, _, panel_t = _stage_inputs(args)
    est = dataio.read_did_estimate(args.estimate)
    S = build_spatial_matrix(regions, config.alpha)
    out = Path(config.out)
    pipeline.adjust(panel_t, est, S, config, out)
    print(f"wrote {out / 'adjusted_panel.csv'}")
    return 0


def _cmd_train(args) -> int:
    config, _, _, panel_t = _stage_inputs(args)
    adjusted = dataio.read_adjusted_csv(args.adjusted, panel_t)
    out = Path(config.out)
    _, trace = pipeline.train(adjusted, panel_t, config, out)
    print(f"wrote {out / 'model.npz'} "
          f"(epochs={len(trace)}, final mean NLL {trace[-1]:.4f})")
    return 0


def _cmd_forecast(args) -> int:
    config, _, transform, panel_t = _stage_inputs(args)
    if panel_t.t < 2:
        raise InsufficientDataError(f"{config.panel}: forecast dates continue the "
                                    f"date spacing, which needs at least 2 dates; got 1")
    adjusted = dataio.read_adjusted_csv(args.adjusted, panel_t)
    est = dataio.read_did_estimate(args.estimate)
    model = ForecastModel.load(args.model)
    # Future dates continue the panel's spacing; post follows the onset
    # date, so an onset inside the horizon switches the effect on there.
    step = panel_t.times[1] - panel_t.times[0]
    dates = [panel_t.times[-1] + step * (k + 1) for k in range(config.horizon)]
    post = np.array([float(d >= config.onset_date()) for d in dates])
    out = Path(config.out)
    pipeline.forecast(model, adjusted, panel_t, transform, est, post, dates,
                      config, out)
    print(f"wrote {out / 'forecast_samples.csv'} "
          f"({panel_t.n} regions x {config.horizon} steps x "
          f"{config.num_samples} samples)")
    return 0


def _cmd_evaluate(args) -> int:
    report, paths = evaluate_files(args.forecast, args.truth,
                                   args.out or "stcast-out",
                                   model=args.model_name)
    for metric, level, value in report.rows():
        label = metric if not level else f"{metric}[{level}]"
        print(f"{label:>22s}  {value:.6f}")
    print(f"wrote {paths['scores.csv']}")
    return 0


def _cmd_pipeline(args) -> int:
    config = _config_from(args)
    artifacts = run_pipeline(config)
    print(f"pipeline ok ({model_label(config)}); artifacts in {config.out}:")
    for name in sorted(artifacts):
        print(f"  {name}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stcast",
        description="Spatially-informed causal estimation and probabilistic "
                    "forecasting over regional panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic panel")
    _add_common(p, config=False)
    _add_fields(p, synth.GeneratorSpec,
                ("n_regions", "t_steps", "alpha", "true_rho", "true_delta",
                 "true_gamma", "true_beta0", "true_beta1", "true_beta2",
                 "treated_fraction", "post_onset_index", "noise_sigma"))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-spatial", help="regions.csv -> spatial_matrix.csv")
    _add_common(p)
    _add_fields(p, RunConfig, ("regions", "alpha"))
    p.set_defaults(func=_cmd_build_spatial)

    p = sub.add_parser("estimate", help="fit the causal regression")
    _add_common(p)
    _add_fields(p, RunConfig)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("adjust", help="apply a fitted estimate to the panel")
    _add_common(p)
    _add_fields(p, RunConfig)
    p.add_argument("--estimate", required=True, help="did_estimate.csv path")
    p.set_defaults(func=_cmd_adjust)

    p = sub.add_parser("train", help="train the probabilistic forecaster")
    _add_common(p)
    _add_fields(p, RunConfig)
    p.add_argument("--adjusted", required=True, help="adjusted_panel.csv path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("forecast", help="sample future trajectories")
    _add_common(p)
    _add_fields(p, RunConfig)
    p.add_argument("--model", required=True, help="model.npz path")
    p.add_argument("--adjusted", required=True, help="adjusted_panel.csv path")
    p.add_argument("--estimate", required=True, help="did_estimate.csv path")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("evaluate", help="score forecasts against truth")
    p.add_argument("--out", help="output directory")
    p.add_argument("--forecast", required=True, help="forecast_samples.csv path")
    p.add_argument("--truth", required=True, help="panel.csv with observed values")
    p.add_argument("--model-name", default="external",
                   help="label for the long-format scores")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run all stages end to end")
    _add_common(p)
    _add_fields(p, RunConfig)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except StcastError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 7


if __name__ == "__main__":
    sys.exit(main())
