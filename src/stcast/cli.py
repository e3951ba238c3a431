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

``--config`` points at a key=value file; individual flags override it.
Exit codes: 0 success, otherwise the failing error class's code (see
errors module).  Stage subcommands operate on the full panel they are
given; only ``pipeline`` reserves the final horizon steps for scoring.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataio, pipeline, synth
from .causal import Panel, adjust_panel, fit_did, report_parameters
from .config import load_run_config
from .errors import StcastError
from .forecaster import ForecastModel
from .pipeline import evaluate_files, model_label, run_pipeline
from .spatial import build_spatial_matrix, spatial_matrix_to_csv
from .transforms import fit_target_transform


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="run seed")


_OVERRIDE_KEYS = (
    "regions", "panel", "alpha", "post_onset_date", "target_transform",
    "distribution", "hidden_size", "num_layers", "context_len", "horizon",
    "learning_rate", "epochs", "batch_size", "grad_clip", "num_samples",
    "no_spatial", "no_factors",
)


def _add_overrides(parser: argparse.ArgumentParser, keys=_OVERRIDE_KEYS) -> None:
    typed = {
        "alpha": float, "learning_rate": float, "grad_clip": float,
        "hidden_size": int, "num_layers": int, "context_len": int,
        "horizon": int, "epochs": int, "batch_size": int, "num_samples": int,
    }
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if key in ("no_spatial", "no_factors"):
            parser.add_argument(flag, action="store_const", const=True,
                                default=None, dest=key)
        else:
            parser.add_argument(flag, type=typed.get(key, str), dest=key)


def _config_from(args: argparse.Namespace):
    overrides = {k: getattr(args, k, None) for k in _OVERRIDE_KEYS}
    overrides["out"] = getattr(args, "out", None)
    overrides["seed"] = getattr(args, "seed", None)
    return load_run_config(getattr(args, "config", None), overrides)


def _load_inputs(config):
    return dataio.ingest(config.regions, config.panel, config.onset_date())


def _transformed(panel, config):
    transform = fit_target_transform(panel.y, config.target_transform)
    return transform, Panel(
        region_ids=panel.region_ids,
        times=panel.times,
        y=transform.apply(panel.y),
        c=panel.c,
        treated=panel.treated,
        post=panel.post,
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    out = Path(args.out or "stcast-out")
    out.mkdir(parents=True, exist_ok=True)
    gamma = tuple(float(v) for v in args.gamma.split(",")) if args.gamma else (1.0, -0.5, -1.0, 0.3)
    spec = synth.GeneratorSpec(
        n_regions=args.n_regions,
        t_steps=args.t_steps,
        alpha=args.alpha,
        true_rho=args.rho,
        true_delta=args.delta,
        true_gamma=gamma,
        true_beta0=args.beta0,
        true_beta1=args.beta1,
        true_beta2=args.beta2,
        treated_fraction=args.treated_fraction,
        post_onset_index=args.post_onset_index,
        noise_sigma=args.noise_sigma,
        seed=args.seed if args.seed is not None else 0,
    )
    regions, panel, truth = synth.generate(spec)
    dataio.write_regions_csv(regions, panel.treated, out / "regions.csv")
    dataio.write_panel_csv(panel, out / "panel.csv")
    dataio.write_ground_truth_csv(truth, out / "ground_truth.csv")
    onset = panel.times[spec.post_onset_index]
    print(f"wrote {out}/regions.csv, panel.csv, ground_truth.csv "
          f"(N={panel.n}, T={panel.t}, post onset {onset.isoformat()})")
    return 0


def _cmd_build_spatial(args) -> int:
    config = _config_from(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    regions, _ = dataio.read_regions(config.regions)
    S = build_spatial_matrix(regions, config.alpha)
    spatial_matrix_to_csv(S, out / "spatial_matrix.csv")
    print(f"wrote {out / 'spatial_matrix.csv'} (N={S.n}, alpha={S.alpha})")
    return 0


def _cmd_estimate(args) -> int:
    config = _config_from(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    regions, panel = _load_inputs(config)
    _, panel_t = _transformed(panel, config)
    S = None if config.no_spatial else build_spatial_matrix(regions, config.alpha)
    estimate = fit_did(panel_t, S, no_spatial=config.no_spatial,
                       no_factors=config.no_factors)
    report = report_parameters(estimate)
    dataio.write_did_estimate_csv(estimate, out / "did_estimate.csv")
    dataio.write_parameter_report(report, out / "parameter_report.txt")
    print(report.text(), end="")
    return 0


def _cmd_adjust(args) -> int:
    config = _config_from(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    regions, panel = _load_inputs(config)
    _, panel_t = _transformed(panel, config)
    estimate = dataio.read_did_estimate(args.estimate)
    S = None if config.no_spatial else build_spatial_matrix(regions, config.alpha)
    adjusted = adjust_panel(panel_t, estimate, S, no_spatial=config.no_spatial)
    dataio.write_adjusted_csv(panel_t, adjusted, out / "adjusted_panel.csv")
    print(f"wrote {out / 'adjusted_panel.csv'}")
    return 0


def _cmd_train(args) -> int:
    config = _config_from(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _, panel = _load_inputs(config)
    _, panel_t = _transformed(panel, config)
    adjusted = dataio.read_adjusted_csv(args.adjusted, panel_t)
    model = ForecastModel(config.model_config())
    trace = model.fit(adjusted, panel_t)
    model.save(out / "model.npz")
    print(f"wrote {out / 'model.npz'} "
          f"(epochs={len(trace)}, final mean NLL {trace[-1]:.4f})")
    return 0


def _cmd_forecast(args) -> int:
    config = _config_from(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _, panel = _load_inputs(config)
    transform, panel_t = _transformed(panel, config)
    adjusted = dataio.read_adjusted_csv(args.adjusted, panel_t)
    estimate = dataio.read_did_estimate(args.estimate)
    model = ForecastModel.load(args.model)
    dist = model.forecast(adjusted.z, panel_t.y,
                          horizon=config.horizon,
                          num_samples=config.num_samples,
                          seed=config.seed + pipeline._FORECAST_SEED_OFFSET)
    # Future dates continue the panel's spacing; post holds at its final
    # value (the onset is in-sample or earlier for any sane run).
    step = panel.times[1] - panel.times[0]
    dates = [panel.times[-1] + step * (k + 1) for k in range(config.horizon)]
    post_future = np.array([
        1.0 if d >= config.onset_date() else 0.0 for d in dates
    ])
    effect = estimate.delta * np.outer(panel.treated, post_future)
    samples = transform.invert(dist.samples + effect[:, :, None])
    dataio.write_forecast_samples_csv(samples, panel.region_ids, dates,
                                      out / "forecast_samples.csv")
    print(f"wrote {out / 'forecast_samples.csv'} "
          f"({panel.n} regions x {config.horizon} steps x {config.num_samples} samples)")
    return 0


def _cmd_evaluate(args) -> int:
    out = args.out or "stcast-out"
    report, paths = evaluate_files(args.forecast, args.truth, out,
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
    _add_common(p)
    p.add_argument("--n-regions", type=int, default=6)
    p.add_argument("--t-steps", type=int, default=300)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.4)
    p.add_argument("--delta", type=float, default=-2.0)
    p.add_argument("--gamma", help="comma-separated covariate effects")
    p.add_argument("--beta0", type=float, default=1.0)
    p.add_argument("--beta1", type=float, default=0.5)
    p.add_argument("--beta2", type=float, default=-0.3)
    p.add_argument("--treated-fraction", type=float, default=0.5)
    p.add_argument("--post-onset-index", type=int, default=150)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-spatial", help="regions.csv -> spatial_matrix.csv")
    _add_common(p)
    _add_overrides(p, ("regions", "alpha"))
    p.set_defaults(func=_cmd_build_spatial)

    p = sub.add_parser("estimate", help="fit the causal regression")
    _add_common(p)
    _add_overrides(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("adjust", help="apply a fitted estimate to the panel")
    _add_common(p)
    _add_overrides(p)
    p.add_argument("--estimate", required=True, help="did_estimate.csv path")
    p.set_defaults(func=_cmd_adjust)

    p = sub.add_parser("train", help="train the probabilistic forecaster")
    _add_common(p)
    _add_overrides(p)
    p.add_argument("--adjusted", required=True, help="adjusted_panel.csv path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("forecast", help="sample future trajectories")
    _add_common(p)
    _add_overrides(p)
    p.add_argument("--model", required=True, help="model.npz path")
    p.add_argument("--adjusted", required=True, help="adjusted_panel.csv path")
    p.add_argument("--estimate", required=True, help="did_estimate.csv path")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("evaluate", help="score forecasts against truth")
    _add_common(p)
    p.add_argument("--forecast", required=True, help="forecast_samples.csv path")
    p.add_argument("--truth", required=True, help="panel.csv with observed values")
    p.add_argument("--model-name", default="external",
                   help="label for the long-format scores")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run all stages end to end")
    _add_common(p)
    _add_overrides(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StcastError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 7


if __name__ == "__main__":
    sys.exit(main())
