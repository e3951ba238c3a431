"""The benchmark's workloads, their correctness gate and their metrics.

Every workload is a closed loop: one caller in one process runs a unit
of work, checks its outputs, then starts the next.  Inputs come from
``synth.generate`` with sub-seeds derived from the run seed; the program
only sees the generated CSVs (pipeline workloads) or in-memory panels
(``mc-replications``).

A run first sets up its inputs ``SETUP_REPEATS`` times (``setup_s`` is
the median), then cycles over the inputs until it has both run every
input once and spent ``seconds``.  Quality metrics and the output digest
come from the first pass over the inputs, so they depend on the seed
only; later passes must reproduce the first pass bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from stcast import causal, cli, dataio, spatial, synth
from stcast.pipeline import ARTIFACTS

from tracer import Tracer, instrument

SETUP_REPEATS = 3

# A coefficient counts as recovered within this many reported standard
# errors.  ``recovery_rate`` is the share of recovered coefficients, not of
# panels: wide-panel has only 3 panels per run, so a per-panel share would
# jump by a third at a time.
RECOVERY_SE = 3.0

# Hard per-dataset gate on the treatment effect.  On the default
# generator spec 8 of 1500 replications put delta outside 3 reported SEs,
# so a 3-SE hard gate would fail correct code in about one panel-default
# run in twelve; 5 SEs still rejects any broken estimator.
GROSS_ERROR_SE = 5.0

# mc-replications gate: share of replications with every coefficient
# recovered (the acceptance-test rule).
MIN_RECOVERY_RATE = 0.95

# End-to-end times are calibrated for machine speed.  On a shared VM the
# same work takes up to 1.6x longer from one minute to the next, so raw
# run medians of panel-default spread 15-26% (IQR/median over ten seeds).
# A fixed pure-Python loop, timed about once a second through the run,
# tracks that drift: raw times scaled by REFERENCE_LOOP_S / (median loop
# time) spread 3% on panel-default and 10% on mc-replications, against
# 21% and 16% raw on the same runs.
CALIBRATION_LOOP = 40_000
REFERENCE_LOOP_S = 0.0035


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "pipeline" (CLI on CSVs) or "mc" (estimator loop)
    n_regions: int
    t_steps: int
    post_onset_index: int
    datasets: int              # distinct inputs made in set-up
    epochs: int = 1
    num_samples: int = 100


WORKLOADS = {
    w.name: w for w in (
        Workload("panel-default", "pipeline", n_regions=6, t_steps=300,
                 post_onset_index=150, datasets=20, epochs=3),
        Workload("wide-panel", "pipeline", n_regions=500, t_steps=40,
                 post_onset_index=20, datasets=3, epochs=1),
        Workload("mc-replications", "mc", n_regions=6, t_steps=300,
                 post_onset_index=150, datasets=400),
    )
}


def _dataset_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _spec(w: Workload, seed: int, k: int) -> synth.GeneratorSpec:
    return synth.GeneratorSpec(n_regions=w.n_regions, t_steps=w.t_steps,
                               post_onset_index=w.post_onset_index,
                               seed=_dataset_seed(seed, k))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _z_scores(values: dict[str, float], ses: dict[str, float],
              truth: causal.DidEstimate) -> dict[str, float]:
    """(estimate - truth) / SE for rho, delta and every gamma."""
    true = dict(zip(truth.coefficient_names(), truth.coefficient_values()))
    names = ["rho", "delta"] + [n for n in true if n.startswith("gamma")]
    return {n: (values[n] - true[n]) / ses[n] for n in names}


def _gaussian_crps(z: float, se: float) -> float:
    """CRPS of N(estimate, se^2) at the truth, with z = (truth - estimate)/se."""
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return se * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))


class _Runner:
    """Inputs, first-pass results and gate state shared by both kinds."""

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.inputs: list = []
        self.first: dict[int, object] = {}     # input index -> first outputs
        self.crps: list[float] = []
        self.recovered: list[list[bool]] = []   # per panel, per coefficient
        self.digest = hashlib.sha256()
        self.errors: list[str] = []

    def fail(self, k: int, reason: str) -> bool:
        self.errors.append(f"input {k}: {reason}")
        return False

    def run_ok(self) -> bool:
        return True

    def record(self, k: int, first_outputs, crps: float, z: dict[str, float]) -> None:
        self.first[k] = first_outputs
        self.crps.append(crps)
        self.recovered.append([abs(v) <= RECOVERY_SE for v in z.values()])


class PipelineRunner(_Runner):
    """One unit = one in-process ``stcast pipeline`` CLI call on CSVs."""

    def __init__(self, w: Workload, seed: int, work: Path):
        super().__init__(w, seed)
        self.work = work

    def setup(self) -> None:
        self.inputs = []
        for k in range(self.w.datasets):
            spec = _spec(self.w, self.seed, k)
            regions, panel, truth = synth.generate(spec)
            d = self.work / f"d{k}"
            d.mkdir(parents=True, exist_ok=True)
            dataio.write_regions_csv(regions, panel.treated, d / "regions.csv")
            dataio.write_panel_csv(panel, d / "panel.csv")
            argv = [
                "pipeline",
                "--regions", str(d / "regions.csv"),
                "--panel", str(d / "panel.csv"),
                "--post-onset-date", panel.times[spec.post_onset_index].isoformat(),
                "--target-transform", "none",
                "--distribution", "gaussian",
                "--hidden-size", "32", "--num-layers", "2",
                "--context-len", "25", "--horizon", "5",
                "--epochs", str(self.w.epochs),
                "--num-samples", str(self.w.num_samples),
                "--out", str(d / "out"),
                "--seed", str(spec.seed),
            ]
            self.inputs.append((argv, d / "out", truth))

    def call(self, k: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.inputs[k][0])

    def check(self, k: int, code) -> bool:
        _, out, truth = self.inputs[k]
        if code != 0:
            return self.fail(k, f"exit code {code}")
        lines = (out / "manifest.txt").read_text().splitlines()
        manifest = dict(line.split("=", 1) for line in lines)
        if manifest.get("status") != "ok":
            return self.fail(k, f"manifest status {manifest.get('status')}")
        hashes = {name: manifest.get(f"artifact_sha256.{name}") for name in ARTIFACTS}
        for name, recorded in hashes.items():
            if recorded != _sha256(out / name):
                return self.fail(k, f"{name} does not match its manifest hash")
        if k in self.first:
            if hashes != self.first[k]:
                return self.fail(k, "artifacts differ from the first run on these inputs")
            return True

        scores = (out / "scores.csv").read_text().splitlines()
        crps = next(float(row.split(",")[2]) for row in scores
                    if row.startswith("crps,,"))
        if not math.isfinite(crps):
            return self.fail(k, f"crps is {crps}")
        values, ses = {}, {}
        for row in (out / "did_estimate.csv").read_text().splitlines()[1:]:
            name, value, se = row.split(",")
            values[name] = float(value)
            if se:
                ses[name] = float(se)
        z = _z_scores(values, ses, truth)
        if not abs(z["delta"]) <= GROSS_ERROR_SE:
            return self.fail(k, f"delta is {z['delta']:.2f} SEs from the truth")
        self.record(k, hashes, crps, z)
        for name in ("forecast_samples.csv", "scores.csv"):
            self.digest.update((out / name).read_bytes())
        return True


class McRunner(_Runner):
    """One unit = build_spatial_matrix -> fit_did -> adjust_panel on one
    replication held in memory."""

    def setup(self) -> None:
        self.inputs = [synth.generate(_spec(self.w, self.seed, k))
                       for k in range(self.w.datasets)]

    def call(self, k: int):
        regions, panel, _ = self.inputs[k]
        S = spatial.build_spatial_matrix(regions, 1.0)
        est = causal.fit_did(panel, S)
        adjusted = causal.adjust_panel(panel, est, S)
        return est, adjusted

    def check(self, k: int, result) -> bool:
        if result is None:
            return self.fail(k, "raised")
        est, adjusted = result
        names = est.coefficient_names()
        values = dict(zip(names, est.coefficient_values()))
        row = np.array([values[n] for n in names]
                       + [est.standard_errors[n] for n in names])
        outputs = row.tobytes() + adjusted.z.tobytes()
        if k in self.first:
            if outputs != self.first[k]:
                return self.fail(k, "outputs differ from the first run on these inputs")
            return True
        if not (np.all(np.isfinite(row)) and np.all(np.isfinite(adjusted.z))):
            return self.fail(k, "non-finite estimate or adjusted input")
        z = _z_scores(values, est.standard_errors, self.inputs[k][2])
        crps = statistics.fmean(_gaussian_crps(zv, est.standard_errors[n])
                                for n, zv in z.items())
        self.record(k, outputs, crps, z)
        self.digest.update(outputs)
        return True

    def run_ok(self) -> bool:
        rate = statistics.fmean(all(r) for r in self.recovered) if self.recovered else 0.0
        if rate < MIN_RECOVERY_RATE:
            self.errors.append(f"recovery rate {rate:.3f} < {MIN_RECOVERY_RATE}")
            return False
        return True


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas() -> dict:
    info = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _time_calibration_loop(samples: list[float]) -> None:
    """Append three timings of a fixed pure-Python loop to ``samples``."""
    for _ in range(3):
        start = perf_counter()
        n = 0
        for j in range(CALIBRATION_LOOP):
            n += j * j % 7
        samples.append(perf_counter() - start)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per traced unit: inclusive seconds per span name (as ``<span>_s``),
    every counter, and the self times the benchmark reports."""
    inclusive, own = tracer.totals()
    totals = {f"{name}_s": seconds for name, seconds in inclusive.items()}
    totals.update(tracer.counts)
    totals["forecaster.fit_self_s"] = own["forecaster.fit"]
    totals["forecaster.forecast_self_s"] = own["forecaster.forecast"]
    totals["pipeline.self_s"] = own["pipeline.main"] + own["pipeline.run"]
    totals["trace.spans"] = len(tracer.spans)
    values = {name: total / units for name, total in totals.items()}
    fit_s = inclusive["forecaster.fit"]
    values["forecaster.windows_per_s"] = (
        tracer.counts["forecaster.epoch_windows"] / fit_s if fit_s else 0.0
    )
    return values


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    values: dict[str, float]
    raw: dict[str, float]          # uncalibrated medians and the loop time
    unit_seconds: list[float]
    digest: str
    errors: list[str]
    tracer: Tracer | None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> RunResult:
    """Set up, run the closed loop, check every unit, compute metrics.

    With ``trace`` the loop alternates traced and untraced units; the
    per-layer metrics come from the traced ones and ``trace.overhead_s``
    is the difference of the two medians.
    """
    work = work / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = PipelineRunner(w, seed, work) if w.kind == "pipeline" else McRunner(w, seed)

    setup_times, loop_times = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        runner.setup()
        setup_times.append(perf_counter() - start)
        _time_calibration_loop(loop_times)

    tracer = Tracer() if trace else None
    min_units = max(len(runner.inputs), 2 if trace else 1)
    times, traced_times, failed, i = [], [], 0, 0
    loop_start = calibrated_at = perf_counter()
    while i < min_units or perf_counter() - loop_start < seconds:
        k = i % len(runner.inputs)
        if perf_counter() - calibrated_at >= 1.0:
            _time_calibration_loop(loop_times)
            calibrated_at = perf_counter()
        traced = tracer is not None and i % 2 == 0
        with (instrument(tracer) if traced else contextlib.nullcontext()):
            start = perf_counter()
            try:
                if traced:
                    tracer.run_id = i
                    with tracer.span("unit"):
                        result = runner.call(k)
                else:
                    result = runner.call(k)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            elapsed = perf_counter() - start
        (traced_times if traced else times).append(elapsed)
        try:
            ok = runner.check(k, result)
        except Exception:  # malformed outputs fail the unit, not the run
            traceback.print_exc(file=sys.stderr)
            ok = runner.fail(k, "outputs could not be read")
        failed += not ok
        i += 1

    _time_calibration_loop(loop_times)
    scale = REFERENCE_LOOP_S / statistics.median(loop_times)
    raw = {"setup_s": statistics.median(setup_times),
           "pipeline_s": statistics.median(times),
           "calibration_loop_s": statistics.median(loop_times)}

    correct = failed == 0 and runner.run_ok()
    if trace:
        values = layer_metrics(tracer, len(traced_times))
        values["trace.unit_s"] = statistics.median(traced_times)
        values["trace.overhead_s"] = (statistics.median(traced_times)
                                      - statistics.median(times))
    else:
        values = {
            "setup_s": raw["setup_s"] * scale,
            "pipeline_s": raw["pipeline_s"] * scale,
            "replications_per_s": len(times) / (sum(times) * scale),
            "crps": statistics.fmean(runner.crps) if runner.crps else 0.0,
            "recovery_rate": (statistics.fmean(hit for panel in runner.recovered
                                               for hit in panel)
                              if runner.recovered else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return RunResult(correct, i, failed, values, raw, times,
                     runner.digest.hexdigest(), runner.errors, tracer)
