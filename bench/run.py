"""Run one stcast benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload panel-default --seed 1 --seconds 25 --trace 0

Workloads (closed loops, one caller in one process; see ``workloads.py``):

    panel-default    paper default config (N=6, T=300, H=32, 2 layers,
                     gaussian, 100 samples, horizon 5, context 25),
                     3 epochs, 20 distinct panels per run, one in-process
                     ``stcast pipeline`` CLI call per unit
    wide-panel       N=500, T=40, 1 epoch, 100 samples, 3 panels per run,
                     same CLI call
    mc-replications  400 default-spec panels generated in set-up; one unit
                     is build_spatial_matrix -> fit_did -> adjust_panel

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to
``.bench_work/<workload>/trace-seed<n>.jsonl``).  Metric names and units
come from ``BENCHMARK.json``.  Before the result the run prints its
environment and an output digest; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics, per run.  Times are calibrated for machine speed:
wall time x (REFERENCE_LOOP_S / median time of a fixed pure-Python loop
run about once a second through the same run); see ``workloads.py``.
The uncalibrated medians are printed on the ``raw`` line.

    setup_s             median of 3 set-ups (generate and write the inputs)
    pipeline_s          median time of one unit (a CLI pipeline call, or
                        one replication on mc-replications)
    replications_per_s  units completed per second of unit time
    crps                first pass: mean held-out CRPS from scores.csv; on
                        mc-replications the mean CRPS of N(estimate, SE^2)
                        at the true rho, delta and gammas
    recovery_rate       first pass: share of the estimates of rho, delta and
                        every gamma, over all panels, within 3 reported SEs
                        of the generator truth
    peak_rss_mb         the process's own ru_maxrss

Per-layer metrics are per traced unit, in uncalibrated seconds:
``<span>_s`` is inclusive time in the spans of that name, ``*_self_s``
excludes child spans, and counts repeat exactly for a given workload.
``trace.overhead_s`` is the median traced unit minus the median untraced
unit of the same run.

The digest is a SHA-256 of forecast_samples.csv and scores.csv of every
first-pass panel, or of the coefficients, SEs and adjusted inputs of every
replication.  ``bench/digests.json`` holds reference digests per seed;
wide-panel's depend on the BLAS thread count (its large products split
across threads), the others' do not.

The correctness gate fails a unit when the CLI exits non-zero, the
manifest is not ``status=ok``, an artifact's SHA-256 differs from its
manifest entry, crps is not finite, delta lies more than 5 SEs from the
truth, or a repeat on the same inputs is not bit-identical; and fails
mc-replications when fewer than 95% of its replications have rho, delta
and every gamma within 3 SEs (the acceptance-test rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit from BENCHMARK.json, per-layer when tracing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_json(result, declared: dict[str, str]) -> dict:
    """The result object printed as the last line.  Layers a workload
    never calls have no spans and read 0."""
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.values.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }


def _reference_digest(workload: str, seed: int) -> str | None:
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    return digests.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stcast" / "__init__.py").is_file():
        print(f"error: no stcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    declared = declared_metrics(bool(args.trace))
    work = ROOT / ".bench_work"
    result = workloads.run_workload(workloads.WORKLOADS[args.workload],
                                    args.seed, args.seconds, bool(args.trace),
                                    work)
    if args.trace:
        result.tracer.write_jsonl(work / args.workload / f"trace-seed{args.seed}.jsonl")

    reference = _reference_digest(args.workload, args.seed)
    match = "none" if reference is None else str(reference == result.digest).lower()
    print("env " + json.dumps(workloads.environment()))
    print(f"digest {args.workload} seed={args.seed} sha256={result.digest} "
          f"matches_reference={match}")
    times = sorted(result.unit_seconds)
    print(f"units untraced={len(times)} min={times[0]:.6f} max={times[-1]:.6f}")
    print("raw " + " ".join(f"{k}={v!r}" for k, v in result.raw.items()))
    for error in result.errors:
        print(f"gate-failure {error}")
    print(json.dumps(result_json(result, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
