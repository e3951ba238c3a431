"""CSV schemas: ingestion with row-level diagnostics, artifact writers.

File formats (all comma-separated, ISO-8601 dates, full-precision reals
via ``repr``):

    regions.csv           region_id,lat,lon,treated
    panel.csv             region_id,date,y,<covariate columns...>
    spatial_matrix.csv    header of region ids, then N rows of N reals
    did_estimate.csv      coefficient,estimate,std_error
    adjusted_panel.csv    region_id,date,y_tilde,z
    forecast_samples.csv  region_id,date,sample,value
    ground_truth.csv      coefficient,value
    scores.csv            metric,level,value
    scores_long.csv       model,horizon,metric,value

Ingestion accepts rows in any order and sorts by (region, date); every
structural defect is reported with the offending file line.  In every
reader a row must have the header's field count, and a repeated key (region
id, coefficient, (region, date) cell) is rejected citing its first line.
"""

from __future__ import annotations

import csv
import datetime as dt
import math

import numpy as np

from .causal import (AdjustedPanel, DidEstimate, Panel, coefficient_names,
                     invalid_rows)
from .errors import AlignmentError, IngestionError
from .metrics import ScoreReport
from .spatial import Region, RegionSet


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(text: str, line: int, column: str) -> float:
    text = text.strip()
    if not text:
        raise IngestionError(f"line {line}: missing value in column '{column}'")
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(
            f"line {line}: cannot parse '{text}' in column '{column}'"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(
            f"line {line}: non-finite value in column '{column}'"
        )
    return value


def _parse_date(parsed: dict[str, dt.date], text: str, line: int) -> dt.date:
    """ISO date from ``text``, memoised in ``parsed``: each distinct string
    is parsed once, so a malformed one is reported at its first line."""
    date = parsed.get(text)
    if date is None:
        try:
            date = parsed[text] = dt.date.fromisoformat(text.strip())
        except ValueError:
            raise IngestionError(
                f"line {line}: cannot parse date '{text}' (expected YYYY-MM-DD)"
            ) from None
    return date


def _read_rows(path, expected_header: list[str], exact: bool = True):
    """(header, [(line_number, row)]) after validating the header and the
    field count of every non-blank row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if (header if exact else header[: len(expected_header)]) != expected_header:
            raise IngestionError(
                f"{path}: header is {header}, expected "
                f"{expected_header}{'' if exact else ' + covariate columns'}"
            )
        rows = [(i, row) for i, row in enumerate(reader, start=2) if row]
    for line, row in rows:
        if len(row) != len(header):
            raise IngestionError(
                f"line {line}: expected {len(header)} fields, got {len(row)}"
                + ("" if exact else " (missing covariate column?)")
            )
    return header, rows


_CELL = "(region, date) = ({0[0]}, {0[1]})"


def _record_key(seen: dict, key, line: int, what: str) -> None:
    """Note ``key``'s first line in ``seen``; a repeat raises IngestionError."""
    first = seen.setdefault(key, line)
    if first != line:
        raise IngestionError(f"line {line}: duplicate {what.format(key)} "
                             f"(first at line {first})")


# ---------------------------------------------------------------------------
# regions.csv
# ---------------------------------------------------------------------------

def read_regions(path) -> tuple[RegionSet, np.ndarray]:
    """Parse regions.csv; returns (RegionSet, treated vector)."""
    _, rows = _read_rows(path, ["region_id", "lat", "lon", "treated"])
    regions, treated = [], []
    seen = {}
    for line, row in rows:
        rid = row[0].strip()
        if not rid:
            raise IngestionError(f"line {line}: empty region_id")
        _record_key(seen, rid, line, "region_id '{}'")
        lat = _parse_float(row[1], line, "lat")
        lon = _parse_float(row[2], line, "lon")
        flag = row[3].strip()
        if flag not in ("0", "1"):
            raise IngestionError(
                f"line {line}: treated must be 0 or 1, got '{flag}'"
            )
        regions.append(Region(rid, lat, lon))
        treated.append(float(flag))
    return RegionSet(tuple(regions)), np.array(treated)


def write_regions_csv(rs: RegionSet, treated: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("region_id,lat,lon,treated\n")
        for region, flag in zip(rs.regions, treated):
            fh.write(f"{region.region_id},{_fmt(region.lat)},"
                     f"{_fmt(region.lon)},{int(flag)}\n")


# ---------------------------------------------------------------------------
# panel.csv
# ---------------------------------------------------------------------------

def read_panel(path, rs: RegionSet, treated: np.ndarray,
               post_onset_date: dt.date) -> Panel:
    """Parse and validate panel.csv against a region set."""
    header, rows = _read_rows(path, ["region_id", "date", "y"], exact=False)
    cov_names = header[3:]
    index = {rid: i for i, rid in enumerate(rs.region_ids)}

    cells: dict[tuple[str, dt.date], tuple[float, list[float]]] = {}
    first_line: dict[tuple[str, dt.date], int] = {}
    per_region = dict.fromkeys(index, 0)
    parsed: dict[str, dt.date] = {}
    for line, row in rows:
        rid = row[0].strip()
        if rid not in index:
            raise IngestionError(f"line {line}: unknown region '{rid}'")
        key = (rid, _parse_date(parsed, row[1], line))
        _record_key(first_line, key, line, _CELL)
        y = _parse_float(row[2], line, "y")
        covs = [_parse_float(row[3 + k], line, cov_names[k])
                for k in range(len(cov_names))]
        cells[key] = (y, covs)
        per_region[rid] += 1

    dates = sorted(set(parsed.values()))
    if not dates:
        raise IngestionError(f"{path}: no data rows")
    for rid, count in per_region.items():
        if count != len(dates):
            have = {d for (r, d) in cells if r == rid}
            missing = sorted(set(dates) - have)[:3]
            raise IngestionError(
                f"region '{rid}' covers {count} of {len(dates)} dates; "
                f"first missing: {missing}"
            )
    if len(dates) > 1:
        steps = {(b - a).days for a, b in zip(dates, dates[1:])}
        if len(steps) > 1:
            first_gap = next(
                b for a, b in zip(dates, dates[1:])
                if (b - a).days != min(steps)
            )
            raise IngestionError(
                f"dates unevenly spaced (gaps of {sorted(steps)} days; "
                f"first irregularity before {first_gap})"
            )

    n, t, d = rs.n, len(dates), len(cov_names)
    date_index = {date: j for j, date in enumerate(dates)}
    y = np.empty((n, t))
    c = np.empty((n, t, d))
    for (rid, date), (val, covs) in cells.items():
        i, j = index[rid], date_index[date]
        y[i, j] = val
        c[i, j, :] = covs
    post = np.array([1.0 if date >= post_onset_date else 0.0 for date in dates])
    return Panel(
        region_ids=tuple(rs.region_ids),
        times=tuple(dates),
        y=y,
        c=c,
        treated=np.asarray(treated, dtype=float),
        post=post,
    )


def write_panel_csv(panel: Panel, path) -> None:
    d = panel.d
    names = tuple(f"c{k + 1}" for k in range(d))
    with open(path, "w", newline="") as fh:
        fh.write("region_id,date," + ",".join(["y", *names]) + "\n")
        for i, rid in enumerate(panel.region_ids):
            for j, date in enumerate(panel.times):
                vals = [_fmt(panel.y[i, j])] + [
                    _fmt(panel.c[i, j, k]) for k in range(d)
                ]
                fh.write(f"{rid},{date.isoformat()}," + ",".join(vals) + "\n")


def ingest(regions_path, panel_path, post_onset_date: dt.date) -> tuple[RegionSet, Panel]:
    """regions.csv + panel.csv -> validated (RegionSet, Panel)."""
    rs, treated = read_regions(regions_path)
    return rs, read_panel(panel_path, rs, treated, post_onset_date)


def read_truth_values(path) -> dict[tuple[str, dt.date], float]:
    """(region, date) -> y map from a panel.csv, for forecast evaluation."""
    _, rows = _read_rows(path, ["region_id", "date", "y"], exact=False)
    out, first_line = {}, {}
    parsed: dict[str, dt.date] = {}
    for line, row in rows:
        key = (row[0].strip(), _parse_date(parsed, row[1], line))
        _record_key(first_line, key, line, _CELL)
        out[key] = _parse_float(row[2], line, "y")
    return out


# ---------------------------------------------------------------------------
# Estimates and adjustments
# ---------------------------------------------------------------------------

def write_did_estimate_csv(est: DidEstimate, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("coefficient,estimate,std_error\n")
        for name, (value, se) in est.table.items():
            fh.write(f"{name},{_fmt(value)},{'' if se is None else _fmt(se)}\n")
        fh.write(f"residual_variance,{_fmt(est.residual_variance)},\n")


def read_did_estimate(path) -> DidEstimate:
    """Parse did_estimate.csv.  Its rows, in any order, are exactly
    ``coefficient_names(D)`` for some D >= 0 plus ``residual_variance``;
    the estimate's table keeps the canonical order.  Any other name, a
    gamma beyond the first missing one, or a value the estimate rejects
    (a negative residual_variance, |rho| >= 1, a non-positive std_error
    when residual_variance > 0) is an IngestionError citing its line."""
    _, rows = _read_rows(path, ["coefficient", "estimate", "std_error"])
    # No well-formed file has more gammas than rows.
    known = {*coefficient_names(len(rows)), "residual_variance"}
    parsed: dict[str, tuple[float, float | None]] = {}
    first_line: dict[str, int] = {}
    for line, row in rows:
        name = row[0].strip()
        if name not in known:
            raise IngestionError(f"line {line}: unknown coefficient '{name}'")
        _record_key(first_line, name, line, "coefficient '{}'")
        se = row[2].strip()
        parsed[name] = (_parse_float(row[1], line, "estimate"),
                        _parse_float(se, line, "std_error") if se else None)
    missing = [name for name in [*coefficient_names(0), "residual_variance"]
               if name not in parsed]
    if missing:
        raise IngestionError(f"{path}: missing coefficients {missing}")
    indices = sorted(int(name[5:]) for name in parsed if name.startswith("gamma"))
    for k, index in enumerate(indices, start=1):
        if index != k:
            raise IngestionError(f"line {first_line[f'gamma{index}']}: "
                                 f"coefficient 'gamma{index}' without 'gamma{k}'")
    table = {name: parsed[name] for name in coefficient_names(len(indices))}
    residual_variance = parsed["residual_variance"][0]
    for name, err in invalid_rows(table, residual_variance):
        raise IngestionError(f"line {first_line[name]}: {err}")
    return DidEstimate(table, residual_variance)


def write_parameter_report(report: str, path) -> None:
    with open(path, "w") as fh:
        fh.write(report)


def write_adjusted_csv(panel: Panel, adjusted: AdjustedPanel, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("region_id,date,y_tilde,z\n")
        for i, rid in enumerate(panel.region_ids):
            for j, date in enumerate(panel.times):
                fh.write(f"{rid},{date.isoformat()},"
                         f"{_fmt(adjusted.y_tilde[i, j])},"
                         f"{_fmt(adjusted.z[i, j])}\n")


def read_adjusted_csv(path, panel: Panel) -> AdjustedPanel:
    _, rows = _read_rows(path, ["region_id", "date", "y_tilde", "z"])
    index = {rid: i for i, rid in enumerate(panel.region_ids)}
    dindex = {d: j for j, d in enumerate(panel.times)}
    y_tilde = np.full((panel.n, panel.t), np.nan)
    z = np.full((panel.n, panel.t), np.nan)
    parsed: dict[str, dt.date] = {}
    first_line: dict[tuple[str, dt.date], int] = {}
    for line, row in rows:
        rid = row[0].strip()
        date = _parse_date(parsed, row[1], line)
        if rid not in index or date not in dindex:
            raise AlignmentError(
                f"line {line}: ({rid}, {date}) not present in the panel"
            )
        _record_key(first_line, (rid, date), line, _CELL)
        y_tilde[index[rid], dindex[date]] = _parse_float(row[2], line, "y_tilde")
        z[index[rid], dindex[date]] = _parse_float(row[3], line, "z")
    if np.any(np.isnan(y_tilde)) or np.any(np.isnan(z)):
        raise AlignmentError(f"{path}: does not cover every panel cell")
    return AdjustedPanel(y_tilde=y_tilde, z=z)


def write_ground_truth_csv(truth: DidEstimate, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("coefficient,value\n")
        for name, (value, _) in truth.table.items():
            fh.write(f"{name},{_fmt(value)}\n")
        fh.write(f"residual_variance,{_fmt(truth.residual_variance)}\n")


# ---------------------------------------------------------------------------
# Forecast samples and scores
# ---------------------------------------------------------------------------

def write_forecast_samples_csv(samples: np.ndarray, region_ids, dates, path) -> None:
    """samples is (N, m, num_samples); rows ordered by region, date, sample."""
    samples = np.asarray(samples, dtype=float)
    n, m, _ = samples.shape
    if len(region_ids) != n or len(dates) != m:
        raise AlignmentError(
            f"samples {samples.shape} vs {len(region_ids)} regions, "
            f"{len(dates)} dates"
        )
    with open(path, "w", newline="") as fh:
        fh.write("region_id,date,sample,value\n")
        for i, rid in enumerate(region_ids):
            for j, date in enumerate(dates):
                prefix = f"{rid},{date.isoformat()},"
                fh.write("".join(
                    f"{prefix}{k},{value!r}\n"
                    for k, value in enumerate(samples[i, j].tolist())
                ))


def read_forecast_samples(path):
    """Returns (region_ids, dates, samples (N, m, num_samples))."""
    _, rows = _read_rows(path, ["region_id", "date", "sample", "value"])
    data: dict[tuple[str, dt.date], dict[int, float]] = {}
    region_order: dict[str, None] = {}     # insertion-ordered set
    parsed: dict[str, dt.date] = {}
    for line, row in rows:
        rid = row[0].strip()
        date = _parse_date(parsed, row[1], line)
        try:
            k = int(row[2])
        except ValueError:
            raise IngestionError(
                f"line {line}: sample index '{row[2]}' is not an integer"
            ) from None
        value = _parse_float(row[3], line, "value")
        region_order[rid] = None
        cell = data.setdefault((rid, date), {})
        if k in cell:
            raise IngestionError(
                f"line {line}: duplicate sample {k} for ({rid}, {date})"
            )
        cell[k] = value
    if not data:
        raise IngestionError(f"{path}: no data rows")
    dates = sorted(set(parsed.values()))
    counts = {len(v) for v in data.values()}
    if len(counts) != 1:
        raise IngestionError(
            f"{path}: ragged sample counts per cell: {sorted(counts)}"
        )
    s = counts.pop()
    n, m = len(region_order), len(dates)
    cube = np.empty((n, m, s))
    for i, rid in enumerate(region_order):
        for j, date in enumerate(dates):
            cell = data.get((rid, date))
            if cell is None:
                raise IngestionError(
                    f"{path}: missing cell ({rid}, {date})"
                )
            if sorted(cell) != list(range(s)):
                raise IngestionError(
                    f"{path}: sample indices for ({rid}, {date}) are not 0..{s - 1}"
                )
            cube[i, j, :] = [cell[k] for k in range(s)]
    return tuple(region_order), tuple(dates), cube


def write_scores_csv(report: ScoreReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("metric,level,value\n")
        for metric, level, value in report.rows():
            fh.write(f"{metric},{level},{_fmt(value)}\n")


def write_scores_long_csv(report: ScoreReport, model: str, horizon: int, path) -> None:
    """Plot-ready long format mirroring the per-horizon results layout."""
    with open(path, "w", newline="") as fh:
        fh.write("model,horizon,metric,value\n")
        for metric, level, value in report.rows():
            name = metric if not level else f"{metric}[{level}]"
            fh.write(f"{model},{horizon},{name},{_fmt(value)}\n")
