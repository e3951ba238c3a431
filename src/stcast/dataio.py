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

In every reader a row must have the header's field count, and a repeated
key is rejected citing its first line.  The panel, adjusted, sample and
truth files are one (region, date[, sample]) grid, read by ``_read_grid``
and written by ``_write_grid``: a file that is not one full grid on its
own is an IngestionError (exit 7), one whose regions or dates differ from
the artifact it is read against an AlignmentError (exit 8).
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from .causal import (AdjustedPanel, DidEstimate, Panel, coefficient_names,
                     invalid_rows)
from .errors import AlignmentError, IngestionError
from .metrics import ScoreReport
from .spatial import Region, RegionSet


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_floats(texts, line: int, columns) -> list[float]:
    """``texts`` as finite floats; the first defect raises citing ``line``."""
    values = []
    for text, column in zip(texts, columns):
        try:
            values.append(float(text))
        except ValueError:
            problem = (f"cannot parse '{text.strip()}'" if text.strip()
                       else "missing value")
            raise IngestionError(
                f"line {line}: {problem} in column '{column}'") from None
        if not math.isfinite(values[-1]):
            raise IngestionError(
                f"line {line}: non-finite value in column '{column}'")
    return values


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
    """(header, lines, rows): the validated header, then the non-blank
    rows and the line number of each, after checking every row's field
    count."""
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
        rows = list(reader)
    lines = range(2, len(rows) + 2)
    if not all(rows):
        lines = [line for line, row in zip(lines, rows) if row]
        rows = list(filter(None, rows))
    if set(map(len, rows)) - {len(header)}:
        line, row = next((line, row) for line, row in zip(lines, rows)
                         if len(row) != len(header))
        raise IngestionError(
            f"line {line}: expected {len(header)} fields, got {len(row)}"
            + ("" if exact else " (missing covariate column?)")
        )
    return header, lines, rows


def _record_key(seen: dict, key, line: int, what: str) -> None:
    """Note ``key``'s first line in ``seen``; a repeat raises IngestionError."""
    first = seen.setdefault(key, line)
    if first != line:
        raise IngestionError(f"line {line}: duplicate {what.format(key)} "
                             f"(first at line {first})")


# ---------------------------------------------------------------------------
# The (region, date) grid
# ---------------------------------------------------------------------------

_GRID_KEY = {2: "(region, date) = ({0[0]}, {0[1]})",
             3: "(region, date, sample) = ({0[0]}, {0[1]}, {0[2]})"}


def _parse_sample(text: str, line: int) -> int:
    if not text.strip().isdecimal():
        raise IngestionError(
            f"line {line}: sample index '{text}' is not an integer >= 0")
    return int(text)


def _read_grid(path, header: list[str], region_ids=None, exact: bool = True):
    """(region_ids, dates, values) of a grid file whose header starts with
    ``header``: the key (region_id, date), or (region_id, date, sample)
    when ``header[2]`` is ``sample``, then the value columns.

    ``values`` is (N, T, S, K): for each region and date, samples
    0..S-1 (S = 1 without a sample column) of the K value columns, each
    a finite float.  Each key has exactly one row.  ``region_ids`` fix
    the region axis, and a row for another region is an error; without
    them regions keep the order of their first row.  Dates are sorted.
    Every defect, including a key without a row, is an IngestionError.

    A full grid without a broken row is read column by column, each
    distinct key text parsed once; for any other file
    ``_raise_grid_defect`` finds the defect row by row.
    """
    header, lines, rows = _read_rows(path, header, exact)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    width = 3 if header[2] == "sample" else 2
    columns = [list(map(itemgetter(j), rows)) for j in range(len(header))]
    index = {rid: i for i, rid in enumerate(region_ids or ())}
    keyed = _grid_cells(columns[:width], index, region_ids is None)
    try:
        values = np.array([np.fromiter(map(float, column), float, len(rows))
                           for column in columns[width:]]).T
    except ValueError:
        values = None
    if keyed is None or values is None or not np.isfinite(values).all():
        _raise_grid_defect(path, lines, rows, header, region_ids)
    cells, dates = keyed
    grid = np.empty(values.shape)
    grid[cells] = values
    return tuple(index), tuple(dates), grid.reshape(len(index), len(dates), -1,
                                                    values.shape[1])


def _grid_cells(keys, index: dict, grow: bool):
    """(cells, dates): each row's flat (region, date, sample) position in
    the N x T x S grid and the sorted dates, from the key columns with
    each distinct text parsed once; regions missing from ``index`` are
    added when ``grow``.  None unless every key parses, every region is
    known and the rows fill the grid, each cell once."""
    regions: dict[str, int] = {}
    parsed: dict[str, dt.date] = {}
    try:
        for text in dict.fromkeys(keys[0]):
            if grow:
                index.setdefault(text.strip(), len(index))
            regions[text] = index[text.strip()]
        for text in dict.fromkeys(keys[1]):
            _parse_date(parsed, text, 0)
        samples = {text: _parse_sample(text, 0)
                   for text in dict.fromkeys(keys[2] if len(keys) == 3 else ())}
    except (KeyError, IngestionError):
        return None
    dates = sorted(set(parsed.values()))
    s = 1 + max(samples.values(), default=0)
    if len(index) * len(dates) * s != len(keys[0]):
        return None
    at = {date: j for j, date in enumerate(dates)}
    cells = (_positions(keys[0], regions) * len(dates)
             + _positions(keys[1], {text: at[d] for text, d in parsed.items()})) * s
    if samples:
        cells += _positions(keys[2], samples)
    return (cells, dates) if np.bincount(cells).max() == 1 else None


def _positions(column, position: dict) -> np.ndarray:
    return np.fromiter(map(position.__getitem__, column), np.intp, len(column))


def _raise_grid_defect(path, lines, rows, header: list[str], region_ids):
    """Raise the defect that keeps ``_read_grid``'s rows from being a full
    grid, checking them one at a time: the first broken row in line
    order, citing its line, else the first region with a key without a
    row."""
    width = 3 if header[2] == "sample" else 2
    names = header[width:]
    index = {rid: i for i, rid in enumerate(region_ids or ())}
    parsed: dict[str, dt.date] = {}
    first: dict[tuple[str, dt.date, int], int] = {}
    for line, row in zip(lines, rows):
        rid = row[0].strip()
        if rid not in index:
            if region_ids is not None:
                raise IngestionError(f"line {line}: unknown region '{rid}'")
            index[rid] = len(index)
        key = (rid, _parse_date(parsed, row[1], line),
               _parse_sample(row[2], line) if width == 3 else 0)
        _record_key(first, key, line, _GRID_KEY[width])
        _parse_floats(row[width:], line, names)

    dates = sorted(set(parsed.values()))
    t, s = len(dates), 1 + max(k for _, _, k in first)
    unit = "dates" if width == 2 else "(date, sample) keys"
    for rid in index:
        gaps = list(islice(((d, k) for d in dates for k in range(s)
                            if (rid, d, k) not in first), 3))
        if gaps:
            have = sum(key[0] == rid for key in first)
            shown = [d for d, _ in gaps] if width == 2 else gaps
            raise IngestionError(
                f"{path}: region '{rid}' covers {have} of {t * s} "
                f"{unit}; first missing: {shown}"
            )
    raise AssertionError(f"{path}: the rows fill the grid")


def _write_grid(path, header: list[str], region_ids, dates,
                values: np.ndarray) -> None:
    """Write (N, T, S, K) ``values`` as ``_read_grid`` reads them, one row
    per key in (region, date, sample) order; the sample column is written
    when ``header[2]`` is ``sample``."""
    n, t, s, k = values.shape
    if (n, t) != (len(region_ids), len(dates)):
        raise AlignmentError(f"values {values.shape[:2]} vs {len(region_ids)} "
                             f"regions, {len(dates)} dates")
    keys = [date.isoformat() for date in dates]
    if header[2] == "sample":
        keys = [f"{key},{j}" for key in keys for j in range(s)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rid, block in zip(region_ids, values):
            columns = [map(repr, col) for col in block.reshape(t * s, k).T.tolist()]
            fh.write("\n".join(map(",".join, zip(repeat(rid), keys, *columns)))
                     + "\n")


def _on_axes(path, grid, region_ids, dates, against: str, exact: bool):
    """``grid``'s (N, T, K) values at ``region_ids`` x ``dates``.  A region
    or date the grid lacks is an AlignmentError, and so, when ``exact``,
    is one it has beyond them."""
    positions = []
    for kind, have, want in (("region", grid[0], region_ids),
                             ("date", grid[1], dates)):
        at = {v: i for i, v in enumerate(have)}
        for v in want:
            if v not in at:
                raise AlignmentError(f"{path} has no {kind} '{v}' of the {against}")
        if exact and len(have) != len(want):
            extra = next(v for v in have if v not in set(want))
            raise AlignmentError(f"{path} has {kind} '{extra}', which the "
                                 f"{against} lacks")
        positions.append([at[v] for v in want])
    return grid[2][np.ix_(*positions)][:, :, 0]


# ---------------------------------------------------------------------------
# regions.csv
# ---------------------------------------------------------------------------

def read_regions(path) -> tuple[RegionSet, np.ndarray]:
    """Parse regions.csv; returns (RegionSet, treated vector)."""
    _, lines, rows = _read_rows(path, ["region_id", "lat", "lon", "treated"])
    regions, treated = [], []
    seen = {}
    for line, row in zip(lines, rows):
        rid = row[0].strip()
        if not rid:
            raise IngestionError(f"line {line}: empty region_id")
        _record_key(seen, rid, line, "region_id '{}'")
        lat, lon = _parse_floats(row[1:3], line, ("lat", "lon"))
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
    """Parse panel.csv, a grid on the region set's regions, in its order,
    whose dates must be evenly spaced."""
    region_ids, dates, values = _read_grid(path, ["region_id", "date", "y"],
                                           rs.region_ids, exact=False)
    steps = sorted({(b - a).days for a, b in zip(dates, dates[1:])})
    if len(steps) > 1:
        first_gap = next(b for a, b in zip(dates, dates[1:])
                         if (b - a).days != steps[0])
        raise IngestionError(
            f"dates unevenly spaced (gaps of {steps} days; "
            f"first irregularity before {first_gap})"
        )
    post = np.array([1.0 if date >= post_onset_date else 0.0 for date in dates])
    return Panel(
        region_ids=region_ids,
        times=dates,
        y=values[:, :, 0, 0],
        c=values[:, :, 0, 1:],
        treated=np.asarray(treated, dtype=float),
        post=post,
    )


def write_panel_csv(panel: Panel, path) -> None:
    _write_grid(path, ["region_id", "date", "y",
                       *(f"c{k + 1}" for k in range(panel.d))],
                panel.region_ids, panel.times,
                np.concatenate([panel.y[:, :, None], panel.c], axis=2)[:, :, None])


def ingest(regions_path, panel_path, post_onset_date: dt.date) -> tuple[RegionSet, Panel]:
    """regions.csv + panel.csv -> validated (RegionSet, Panel)."""
    rs, treated = read_regions(regions_path)
    return rs, read_panel(panel_path, rs, treated, post_onset_date)


def read_truth_values(path, region_ids, dates) -> np.ndarray:
    """The (N, m) ``y`` of a truth panel.csv at a forecast's regions and
    dates; the file may hold more of either."""
    grid = _read_grid(path, ["region_id", "date", "y"], exact=False)
    return _on_axes(path, grid, region_ids, dates, "forecast", exact=False)[..., 0]


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
    gamma beyond the first missing one, a std_error on residual_variance,
    or a value the estimate rejects
    (a negative residual_variance, |rho| >= 1, a non-positive std_error
    when residual_variance > 0) is an IngestionError citing its line."""
    _, lines, rows = _read_rows(path, ["coefficient", "estimate", "std_error"])
    # No well-formed file has more gammas than rows.
    known = {*coefficient_names(len(rows)), "residual_variance"}
    parsed: dict[str, tuple[float, float | None]] = {}
    first_line: dict[str, int] = {}
    for line, row in zip(lines, rows):
        name = row[0].strip()
        if name not in known:
            raise IngestionError(f"line {line}: unknown coefficient '{name}'")
        _record_key(first_line, name, line, "coefficient '{}'")
        se = row[2].strip()
        if se and name == "residual_variance":
            raise IngestionError(f"line {line}: residual_variance takes no "
                                 f"std_error, got '{se}'")
        parsed[name] = (_parse_floats(row[1:2], line, ("estimate",))[0],
                        _parse_floats([se], line, ("std_error",))[0] if se else None)
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
    _write_grid(path, ["region_id", "date", "y_tilde", "z"],
                panel.region_ids, panel.times,
                np.stack([adjusted.y_tilde, adjusted.z], axis=2)[:, :, None])


def read_adjusted_csv(path, panel: Panel) -> AdjustedPanel:
    """adjusted_panel.csv on exactly the panel's regions and dates."""
    grid = _read_grid(path, ["region_id", "date", "y_tilde", "z"])
    values = _on_axes(path, grid, panel.region_ids, panel.times, "panel",
                      exact=True)
    return AdjustedPanel(y_tilde=values[..., 0], z=values[..., 1])


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
    _write_grid(path, ["region_id", "date", "sample", "value"], region_ids,
                dates, np.asarray(samples, dtype=float)[..., None])


def read_forecast_samples(path):
    """Returns (region_ids, dates, samples (N, m, num_samples)); regions
    keep the order of their first row."""
    region_ids, dates, values = _read_grid(
        path, ["region_id", "date", "sample", "value"])
    return region_ids, dates, values[..., 0]


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
