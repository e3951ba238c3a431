"""CSV schemas: ingestion with row-level diagnostics, artifact writers.

This is the only module that writes a CSV: each table goes through
``_write_table`` (a header, then rows of text fields, comma-joined) and
each grid through ``_write_grid``.  Every artifact, ``model.npz`` and the
manifest included, is written through ``replacing``, a temporary sibling
that replaces the file whole, so an error or a killed process never
leaves a truncated artifact.

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
key is rejected citing its first line.  No reader accepts a region id that
the writers, which never quote, could not write back.  The panel,
adjusted, sample and truth files are one (region, date[, sample]) grid,
read in one column-wise pass by ``_read_grid`` and written by
``_write_grid``: a file that is not one full grid on its own is an
IngestionError (exit 7) naming its first broken row, or its first gap
when no row is broken; one whose regions or dates differ from the
artifact it is read against is an AlignmentError (exit 8).
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .causal import (AdjustedPanel, DidEstimate, Panel, coefficient_names,
                     invalid_rows)
from .errors import AlignmentError, IngestionError
from .metrics import ScoreReport
from .spatial import Region, RegionSet, SpatialMatrix


def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def replacing(path, mode: str = "w", newline: str | None = None):
    """A file to write ``path`` through: it is opened on a temporary sibling
    (permissions follow the umask; text is UTF-8), which replaces ``path``
    when the block ends.  On any exception the sibling is removed and
    ``path`` is left as it was.  An ``OSError`` that names the sibling
    names ``path`` instead.  Nothing is fsynced: a raised error or a
    killed process never leaves a part-written artifact, but a power loss
    may."""
    target = Path(path)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, newline=newline,
                  encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temp, target)
    except BaseException as err:
        temp.unlink(missing_ok=True)
        if isinstance(err, OSError) and err.filename == str(temp):
            raise OSError(err.errno, err.strerror, str(target)) from err
        raise


def _write_table(path, header, rows) -> None:
    """Write ``header``, then each row of text fields, comma-joined."""
    with replacing(path, newline="") as fh:
        fh.writelines(",".join(row) + "\n" for row in chain([header], rows))


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


def _read_rows(path, expected_header: list[str], exact: bool = True):
    """(header, lines, rows): the validated header, then the non-blank
    rows and the line number of each, after checking every row's field
    count.  The file decodes as UTF-8, a leading byte-order mark skipped;
    one that does not decode or parse as CSV (such as a field over csv's
    size limit) raises IngestionError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as err:
            raise IngestionError(f"{path}: line {reader.line_num}: {err}") from None
        except UnicodeDecodeError as err:
            raise IngestionError(
                f"{path}: not {err.encoding} text ({err.reason})") from None
    if header is None:
        raise IngestionError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if (header if exact else header[: len(expected_header)]) != expected_header:
        raise IngestionError(
            f"{path}: header is {header}, expected "
            f"{expected_header}{'' if exact else ' + covariate columns'}"
        )
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


# The writers never quote, so a region id must not hold these.
_REGION_ID_BREAKS = frozenset(',"\r\n')


def _check_region_id(rid: str, line: int) -> None:
    if not _REGION_ID_BREAKS.isdisjoint(rid):
        raise IngestionError(f"line {line}: region_id {rid!r} contains a "
                             "comma, quote or line break")


# ---------------------------------------------------------------------------
# The (region, date) grid
# ---------------------------------------------------------------------------

_GRID_KEY = {2: "(region, date) = ({0[0]}, {0[1]})",
             3: "(region, date, sample) = ({0[0]}, {0[1]}, {0[2]})"}


def _or_none(parse, text: str):
    """``parse(text)``, or None where that raises ValueError."""
    try:
        return parse(text)
    except ValueError:
        return None


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

    One column-wise pass codes each key column, each distinct text
    parsed once, and the value columns.  The first broken row in line
    order is reported: within it a bad region, date or sample index, a
    repeated key, then the value columns left to right.  Only a file
    without a broken row is checked for gaps, naming the first region,
    in region order, that lacks a key.
    """
    header, lines, rows = _read_rows(path, header, exact)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    width = 3 if header[2] == "sample" else 2
    columns = [list(map(itemgetter(j), rows)) for j in range(len(header))]
    index = {rid: i for i, rid in enumerate(region_ids or ())}
    position = {}
    for text in dict.fromkeys(columns[0]):
        rid = text.strip()
        if region_ids is None and _REGION_ID_BREAKS.isdisjoint(rid):
            index.setdefault(rid, len(index))
        position[text] = index.get(rid, -1)
    region = _positions(columns[0], position)
    date, dates = _ranks(columns[1], partial(_or_none, dt.date.fromisoformat))
    sample, samples = (
        _ranks(columns[2], lambda text: int(text) if text.isdecimal() else None)
        if width == 3 else (np.zeros(len(rows), np.intp), [0]))
    values = np.array([_floats(column) for column in columns[width:]]).T
    # Each row's flat (region, date, sample rank) cell; a row whose key
    # does not parse is broken whatever cell it lands on.
    cells = (region * len(dates) + date) * len(samples) + sample
    order = np.argsort(cells, kind="stable")
    repeated = np.zeros(len(rows), bool)
    repeated[order[1:][cells[order[1:]] == cells[order[:-1]]]] = True
    broken = ((region < 0) | (date < 0) | (sample < 0) | repeated
              | ~np.isfinite(values).all(axis=1))
    if broken.any():
        i = int(broken.argmax())
        line, row, rid = lines[i], rows[i], rows[i][0].strip()
        if region[i] < 0:
            _check_region_id(rid, line)
            raise IngestionError(f"line {line}: unknown region '{rid}'")
        if date[i] < 0:
            raise IngestionError(f"line {line}: cannot parse date '{row[1]}' "
                                 "(expected YYYY-MM-DD)")
        if sample[i] < 0:
            raise IngestionError(
                f"line {line}: sample index '{row[2]}' is not an integer >= 0")
        if repeated[i]:
            key = (rid, dates[date[i]], samples[sample[i]])
            first = lines[int(np.argmax(cells[:i] == cells[i]))]
            _record_key({key: first}, key, line, _GRID_KEY[width])
        _parse_floats(row[width:], line, header[width:])

    # No row is broken, so the keys are distinct: the file is a full grid
    # unless it holds fewer rows than N x T x S.
    t, s = len(dates), samples[-1] + 1
    if len(index) * t * s != len(rows):
        have = np.bincount(region, minlength=len(index)).tolist()
        g = next(g for g, count in enumerate(have) if count < t * s)
        mine = region == g
        present = {(dates[j], samples[k]) for j, k
                   in zip(date[mine].tolist(), sample[mine].tolist())}
        gaps = list(islice(((d, k) for d in dates for k in range(s)
                            if (d, k) not in present), 3))
        unit = "dates" if width == 2 else "(date, sample) keys"
        raise IngestionError(
            f"{path}: region '{list(index)[g]}' covers {have[g]} of {t * s} "
            f"{unit}; first missing: {[d for d, _ in gaps] if width == 2 else gaps}")
    grid = np.empty((len(rows), values.shape[1]))
    grid[cells] = values
    return tuple(index), tuple(dates), grid.reshape(len(index), t, s, -1)


def _ranks(column, parse):
    """(codes, keys): the sorted distinct values ``parse`` gives the
    stripped texts of ``column``, each distinct text parsed once, and each
    row's position among them, -1 where ``parse`` gives None."""
    parsed = {text: parse(text.strip()) for text in dict.fromkeys(column)}
    keys = sorted(set(parsed.values()) - {None})
    rank = {key: j for j, key in enumerate(keys)}
    return _positions(column, {text: rank.get(key, -1)
                               for text, key in parsed.items()}), keys


def _floats(column) -> np.ndarray:
    """``column`` as floats, NaN where a text does not parse."""
    try:
        return np.fromiter(map(float, column), float, len(column))
    except ValueError:
        return np.array([_or_none(float, text) for text in column], float)


def _positions(column, position: dict) -> np.ndarray:
    return np.fromiter(map(position.__getitem__, column), np.intp, len(column))


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
    with replacing(path, newline="") as fh:
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
# regions.csv and spatial_matrix.csv
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
        _check_region_id(rid, line)
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
    _write_table(path, ["region_id", "lat", "lon", "treated"],
                 ((r.region_id, _fmt(r.lat), _fmt(r.lon), str(int(flag)))
                  for r, flag in zip(rs.regions, treated)))


def spatial_matrix_to_csv(S: SpatialMatrix, path) -> None:
    """The weight matrix: a header of region ids (of row indices for a
    matrix without them), then N rows of N full-precision reals."""
    _write_table(path, S.region_ids or map(str, range(S.n)),
                 (map(repr, row) for row in S.weights.tolist()))


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
    _write_table(path, ["coefficient", "estimate", "std_error"], [
        *((name, _fmt(value), "" if se is None else _fmt(se))
          for name, (value, se) in est.table.items()),
        ("residual_variance", _fmt(est.residual_variance), "")])


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
    with replacing(path) as fh:
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
    _write_table(path, ["coefficient", "value"], [
        *((name, _fmt(value)) for name, (value, _) in truth.table.items()),
        ("residual_variance", _fmt(truth.residual_variance))])


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
    _write_table(path, ["metric", "level", "value"],
                 ((metric, level, _fmt(value))
                  for metric, level, value in report.rows()))


def write_scores_long_csv(report: ScoreReport, model: str, horizon: int, path) -> None:
    """Plot-ready long format mirroring the per-horizon results layout."""
    _write_table(path, ["model", "horizon", "metric", "value"],
                 ((model, str(horizon), f"{metric}[{level}]" if level else metric,
                   _fmt(value)) for metric, level, value in report.rows()))
