import datetime as dt
import os
import re

import numpy as np
import pytest

from stcast import dataio
from stcast.causal import AdjustedPanel, DidEstimate, Panel, coefficient_names
from stcast.errors import AlignmentError, IngestionError
from stcast.metrics import ScoreReport
from stcast.spatial import Region, RegionSet, SpatialMatrix
from stcast.synth import GeneratorSpec, generate

GOOD_REGIONS = """region_id,lat,lon,treated
R00,10.0,20.0,1
R01,-5.0,30.0,0
"""

GOOD_PANEL = """region_id,date,y,c1,c2
R00,2021-01-01,1.0,0.1,0.2
R00,2021-01-02,2.0,0.1,0.2
R00,2021-01-03,3.0,0.1,0.2
R01,2021-01-01,4.0,0.3,0.4
R01,2021-01-02,5.0,0.3,0.4
R01,2021-01-03,6.0,0.3,0.4
"""

ONSET = dt.date(2021, 1, 3)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return path


class TestIngestWellFormed:
    def test_small_fixture(self, tmp_path):
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", GOOD_PANEL)
        rs, panel = dataio.ingest(regions, panel_path, ONSET)
        assert rs.n == 2
        assert panel.t == 3
        assert panel.d == 2
        assert np.array_equal(panel.treated, [1.0, 0.0])
        assert np.array_equal(panel.post, [0.0, 0.0, 1.0])
        assert panel.y[1, 2] == 6.0

    def test_rows_in_any_order(self, tmp_path):
        shuffled = GOOD_PANEL.splitlines()
        body = shuffled[1:]
        body.reverse()
        content = shuffled[0] + "\n" + "\n".join(body) + "\n"
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        _, panel = dataio.ingest(regions, panel_path, ONSET)
        assert panel.y[0, 0] == 1.0
        assert panel.times[0] == dt.date(2021, 1, 1)

    def test_generator_round_trip(self, tmp_path):
        spec = GeneratorSpec(seed=2, t_steps=40, post_onset_index=20)
        regions, panel, _ = generate(spec)
        rpath = tmp_path / "regions.csv"
        ppath = tmp_path / "panel.csv"
        dataio.write_regions_csv(regions, panel.treated, rpath)
        dataio.write_panel_csv(panel, ppath)
        rs2, panel2 = dataio.ingest(rpath, ppath, panel.times[20])
        assert rs2.region_ids == list(panel.region_ids)
        assert np.allclose(panel2.y, panel.y, atol=1e-10)
        assert np.allclose(panel2.c, panel.c, atol=1e-10)
        assert np.array_equal(panel2.post, panel.post)


class TestUtf8:
    """Inputs decode as UTF-8 whatever the locale, a leading byte-order
    mark (as Excel writes one) skipped."""

    @pytest.mark.parametrize("bom_in", ["regions", "panel", "both"])
    def test_bom_prefixed_files_read_as_plain(self, tmp_path, bom_in):
        ids = {"R00": "Zürich", "R01": "São Paulo"}
        texts = {"regions": GOOD_REGIONS, "panel": GOOD_PANEL}
        for old, new in ids.items():
            texts = {k: v.replace(old, new) for k, v in texts.items()}
        plain = [tmp_path / "regions.csv", tmp_path / "panel.csv"]
        marked = [tmp_path / "bom_regions.csv", tmp_path / "bom_panel.csv"]
        for kind, path, bom_path in zip(texts, plain, marked):
            path.write_bytes(texts[kind].encode("utf-8"))
            bom = b"\xef\xbb\xbf" if bom_in in (kind, "both") else b""
            bom_path.write_bytes(bom + path.read_bytes())
        plain_rs, want = dataio.ingest(*plain, ONSET)
        rs, got = dataio.ingest(*marked, ONSET)
        assert rs == plain_rs
        assert got.region_ids == want.region_ids == tuple(ids.values())
        assert got.times == want.times
        for name in ("y", "c", "treated", "post"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestIngestDiagnostics:
    def test_unknown_region(self, tmp_path):
        content = GOOD_PANEL + "R99,2021-01-01,7.0,0.0,0.0\n"
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match=r"line 8: unknown region 'R99'"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_duplicate_region_date(self, tmp_path):
        content = GOOD_PANEL + "R01,2021-01-03,9.0,0.0,0.0\n"
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match="line 8: duplicate"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_date_gap(self, tmp_path):
        content = GOOD_PANEL.replace("2021-01-03", "2021-01-05")
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match="unevenly spaced"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_missing_value(self, tmp_path):
        content = GOOD_PANEL.replace("R00,2021-01-02,2.0,0.1,0.2",
                                     "R00,2021-01-02,,0.1,0.2")
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match="line 3: missing value in column 'y'"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_nan_value(self, tmp_path):
        content = GOOD_PANEL.replace("R00,2021-01-02,2.0,0.1,0.2",
                                     "R00,2021-01-02,nan,0.1,0.2")
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match="non-finite"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_short_row_missing_covariate(self, tmp_path):
        content = GOOD_PANEL.replace("R00,2021-01-02,2.0,0.1,0.2",
                                     "R00,2021-01-02,2.0,0.1")
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match="missing covariate column"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_bad_date(self, tmp_path):
        content = GOOD_PANEL.replace("2021-01-02", "01/02/2021")
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match="cannot parse date"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_incomplete_region_coverage(self, tmp_path):
        content = "\n".join(GOOD_PANEL.splitlines()[:-1]) + "\n"
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match="covers 2 of 3 dates"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_bad_header(self, tmp_path):
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv",
                           GOOD_PANEL.replace("region_id,date,y", "id,day,value"))
        message = (f"{panel_path}: header is ['id', 'day', 'value', 'c1', 'c2'], "
                   "expected ['region_id', 'date', 'y'] + covariate columns")
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            dataio.ingest(regions, panel_path, ONSET)

    def test_duplicate_region_id(self, tmp_path):
        regions = write(tmp_path, "regions.csv",
                        GOOD_REGIONS.replace("R01", "R00"))
        with pytest.raises(IngestionError, match="duplicate region_id"):
            dataio.read_regions(regions)

    def test_bad_treated_flag(self, tmp_path):
        regions = write(tmp_path, "regions.csv",
                        GOOD_REGIONS.replace("R01,-5.0,30.0,0",
                                             "R01,-5.0,30.0,2"))
        with pytest.raises(IngestionError, match="treated must be 0 or 1"):
            dataio.read_regions(regions)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "regions.csv", "")
        with pytest.raises(IngestionError, match="empty file"):
            dataio.read_regions(path)

    @pytest.mark.parametrize("field, rid", [
        ('"A,1"', "A,1"), ('"A""1"', 'A"1'), ('"A\n1"', "A\n1"),
        ('"A\r1"', "A\r1")], ids=["comma", "quote", "lf", "cr"])
    def test_region_id_the_writers_cannot_write_back(self, tmp_path, field,
                                                     rid):
        # The writers do not quote, so such an id would come back split
        # into more fields or rows.
        regions = write(tmp_path, "regions.csv",
                        GOOD_REGIONS + f"{field},0.0,0.0,0\n")
        samples = write(tmp_path, "fc.csv", "region_id,date,sample,value\n"
                        f"R00,2021-01-01,0,1.0\n{field},2021-01-01,0,1.0\n")
        for read, path, line in ((dataio.read_regions, regions, 4),
                                 (dataio.read_forecast_samples, samples, 3)):
            with pytest.raises(IngestionError, match=re.escape(
                    f"line {line}: region_id {rid!r} contains a comma, "
                    "quote or line break")):
                read(path)


THREE_REGIONS = GOOD_REGIONS + "R02,0.0,0.0,0\n"


class TestIngestDiagnosticMessages:
    """Exact messages and line numbers of the single-pass ingest."""

    def test_coverage_names_first_short_region_in_region_order(self, tmp_path):
        # R02's rows come first in the file and it is short too, but R01
        # precedes it in regions.csv.
        content = ("region_id,date,y,c1,c2\n"
                   "R02,2021-01-01,1.0,0.0,0.0\n"
                   "R02,2021-01-02,1.0,0.0,0.0\n"
                   + GOOD_PANEL.split("\n", 1)[1]
                   .replace("R01,2021-01-02,5.0,0.3,0.4\n", "")
                   .replace("R01,2021-01-03,6.0,0.3,0.4\n", ""))
        regions = write(tmp_path, "regions.csv", THREE_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match=re.escape(
                "region 'R01' covers 1 of 3 dates; first missing: "
                "[datetime.date(2021, 1, 2), datetime.date(2021, 1, 3)]")):
            dataio.ingest(regions, panel_path, ONSET)

    def test_repeated_bad_date_reported_at_first_line(self, tmp_path):
        content = GOOD_PANEL.replace("2021-01-02", "2021-02-30")
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match=re.escape(
                "line 3: cannot parse date '2021-02-30' (expected YYYY-MM-DD)")):
            dataio.ingest(regions, panel_path, ONSET)

    @pytest.mark.parametrize("date_text", ["2021-01-03", " 2021-01-03"])
    def test_duplicate_cites_first_line(self, tmp_path, date_text):
        # The same date spelt differently is still the same cell.
        content = GOOD_PANEL + f"R01,{date_text},9.0,0.0,0.0\n"
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        panel_path = write(tmp_path, "panel.csv", content)
        with pytest.raises(IngestionError, match=re.escape(
                "line 8: duplicate (region, date) = (R01, 2021-01-03) "
                "(first at line 7)")):
            dataio.ingest(regions, panel_path, ONSET)


class TestAdjustedCsv:
    def test_duplicate_cell_cites_first_line(self, tmp_path):
        # A repeated cell would otherwise overwrite the first one's values.
        regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
        _, panel = dataio.ingest(regions, write(tmp_path, "panel.csv", GOOD_PANEL),
                                 ONSET)
        path = tmp_path / "adjusted_panel.csv"
        dataio.write_adjusted_csv(
            panel, AdjustedPanel(y_tilde=panel.y.copy(), z=panel.y.copy()), path)
        with open(path, "a") as fh:
            fh.write("R00,2021-01-01,999.0,999.0\n")
        with pytest.raises(IngestionError, match=re.escape(
                "line 8: duplicate (region, date) = (R00, 2021-01-01) "
                "(first at line 2)")):
            dataio.read_adjusted_csv(path, panel)


class TestEstimateRoundTrip:
    def test_did_estimate_csv(self, tmp_path):
        est = DidEstimate(
            {"rho": (0.31, 0.05), "beta0": (1.0, 0.1), "beta1": (0.2, 0.1),
             "beta2": (-0.4, 0.1), "delta": (-1.5, 0.2),
             "gamma1": (0.9, 0.01), "gamma2": (-0.4, 0.02),
             "gamma3": (-1.1, 0.03), "gamma4": (0.25, 0.04)},
            residual_variance=0.0123,
        )
        path = tmp_path / "est.csv"
        dataio.write_did_estimate_csv(est, path)
        loaded = dataio.read_did_estimate(path)
        assert list(loaded.table.items()) == list(est.table.items())
        assert loaded.residual_variance == est.residual_variance
        assert loaded == est

    def test_no_spatial_estimate_blank_rho_se(self, tmp_path):
        est = DidEstimate(
            {"rho": (0.0, None), "beta0": (1.0, 0.1), "beta1": (0.2, 0.1),
             "beta2": (-0.4, 0.1), "delta": (-1.5, 0.2)},
            residual_variance=0.5,
        )
        path = tmp_path / "est.csv"
        dataio.write_did_estimate_csv(est, path)
        text = path.read_text()
        assert "rho,0.0,\n" in text
        loaded = dataio.read_did_estimate(path)
        assert loaded.table["rho"] == (0.0, None)
        assert "rho" not in loaded.standard_errors

    _ESTIMATE_HEAD = ("coefficient,estimate,std_error\n"
                      "rho,0.3,0.05\nbeta0,1.0,0.1\nbeta1,0.2,0.1\n"
                      "beta2,-0.4,0.1\ndelta,-1.5,0.2\n")

    def test_gamma_rows_in_any_order(self, tmp_path):
        path = write(tmp_path, "est.csv", self._ESTIMATE_HEAD
                     + "gamma2,-0.4,0.02\nresidual_variance,0.5,\n"
                     "gamma1,0.9,0.01\n")
        loaded = dataio.read_did_estimate(path)
        assert loaded.table["gamma1"] == (0.9, 0.01)
        assert loaded.table["gamma2"] == (-0.4, 0.02)

    def test_shuffled_rows_read_in_canonical_order(self, tmp_path):
        # Gammas and residual_variance interleaved with the fixed rows read
        # into the table's order and re-write to the canonical bytes.
        canonical = (self._ESTIMATE_HEAD + "gamma1,0.9,0.01\n"
                     "gamma2,-0.4,0.02\nresidual_variance,0.5,\n")
        header, *rows = canonical.splitlines()
        order = [6, 3, 0, 7, 5, 1, 4, 2]
        path = write(tmp_path, "est.csv",
                     "\n".join([header, *(rows[k] for k in order)]) + "\n")
        loaded = dataio.read_did_estimate(path)
        assert list(loaded.table) == coefficient_names(2)
        dataio.write_did_estimate_csv(loaded, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_text() == canonical

    @pytest.mark.parametrize("row, line, message", [
        ("rho,1.0,0.05", 2, "|rho| = 1.0000 >= 1"),
        ("rho,-1.5,", 2, "|rho| = 1.5000 >= 1"),
        ("delta,-1.5,0.0", 6, "standard error of 'delta' must be positive"),
        ("beta1,0.2,-0.1", 4, "standard error of 'beta1' must be positive"),
        ("gamma1,0.9,0.0", 7, "standard error of 'gamma1' must be positive"),
        ("residual_variance,-0.5,", 8,
         "residual variance must be non-negative, got -0.5"),
    ], ids=["rho-one", "rho-below-minus-one", "delta-se-zero",
            "beta1-se-negative", "gamma1-se-zero", "negative-variance"])
    def test_rejected_value_cites_its_line(self, tmp_path, row, line, message):
        # Values the estimate itself refuses are ingestion errors of the
        # file (exit 7), reported at the offending row.
        name = row.split(",")[0]
        text = self._ESTIMATE_HEAD + "gamma1,0.9,0.01\nresidual_variance,0.5,\n"
        lines = [row if k.startswith(name + ",") else k
                 for k in text.splitlines()]
        path = write(tmp_path, "est.csv", "\n".join(lines) + "\n")
        with pytest.raises(IngestionError,
                           match=re.escape(f"line {line}: {message}")):
            dataio.read_did_estimate(path)

    def test_residual_variance_std_error_rejected(self, tmp_path):
        # It would otherwise load, then re-write without the std_error.
        path = write(tmp_path, "est.csv", self._ESTIMATE_HEAD
                     + "residual_variance,0.5,7.0\n")
        with pytest.raises(IngestionError, match=re.escape(
                "line 7: residual_variance takes no std_error, got '7.0'")):
            dataio.read_did_estimate(path)

    def test_zero_standard_error_allowed_without_residual_variance(
            self, tmp_path):
        # A perfect fit has zero residual variance and zero SEs.
        path = write(tmp_path, "est.csv",
                     self._ESTIMATE_HEAD.replace("delta,-1.5,0.2",
                                                 "delta,-1.5,0.0")
                     + "residual_variance,0.0,\n")
        assert dataio.read_did_estimate(path).table["delta"] == (-1.5, 0.0)

    def test_gamma_gap_rejected(self, tmp_path):
        # gamma3 with no gamma2 would otherwise be read as gamma2.
        path = write(tmp_path, "est.csv", self._ESTIMATE_HEAD
                     + "gamma1,0.9,0.01\ngamma3,-0.4,0.03\n"
                     "residual_variance,0.5,\n")
        with pytest.raises(IngestionError,
                           match="line 8: coefficient 'gamma3' without 'gamma2'"):
            dataio.read_did_estimate(path)

    @pytest.mark.parametrize("name", ["gamma0", "gammaX", "gamma01", "deltaa",
                                      "Gamma1", "gamma"])
    def test_unknown_coefficient_rejected(self, tmp_path, name):
        # None of these may be renamed to a gamma or silently dropped.
        path = write(tmp_path, "est.csv", self._ESTIMATE_HEAD
                     + f"gamma1,0.9,0.01\n{name},-0.4,0.03\n"
                     "residual_variance,0.5,\n")
        with pytest.raises(IngestionError,
                           match=f"line 8: unknown coefficient '{name}'"):
            dataio.read_did_estimate(path)


class TestForecastSamplesRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(2, 3, 4))
        dates = tuple(dt.date(2021, 2, 1) + dt.timedelta(days=k)
                      for k in range(3))
        path = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(samples, ("a", "b"), dates, path)
        rids, rdates, cube = dataio.read_forecast_samples(path)
        assert rids == ("a", "b")
        assert rdates == dates
        assert np.array_equal(cube, samples)

    def test_regions_keep_file_order(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(4, 2, 3))
        dates = (dt.date(2021, 2, 1), dt.date(2021, 2, 2))
        region_ids = ("R03", "R00", "R02", "R01")
        path = tmp_path / "fc.csv"
        dataio.write_forecast_samples_csv(samples, region_ids, dates, path)
        rids, rdates, cube = dataio.read_forecast_samples(path)
        assert rids == region_ids
        assert rdates == dates
        assert np.array_equal(cube, samples)

    def test_bytes_match_per_row_writer(self, tmp_path):
        """The per-cell writer emits exactly the bytes of one formatted
        numpy scalar per row."""
        def per_row_writer(samples, region_ids, dates, path):
            with open(path, "w", newline="") as fh:
                fh.write("region_id,date,sample,value\n")
                for i, rid in enumerate(region_ids):
                    for j, date in enumerate(dates):
                        iso = date.isoformat()
                        for k in range(samples.shape[2]):
                            fh.write(f"{rid},{iso},{k},"
                                     f"{repr(float(samples[i, j, k]))}\n")

        rng = np.random.default_rng(5)
        samples = rng.normal(scale=1e3, size=(3, 2, 40))
        samples[0, 0, :4] = [-0.0, 1e-300, 1e300, 2.0]
        samples[2, 1, -3:] = [5e-324, -1.7976931348623157e308, 0.1]
        # A transposed view, as the forecaster returns it.
        samples = np.ascontiguousarray(samples.transpose(0, 2, 1)).transpose(0, 2, 1)
        dates = (dt.date(2021, 2, 1), dt.date(2021, 2, 2))
        region_ids = ("R2", "R0", "R1")
        expected, actual = tmp_path / "rows.csv", tmp_path / "cells.csv"
        per_row_writer(samples, region_ids, dates, expected)
        dataio.write_forecast_samples_csv(samples, region_ids, dates, actual)
        assert actual.read_bytes() == expected.read_bytes()
        assert b",0,-0.0\n" in actual.read_bytes()

    def test_malformed_sample_index(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("region_id,date,sample,value\n"
                        "a,2021-01-01,zero,1.5\n")
        with pytest.raises(IngestionError, match="line 2.*not an integer"):
            dataio.read_forecast_samples(path)

    def test_ragged_counts_rejected(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text(
            "region_id,date,sample,value\n"
            "a,2021-01-01,0,1.0\n"
            "a,2021-01-01,1,2.0\n"
            "b,2021-01-01,0,3.0\n"
        )
        with pytest.raises(IngestionError, match=re.escape(
                "region 'b' covers 1 of 2 (date, sample) keys; first missing: "
                "[(datetime.date(2021, 1, 1), 1)]")):
            dataio.read_forecast_samples(path)

    def test_negative_sample_index(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("region_id,date,sample,value\n"
                        "a,2021-01-01,-1,1.5\n")
        with pytest.raises(IngestionError, match=re.escape(
                "line 2: sample index '-1' is not an integer >= 0")):
            dataio.read_forecast_samples(path)


class TestScoresCsv:
    def test_rows_written(self, tmp_path):
        report = ScoreReport(
            crps=0.5, wql={0.1: 0.2, 0.5: 0.3, 0.9: 0.1},
            coverage_interval={0.1: 0.91}, coverage_quantile={0.1: 0.12},
            energy=1.0, crps_per_region={"a": 0.4, "b": 0.6},
        )
        path = tmp_path / "scores.csv"
        dataio.write_scores_csv(report, path)
        text = path.read_text()
        assert text.startswith("metric,level,value\n")
        assert "crps,,0.5\n" in text
        assert "wql,0.9,0.1\n" in text
        assert "crps_region,a,0.4\n" in text

        long_path = tmp_path / "long.csv"
        dataio.write_scores_long_csv(report, "gaussian-full", 5, long_path)
        assert "gaussian-full,5,wql[0.5],0.3\n" in long_path.read_text()


def table_case(name):
    """(write(path), the exact text written) for each table writer, on
    fixed inputs with full-precision reals and a missing std_error."""
    rs = RegionSet((Region("a", 10.0, 20.5), Region("b", -33.25, 151.0),
                    Region("c", 0.1, -0.7)))
    est = DidEstimate({"rho": (0.3, 0.05), "beta0": (1.0, 0.25),
                       "beta1": (0.2, 0.1), "beta2": (-0.4, 0.125),
                       "delta": (-1.5, None), "gamma1": (1 / 3, 0.01)},
                      residual_variance=0.5)
    truth = DidEstimate({name: (value, None) for name, value in zip(
        coefficient_names(2), (0.4, 1.0, 0.5, -0.3, -2.0, 1.0, -0.5))},
        residual_variance=0.01)
    report = ScoreReport(
        crps=0.5, wql={0.9: 0.1, 0.1: 0.2, 0.5: 0.3},
        coverage_interval={0.1: 0.91}, coverage_quantile={0.1: 0.12},
        energy=1.0, crps_per_region={"b": 0.6, "a": 0.4})
    weights = [[0.0, 0.5, 0.5], [0.25, 0.0, 0.75], [1 / 3, 2 / 3, 0.0]]
    S = SpatialMatrix(weights=np.array(weights), alpha=1.0,
                      region_ids=("a", "b", "c"))
    return {
        "regions": (
            lambda p: dataio.write_regions_csv(rs, np.array([1.0, 0.0, 1.0]), p),
            "region_id,lat,lon,treated\n"
            "a,10.0,20.5,1\nb,-33.25,151.0,0\nc,0.1,-0.7,1\n"),
        "did_estimate": (
            lambda p: dataio.write_did_estimate_csv(est, p),
            "coefficient,estimate,std_error\n"
            "rho,0.3,0.05\nbeta0,1.0,0.25\nbeta1,0.2,0.1\nbeta2,-0.4,0.125\n"
            "delta,-1.5,\ngamma1,0.3333333333333333,0.01\n"
            "residual_variance,0.5,\n"),
        "ground_truth": (
            lambda p: dataio.write_ground_truth_csv(truth, p),
            "coefficient,value\n"
            "rho,0.4\nbeta0,1.0\nbeta1,0.5\nbeta2,-0.3\ndelta,-2.0\n"
            "gamma1,1.0\ngamma2,-0.5\nresidual_variance,0.01\n"),
        "scores": (
            lambda p: dataio.write_scores_csv(report, p),
            "metric,level,value\n"
            "crps,,0.5\nwql,0.1,0.2\nwql,0.5,0.3\nwql,0.9,0.1\n"
            "coverage_interval,0.1,0.91\ncoverage_quantile,0.1,0.12\n"
            "energy,,1.0\ncrps_region,a,0.4\ncrps_region,b,0.6\n"),
        "scores_long": (
            lambda p: dataio.write_scores_long_csv(report, "gaussian-full", 5, p),
            "model,horizon,metric,value\n"
            "gaussian-full,5,crps,0.5\ngaussian-full,5,wql[0.1],0.2\n"
            "gaussian-full,5,wql[0.5],0.3\ngaussian-full,5,wql[0.9],0.1\n"
            "gaussian-full,5,coverage_interval[0.1],0.91\n"
            "gaussian-full,5,coverage_quantile[0.1],0.12\n"
            "gaussian-full,5,energy,1.0\n"
            "gaussian-full,5,crps_region[a],0.4\n"
            "gaussian-full,5,crps_region[b],0.6\n"),
        "spatial_matrix": (
            lambda p: dataio.spatial_matrix_to_csv(S, p),
            "a,b,c\n0.0,0.5,0.5\n0.25,0.0,0.75\n"
            "0.3333333333333333,0.6666666666666666,0.0\n"),
        "spatial_matrix_unnamed": (
            lambda p: dataio.spatial_matrix_to_csv(
                SpatialMatrix(weights=S.weights, alpha=1.0), p),
            "0,1,2\n0.0,0.5,0.5\n0.25,0.0,0.75\n"
            "0.3333333333333333,0.6666666666666666,0.0\n"),
    }[name]


class TestTableBytes:
    """Each table writer's exact output, pinned as literal text."""

    @pytest.mark.parametrize("name", [
        "regions", "did_estimate", "ground_truth", "scores", "scores_long",
        "spatial_matrix", "spatial_matrix_unnamed"])
    def test_written_text(self, tmp_path, name):
        writer, expected = table_case(name)
        path = tmp_path / f"{name}.csv"
        writer(path)
        assert path.read_bytes() == expected.encode()


class TestWholeWrites:
    """A write that fails part-way leaves the earlier file as it was, and
    no temporary file beside it."""

    def test_interrupted_table_keeps_previous_file(self, tmp_path):
        writer, _ = table_case("scores")
        path = tmp_path / "scores.csv"
        writer(path)
        before = path.read_bytes()

        class Breaking:
            def rows(self):
                yield "crps", "", 9.0
                raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            dataio.write_scores_csv(Breaking(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]

    @pytest.mark.parametrize("mode, data", [("w", "partial"), ("wb", b"partial")])
    def test_interrupted_write_through_replacing(self, tmp_path, mode, data):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous\n")
        with pytest.raises(OSError, match="disk full"):
            with dataio.replacing(path, mode) as fh:
                fh.write(data)
                raise OSError("disk full")
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with dataio.replacing(tmp_path / "new.csv") as fh:
                fh.write("region_id")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["missing-directory", "directory-at-path"])
    def test_an_error_names_the_artifact(self, tmp_path, blocked):
        # The temporary sibling is an implementation detail: the error
        # names the path the caller gave, and no sibling is left.
        if blocked == "missing-directory":
            path = tmp_path / "nodir" / "report.txt"
        else:
            path = tmp_path / "report.txt"
            path.mkdir()
        with pytest.raises(OSError) as caught:
            dataio.write_parameter_report("x", path)
        assert str(caught.value).endswith(f": {str(path)!r}")
        assert [p.name for p in tmp_path.rglob("*")] == (
            [] if blocked == "missing-directory" else ["report.txt"])

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_permissions_follow_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            table_case("regions")[0](tmp_path / "regions.csv")
        finally:
            os.umask(old)
        assert (tmp_path / "regions.csv").stat().st_mode & 0o777 == 0o666 & ~umask


def reader_case(name, tmp_path):
    """(writer of a well-formed file, reader of it) for each CSV reader."""
    rs, panel = dataio.ingest(write(tmp_path, "regions.csv", GOOD_REGIONS),
                              write(tmp_path, "panel.csv", GOOD_PANEL), ONSET)
    est = DidEstimate({"rho": (0.3, 0.05), "beta0": (1.0, None),
                       "beta1": (0.2, None), "beta2": (-0.4, None),
                       "delta": (-1.5, None), "gamma1": (0.9, None),
                       "gamma2": (-0.4, None)}, residual_variance=0.5)
    samples = np.zeros((panel.n, panel.t, 2))
    return {
        "regions": (lambda p: dataio.write_regions_csv(rs, panel.treated, p),
                    dataio.read_regions),
        "panel": (lambda p: dataio.write_panel_csv(panel, p),
                  lambda p: dataio.read_panel(p, rs, panel.treated, ONSET)),
        "truth": (lambda p: dataio.write_panel_csv(panel, p),
                  lambda p: dataio.read_truth_values(p, panel.region_ids,
                                                     panel.times)),
        "estimate": (lambda p: dataio.write_did_estimate_csv(est, p),
                     dataio.read_did_estimate),
        "adjusted": (lambda p: dataio.write_adjusted_csv(
                         panel, AdjustedPanel(y_tilde=panel.y, z=panel.y), p),
                     lambda p: dataio.read_adjusted_csv(p, panel)),
        "samples": (lambda p: dataio.write_forecast_samples_csv(
                        samples, panel.region_ids, panel.times, p),
                    dataio.read_forecast_samples),
    }[name]


def with_extra_row(name, tmp_path, extra):
    """A well-formed file for reader ``name`` plus the row ``extra`` makes
    of its first data row; returns (path, reader, lines before)."""
    writer, reader = reader_case(name, tmp_path)
    path = tmp_path / f"case-{name}.csv"
    writer(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines, extra(lines[1])]) + "\n")
    return path, reader, lines


KEYED_READERS = ["regions", "panel", "truth", "estimate", "adjusted",
                 "samples"]


class TestRowRules:
    """Every reader applies the same two row rules."""

    @pytest.mark.parametrize("name", KEYED_READERS)
    def test_short_row_reports_field_count(self, tmp_path, name):
        path, reader, lines = with_extra_row(
            name, tmp_path, lambda row: row.rsplit(",", 1)[0])
        k = lines[1].count(",") + 1
        with pytest.raises(IngestionError, match=re.escape(
                f"line {len(lines) + 1}: expected {k} fields, got {k - 1}")):
            reader(path)

    @pytest.mark.parametrize("name", KEYED_READERS)
    def test_repeated_key_cites_first_line(self, tmp_path, name):
        path, reader, lines = with_extra_row(name, tmp_path, lambda row: row)
        with pytest.raises(IngestionError, match=(
                re.escape(f"line {len(lines) + 1}: duplicate ")
                + ".* " + re.escape("(first at line 2)"))):
            reader(path)

    def test_truth_short_row_hints_at_covariates(self, tmp_path):
        path, reader, _ = with_extra_row(
            "truth", tmp_path, lambda row: row.rsplit(",", 1)[0])
        with pytest.raises(IngestionError, match=re.escape(
                "line 8: expected 5 fields, got 4 (missing covariate column?)")):
            reader(path)


def grid_case(layout):
    """(write(path), read(path) -> arrays, arrays written) for each grid
    layout, with extreme values and, for samples, a transposed view."""
    rng = np.random.default_rng(9)
    region_ids = ("R2", "R0", "R1")
    times = tuple(dt.date(2021, 1, 1) + dt.timedelta(days=2 * k)
                  for k in range(5))
    y = rng.normal(scale=1e3, size=(3, 5))
    y[0, :4] = [-0.0, 5e-324, 1e300, -1e300]
    if layout == "samples":
        samples = rng.normal(size=(3, 7, 5)).transpose(0, 2, 1)
        samples[1, 3, :4] = [-0.0, 5e-324, 1e300, -1e300]

        def read_samples(path):
            # Regions come back in the order of their first row.
            rids, _, cube = dataio.read_forecast_samples(path)
            return (cube[[rids.index(rid) for rid in region_ids]],)
        return (lambda path: dataio.write_forecast_samples_csv(
                    samples, region_ids, times, path),
                read_samples, (samples,))
    c = rng.normal(size=(3, 5, 4 if layout == "panel-D4" else 0))
    if layout == "panel-D4":
        c[2, 4] = [-0.0, 5e-324, 1e300, -1e300]
    panel = Panel(region_ids, times, y, c, np.array([1.0, 0.0, 1.0]),
                  np.array([0.0, 0.0, 1.0, 1.0, 1.0]))
    if layout == "adjusted":
        z = y[::-1].copy()

        def read_adjusted(path):
            adjusted = dataio.read_adjusted_csv(path, panel)
            return adjusted.y_tilde, adjusted.z
        return (lambda path: dataio.write_adjusted_csv(
                    panel, AdjustedPanel(y_tilde=y, z=z), path),
                read_adjusted, (y, z))
    rs = RegionSet(tuple(Region(rid, 0.0, float(i))
                         for i, rid in enumerate(region_ids)))

    def read_panel(path):
        read = dataio.read_panel(path, rs, panel.treated, times[2])
        return read.y, read.c
    return (lambda path: dataio.write_panel_csv(panel, path), read_panel,
            (y, c))


GRID_LAYOUTS = ["panel-D0", "panel-D4", "adjusted", "samples"]


class TestGrid:
    """One grid rule for panel, adjusted, sample and truth files."""

    @pytest.mark.parametrize("layout", GRID_LAYOUTS)
    def test_shuffled_round_trip(self, tmp_path, layout):
        write_grid, read_grid, arrays = grid_case(layout)
        path = tmp_path / "grid.csv"
        write_grid(path)
        header, *rows = path.read_text().splitlines()
        order = np.random.default_rng(3).permutation(len(rows))
        path.write_text("\n".join([header, *(rows[k] for k in order)]) + "\n")
        for got, want in zip(read_grid(path), arrays):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("layout", GRID_LAYOUTS)
    def test_gap_names_its_region(self, tmp_path, layout):
        # Deleting R0's third row leaves one key of R0 without a row.
        write_grid, read_grid, _ = grid_case(layout)
        path = tmp_path / "grid.csv"
        write_grid(path)
        lines = path.read_text().splitlines()
        gone = [k for k, line in enumerate(lines) if line.startswith("R0,")][2]
        path.write_text("\n".join(lines[:gone] + lines[gone + 1:]) + "\n")
        if layout == "samples":
            message = ("region 'R0' covers 34 of 35 (date, sample) keys; "
                       "first missing: [(datetime.date(2021, 1, 1), 2)]")
        else:
            message = ("region 'R0' covers 4 of 5 dates; first missing: "
                       "[datetime.date(2021, 1, 5)]")
        with pytest.raises(IngestionError, match=re.escape(message)):
            read_grid(path)

    @pytest.mark.parametrize("rows, message", [
        (["a,2021-01-01,0,nan", "a,2021-01-01,x,2.0"],
         "line 2: non-finite value in column 'value'"),
        (["a,2021-01-01,0,1.0", "a,2021-13-01,1,2.0", "a,2021-01-01,0,2.0"],
         "line 3: cannot parse date '2021-13-01'"),
        (["a,2021-01-01,0,1.0", "a,2021-01-01,0,2.0", "a,2021-13-01,1,2.0"],
         "line 3: duplicate (region, date, sample) = (a, 2021-01-01, 0) "
         "(first at line 2)"),
        (["a,2021-01-01,0,1.0", "a,2021-01-01,100000000000000000000,2.0"],
         "region 'a' covers 2 of 100000000000000000001 (date, sample) keys; "
         "first missing: [(datetime.date(2021, 1, 1), 1), "),
        (["a,2021-01-01,100000000000000000000,1.0",
          "a,2021-01-01,100000000000000000000,2.0"],
         "line 3: duplicate (region, date, sample) = "
         "(a, 2021-01-01, 100000000000000000000) (first at line 2)"),
        (["a,2021-01-01,0,1.0", "a,2021-01-01,0,nan"],
         "line 3: duplicate (region, date, sample) = (a, 2021-01-01, 0) "
         "(first at line 2)"),
        ([" a ,2021-01-01, 0 ,1.0", "a, 2021-01-01,0,2.0"],
         "line 3: duplicate (region, date, sample) = (a, 2021-01-01, 0) "
         "(first at line 2)"),
        (["", "a,2021-01-01,0,1.0", "", "a,2021-01-01,0,2.0"],
         "line 5: duplicate (region, date, sample) = (a, 2021-01-01, 0) "
         "(first at line 3)"),
        (["region_id,date,y,c1,c2", "R99,2021-13-01,1.0,0.1,0.2"],
         "line 2: unknown region 'R99'"),
        (["region_id,date,y,c1,c2", "R00,2021-01-01,1.0,nan,x"],
         "line 2: non-finite value in column 'c1'"),
    ], ids=["value-then-sample", "date-then-duplicate", "duplicate-then-date",
            "huge-index-gap", "huge-index-duplicate", "duplicate-then-value",
            "spaced-duplicate", "blank-lines-counted", "region-then-date",
            "value-columns-in-order"])
    def test_first_broken_row_is_reported(self, tmp_path, rows, message):
        # Of two broken rows, the error cites the earlier one, whatever
        # the rules they break; within a row, the first rule broken of
        # region, date, sample index, repeated key, then the values left
        # to right.  Only a file without a broken row is checked for gaps.
        # Rows led by a header are a panel on GOOD_REGIONS.
        if rows[0].startswith("region_id,"):
            regions = write(tmp_path, "regions.csv", GOOD_REGIONS)
            path = write(tmp_path, "panel.csv", "\n".join(rows) + "\n")
            read = lambda: dataio.ingest(regions, path, ONSET)
        else:
            path = write(tmp_path, "fc.csv", "\n".join(
                ["region_id,date,sample,value", *rows]) + "\n")
            read = lambda: dataio.read_forecast_samples(path)
        with pytest.raises(IngestionError, match=re.escape(message)):
            read()

    def test_duplicate_in_a_grid_sized_file(self, tmp_path):
        # 4 rows for a 2 x 1 x 2 grid: the repeat hides the missing key
        # from a row count.
        path = write(tmp_path, "fc.csv", "region_id,date,sample,value\n"
                     "a,2021-01-01,0,1.0\na,2021-01-01,0,2.0\n"
                     "b,2021-01-01,0,1.0\nb,2021-01-01,1,2.0\n")
        with pytest.raises(IngestionError, match=re.escape(
                "line 3: duplicate (region, date, sample) = (a, 2021-01-01, 0) "
                "(first at line 2)")):
            dataio.read_forecast_samples(path)

    def test_huge_sample_index_is_a_gap(self, tmp_path):
        # The grid a sample index implies is never allocated before the
        # file is known to fill it.
        path = write(tmp_path, "fc.csv", "region_id,date,sample,value\n"
                     "a,2021-01-01,0,1.0\na,2021-01-01,1000000000000,2.0\n")
        with pytest.raises(IngestionError, match=re.escape(
                "region 'a' covers 2 of 1000000000001 (date, sample) keys; "
                "first missing: [(datetime.date(2021, 1, 1), 1), ")):
            dataio.read_forecast_samples(path)

    def test_adjusted_gap_is_malformed(self, tmp_path):
        # A gap inside the file is a malformed grid (exit 7), not a
        # mismatch with the panel.
        _, panel = dataio.ingest(write(tmp_path, "regions.csv", GOOD_REGIONS),
                                 write(tmp_path, "panel.csv", GOOD_PANEL), ONSET)
        path = tmp_path / "adjusted_panel.csv"
        dataio.write_adjusted_csv(
            panel, AdjustedPanel(y_tilde=panel.y, z=panel.y), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
        with pytest.raises(IngestionError, match=re.escape(
                "region 'R00' covers 2 of 3 dates; first missing: "
                "[datetime.date(2021, 1, 3)]")):
            dataio.read_adjusted_csv(path, panel)

    @pytest.mark.parametrize("keep, message", [
        (lambda line: not line.startswith("R01,"),
         "has no region 'R01' of the panel"),
        (lambda line: "2021-01-03" not in line,
         "has no date '2021-01-03' of the panel"),
    ], ids=["region", "date"])
    def test_adjusted_full_grid_off_the_panel_is_misaligned(
            self, tmp_path, keep, message):
        _, panel = dataio.ingest(write(tmp_path, "regions.csv", GOOD_REGIONS),
                                 write(tmp_path, "panel.csv", GOOD_PANEL), ONSET)
        path = tmp_path / "adjusted_panel.csv"
        dataio.write_adjusted_csv(
            panel, AdjustedPanel(y_tilde=panel.y, z=panel.y), path)
        path.write_text("".join(line for line in
                                path.read_text().splitlines(keepends=True)
                                if keep(line)))
        with pytest.raises(AlignmentError, match=re.escape(message)):
            dataio.read_adjusted_csv(path, panel)

    def test_truth_must_be_a_full_grid(self, tmp_path):
        # Before, a truth file needed only the forecast's cells.
        path = write(tmp_path, "truth.csv", GOOD_PANEL.replace(
            "R00,2021-01-01,1.0,0.1,0.2\n", ""))
        with pytest.raises(IngestionError, match=re.escape(
                "region 'R00' covers 2 of 3 dates")):
            dataio.read_truth_values(path, ("R00",), (dt.date(2021, 1, 3),))

    def test_truth_aligned_to_forecast_axes(self, tmp_path):
        path = write(tmp_path, "truth.csv", GOOD_PANEL)
        observed = dataio.read_truth_values(
            path, ("R01", "R00"), (dt.date(2021, 1, 2), dt.date(2021, 1, 3)))
        assert np.array_equal(observed, [[5.0, 6.0], [2.0, 3.0]])
