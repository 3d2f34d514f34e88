"""CLI surface tests: subcommands, flags, seed handling, output files."""

import csv
import datetime
import json

import numpy as np
import pytest

from conftest import ar1_series
from wclmmse.cli import build_parser, load_model, main, save_model
from wclmmse.dataio import RESULT_FIELDS
from wclmmse.model import synthetic_model, geometric_spectrum


def series_csv_text(series, header="date,value"):
    """One row per value, on consecutive days from 2000-01-03."""
    start = datetime.date(2000, 1, 3)
    lines = [header]
    lines += [f"{(start + datetime.timedelta(days=i)).isoformat()},{float(v)!r}"
              for i, v in enumerate(series)]
    return "\n".join(lines) + "\n"


def write_series_csv(path, length=260, seed=0):
    path.write_text(series_csv_text(ar1_series(length, phi=0.8, seed=seed)), encoding="utf-8")
    return path


class TestSynth:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "model.bin"
        assert main(["synth", "--n", "2", "--m", "6", "--spectrum", "geometric:1.0,0.7",
                     "--seed", "3", "--out", str(out)]) == 0
        model = load_model(out)
        expected = synthetic_model(2, geometric_spectrum(8, 1.0, 0.7), seed=3)
        assert np.array_equal(model.c_z, expected.c_z)

    def test_bad_spectrum_spec(self, tmp_path, capsys):
        rc = main(["synth", "--n", "1", "--m", "2", "--spectrum", "linear:1",
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_save_load_helpers(self, tmp_path):
        model = synthetic_model(2, geometric_spectrum(5, 1.0, 0.5), seed=1)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.c_z, model.c_z)
        with np.load(path) as data:
            assert sorted(data.files) == ["c_x", "c_xy", "c_y"]

    def test_loads_file_with_size_arrays(self, tmp_path):
        # files that also hold the sizes n and m load to the same model
        model = synthetic_model(2, geometric_spectrum(5, 1.0, 0.5), seed=1)
        path = tmp_path / "m.bin"
        with open(path, "wb") as handle:
            np.savez(handle, n=model.n, m=model.m, c_x=model.c_x,
                     c_xy=model.c_xy, c_y=model.c_y)
        assert np.array_equal(load_model(path).c_z, model.c_z)


class TestMalformedModelFile:
    def _sweep(self, path, tmp_path):
        return main(["sweep-l", "--model", str(path), "--m", "3", "--n", "2",
                     "--l-min", "1", "--l-max", "3", "--out", str(tmp_path / "r.csv")])

    def test_archive_without_a_block(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as handle:
            np.savez(handle, c_x=np.eye(2), c_xy=np.zeros((2, 3)))
        assert self._sweep(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "c_y" in err

    @pytest.mark.parametrize("contents", ["empty", "truncated"])
    def test_unreadable_archive(self, tmp_path, capsys, contents):
        path = tmp_path / "bad.bin"
        save_model(synthetic_model(2, geometric_spectrum(5, 1.0, 0.5)), path)
        path.write_bytes(path.read_bytes()[:100] if contents == "truncated" else b"")
        assert self._sweep(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a model archive" in err

    def test_plain_array_file(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as handle:
            np.save(handle, np.eye(5))
        assert self._sweep(path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a model archive" in err


class TestSweepL:
    def test_model_source(self, tmp_path):
        model_path = tmp_path / "model.bin"
        main(["synth", "--n", "2", "--m", "6", "--spectrum", "geometric:1.0,0.7",
              "--seed", "1", "--out", str(model_path)])
        out = tmp_path / "results.csv"
        rc = main(["sweep-l", "--model", str(model_path), "--m", "6", "--n", "2",
                   "--l-min", "1", "--l-max", "6", "--l-step", "2",
                   "--filters", "wiener,lrw,csw,jpc,lsjpc,jpc_simplified,lsjpc_simplified",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1 + 6 * 3
        assert set(rows[0]) == set(RESULT_FIELDS)
        payload = json.loads(out.with_suffix(".json").read_text())
        assert len(payload) == len(rows)

    def test_data_source_with_custom_columns(self, tmp_path):
        data = tmp_path / "series.csv"
        series = ar1_series(240, phi=0.8, seed=1)
        data.write_text(series_csv_text(series, header="DAY,CLOSE"), encoding="utf-8")
        out = tmp_path / "results.csv"
        rc = main(["sweep-l", "--data", str(data), "--date-col", "DAY",
                   "--value-col", "CLOSE", "--m", "6", "--n", "2",
                   "--l-min", "2", "--l-max", "4", "--l-step", "2",
                   "--filters", "wiener,jpc", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_level_outside_one_to_m_is_an_error(self, tmp_path, capsys):
        data = write_series_csv(tmp_path / "series.csv")
        for l_min, l_max in (("0", "2"), ("2", "9")):
            out = tmp_path / f"l{l_min}-{l_max}.csv"
            rc = main(["sweep-l", "--data", str(data), "--m", "6", "--n", "2",
                       "--l-min", l_min, "--l-max", l_max, "--filters", "wiener,jpc",
                       "--out", str(out)])
            assert rc == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_step_is_an_error(self, tmp_path, capsys):
        data = write_series_csv(tmp_path / "series.csv")
        out = tmp_path / "zero.csv"
        rc = main(["sweep-l", "--data", str(data), "--m", "6", "--n", "2",
                   "--l-min", "1", "--l-max", "4", "--l-step", "0", "--out", str(out)])
        assert rc == 2
        assert "error: grid step must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_source_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep-l", "--m", "4", "--n", "1", "--l-min", "1", "--l-max", "2",
                  "--out", str(tmp_path / "x.csv")])


class TestSweepM:
    def test_fixed_policy(self, tmp_path):
        data = write_series_csv(tmp_path / "series.csv")
        out = tmp_path / "m.csv"
        rc = main(["sweep-m", "--data", str(data), "--m-grid", "4:8:4", "--n", "2",
                   "--l-policy", "fixed:2", "--filters", "wiener,jpc", "--out", str(out)])
        assert rc == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert {r["m"] for r in rows} == {"4", "8"}

    def test_grid_comma_list(self, tmp_path):
        data = write_series_csv(tmp_path / "series.csv")
        out = tmp_path / "m.csv"
        rc = main(["sweep-m", "--data", str(data), "--m-grid", "4,6", "--n", "2",
                   "--l-policy", "best", "--filters", "jpc", "--out", str(out)])
        assert rc == 0


    def test_empty_grid_is_an_error(self, tmp_path, capsys):
        data = write_series_csv(tmp_path / "series.csv")
        for command in ("sweep-m", "cond"):
            for grid in ("", "5:1:1"):
                out = tmp_path / f"{command}.csv"
                rc = main([command, "--data", str(data), "--m-grid", grid, "--n", "2",
                           "--out", str(out)])
                assert rc == 2
                assert "error: empty window-length grid" in capsys.readouterr().err
                assert not out.exists()


class TestCond:
    def test_model_source(self, tmp_path):
        model_path = tmp_path / "model.bin"
        main(["synth", "--n", "2", "--m", "8", "--spectrum", "geometric:1.0,0.8",
              "--seed", "2", "--out", str(model_path)])
        out = tmp_path / "cond.csv"
        rc = main(["cond", "--model", str(model_path), "--m-grid", "2:8:2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,cond_cy"
        assert len(lines) == 5

    def test_data_source(self, tmp_path):
        data = write_series_csv(tmp_path / "series.csv")
        out = tmp_path / "cond.csv"
        rc = main(["cond", "--data", str(data), "--m-grid", "2,4", "--n", "2",
                   "--out", str(out)])
        assert rc == 0

    def test_model_window_length_below_one_is_an_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        main(["synth", "--n", "2", "--m", "8", "--seed", "2", "--out", str(model_path)])
        capsys.readouterr()
        out = tmp_path / "cond.csv"
        rc = main(["cond", "--model", str(model_path), "--m-grid", "0,4",
                   "--out", str(out)])
        assert rc == 2
        assert "error: window length m=0 outside [1, 8]" in capsys.readouterr().err
        assert not out.exists()

    def test_model_of_another_n_is_an_error(self, tmp_path, capsys):
        # without --n, the model's own n is taken
        model_path = tmp_path / "model.bin"
        main(["synth", "--n", "2", "--m", "8", "--seed", "2", "--out", str(model_path)])
        capsys.readouterr()
        out = tmp_path / "cond.csv"
        rc = main(["cond", "--model", str(model_path), "--m-grid", "4", "--n", "3",
                   "--out", str(out)])
        assert rc == 2
        assert "error: model has (n, m) = (2, 8), requested (3, 8)" in capsys.readouterr().err
        assert not out.exists()


class TestScaling:
    def test_study_csv(self, tmp_path):
        model_path = tmp_path / "model.bin"
        main(["synth", "--n", "2", "--m", "8", "--spectrum", "geometric:1.0,0.6",
              "--seed", "4", "--out", str(model_path)])
        out = tmp_path / "scaling.csv"
        rc = main(["scaling", "--model", str(model_path), "--filter", "jpc",
                   "--norm", "nuclear", "--l-min", "2", "--l-max", "8",
                   "--l-step", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "l,rho_l,dist,mse_gap,gram_defect"
        assert len(lines) == 5


class TestSeeds:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        # the seed comes from the command line alone: the default is 0,
        # and the environment does not change it
        data = write_series_csv(tmp_path / "series.csv")
        out_default = tmp_path / "a.csv"
        out_env = tmp_path / "b.csv"
        out_zero = tmp_path / "c.csv"
        out_seven = tmp_path / "d.csv"
        args = ["sweep-l", "--data", str(data), "--m", "6", "--n", "2",
                "--l-min", "2", "--l-max", "2", "--l-step", "1", "--filters", "jpc"]
        main(args + ["--out", str(out_default)])
        monkeypatch.setenv("WCLMMSE_SEED", "7")
        main(args + ["--out", str(out_env)])
        monkeypatch.delenv("WCLMMSE_SEED")
        main(args + ["--seed", "0", "--out", str(out_zero)])
        main(args + ["--seed", "7", "--out", str(out_seven)])

        def read(path):
            with path.open() as handle:
                return [r["norm_rms"] for r in csv.DictReader(handle)]

        assert read(out_env) == read(out_default) == read(out_zero)
        assert read(out_seven) != read(out_default)

    def test_missing_file_error(self, tmp_path, capsys):
        rc = main(["sweep-l", "--data", str(tmp_path / "absent.csv"), "--m", "4",
                   "--n", "1", "--l-min", "1", "--l-max", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def test_parser_has_normative_flags():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("synth", "sweep-l", "sweep-m", "cond", "scaling"):
        assert sub in text
