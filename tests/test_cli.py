"""Command-line interface: file sets, exit codes, config resolution."""

from dataclasses import replace
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fbmcqam
from fbmcqam import cli
from fbmcqam.cli import main
from fbmcqam.config import RunConfig, apply_overrides, parse_config_text
from helpers import reference_mse_csv

SMALL = ["--n", "16", "--m", "4", "--k", "2", "--channel-taps", "4"]


def _read(path):
    with open(path) as fh:
        return fh.read()


def _rows(path):
    lines = _read(path).strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert fbmcqam.__version__ in capsys.readouterr().out


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the package must run without it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(fbmcqam.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    code = "import sys, fbmcqam.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_complexity_stdout(capsys):
    assert main(["complexity"]) == 0
    out = capsys.readouterr().out
    for line in ("c_tx = 836", "c_rx_nif = 1092", "c_r = 1792",
                 "c_rx_if = 2884", "mask_count = 1792",
                 "filter_per_block = 8960", "big_o = O(N log N)"):
        assert line in out


def test_complexity_eta_and_csv(tmp_path, capsys):
    path = tmp_path / "complexity.csv"
    assert main(["complexity", "--eta", "1.0", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "c_r = 960" in out and "c_rx_if = 2052" in out
    header, rows = _rows(path)
    assert header == ["metric", "value"]
    assert dict(rows)["big_o"] == "O(N log N)"
    assert len(rows) == 7


def test_filter_writes_full_file_set(tmp_path):
    d = tmp_path / "out"
    assert main(["filter", "--out-dir", str(d)]) == 0
    coeffs = np.array([float(x) for x in _read(d / "prototype.txt").split()])
    assert coeffs.size == 5 * 64
    assert np.sum(coeffs ** 2) == pytest.approx(1.0, abs=1e-12)

    header, rows = _rows(d / "gram_bands.csv")
    assert header == ["d", "nu", "value"] and len(rows) == 5 * 64
    header, rows = _rows(d / "inverse_block_norms.csv")
    assert header == ["m", "i", "frobenius"] and len(rows) == 14 * 14
    header, rows = _rows(d / "zeta.csv")
    assert header == ["m", "n", "zeta"] and len(rows) == 14 * 64
    zeta = np.array([float(r[2]) for r in rows])
    assert np.all((zeta > 1.0) & (zeta < 1.6))
    header, rows = _rows(d / "complexity.csv")
    assert dict(rows)["c_rx_if"] == "2884"


def test_print_config_is_parseable_and_writes_nothing(tmp_path, capsys):
    d = tmp_path / "out"
    assert main(["filter", "--out-dir", str(d), "--print-config"]) == 0
    assert parse_config_text(capsys.readouterr().out) == RunConfig()
    assert not d.exists()


def test_analyze_schema(tmp_path):
    path = tmp_path / "mse.csv"
    rc = main(["analyze", "--out", str(path), "--n", "8", "--m", "2",
               "--k", "2", "--channel-taps", "1", "--equalizer", "zf",
               "--theory-draws", "5", "--snr-db", "10"])
    assert rc == 0
    header, rows = _rows(path)
    assert header == ["snr_db", "mode", "m", "n", "component", "value_db"]
    per_mode = {"nif": set(), "if": set()}
    for snr, mode, mm, nu, comp, val in rows:
        assert snr == "10"
        per_mode[mode].add(comp)
        assert val in ("-inf", "inf") or isinstance(float(val), float)
    assert per_mode["nif"] == {"resd", "ici", "isi", "fd", "ibi", "noise",
                               "total", "sinr"}
    assert per_mode["if"] == {"resd", "fd", "ibi", "noise", "total", "sinr"}
    # 2 x 8 grid per component per mode
    assert len(rows) == (8 + 6) * 16
    # flat channel and ZF: no dispersion, no bias
    flat = {(mode, comp) for _, mode, _, _, comp, val in rows if val == "-inf"}
    assert ("nif", "fd") in flat and ("nif", "resd") in flat
    assert ("if", "ibi") in flat


ORACLE_GRID = {"n": "16", "m": "4", "k": "3", "theory_draws": "40",
               "snr_db": "10,30"}


def _flags(settings):
    return [arg for key, value in settings.items()
            for arg in ("--" + key.replace("_", "-"), value)]


@pytest.mark.parametrize("equalizer", ["zf", "mmse"])
@pytest.mark.parametrize("eta", ["0", "0.5"])
def test_analyze_csv_matches_row_by_row_reference(tmp_path, equalizer, eta):
    path = tmp_path / "mse.csv"
    settings = dict(ORACLE_GRID, equalizer=equalizer, eta=eta)
    assert main(["analyze", "--out", str(path)] + _flags(settings)) == 0
    text = _read(path)
    assert text == reference_mse_csv(apply_overrides(RunConfig(), settings).validate())
    if equalizer == "zf":
        # ZF has no bias error, so every resd row carries the -inf marker
        assert "10,nif,0,0,resd,-inf\n" in text


@pytest.mark.parametrize("value,field", [
    (0.0, "-inf"), (-0.0, "-inf"), (math.inf, "inf"), (1e-3, "-30.000000")])
def test_db_markers(value, field):
    assert cli._db(value) == field


def test_db_rejects_nan():
    with pytest.raises(ValueError, match="nan"):
        cli._db(math.nan)


def test_analyze_nan_grid_exits_1_without_output(tmp_path, capsys, monkeypatch):
    real = cli.averaged_breakdown

    def nan_fd(*args, **kwargs):
        bd = real(*args, **kwargs)
        return replace(bd, fd=np.full_like(bd.fd, np.nan))

    monkeypatch.setattr(cli, "averaged_breakdown", nan_fd)
    path = tmp_path / "out" / "mse.csv"
    assert main(["analyze", "--out", str(path)] + _flags(ORACLE_GRID)) == 1
    assert "error:" in capsys.readouterr().err
    assert not path.exists()


def _simulate_args(out_dir, extra=()):
    return (["simulate", "--out-dir", str(out_dir), "--n", "32", "--m", "4",
             "--k", "2", "--channel-taps", "4", "--trials", "20",
             "--snr-db", "8", "--seed", "77"] + list(extra))


def test_simulate_outputs_and_manifest_roundtrip(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(_simulate_args(d1)) == 0
    header, rows = _rows(d1 / "ber.csv")
    assert header == ["snr_db", "scheme", "subband", "metric", "value",
                      "ci_halfwidth"]
    schemes = {r[1] for r in rows}
    assert schemes == {"fbmc-nif", "fbmc-if", "ofdm"}
    assert len(rows) == 6        # ber + info_bits per scheme
    for r in rows:
        assert r[2] == "1" and r[3] in ("ber", "info_bits")

    manifest = _read(d1 / "manifest.txt")
    assert manifest.startswith("# reloadable run manifest")
    assert "master_seed = 77" in manifest
    assert f"tool_version = {fbmcqam.__version__}" in manifest
    assert "outputs = ber.csv" in manifest

    # reloading the manifest reproduces the run byte for byte
    rc = main(["simulate", "--config", str(d1 / "manifest.txt"),
               "--out-dir", str(d2)])
    assert rc == 0
    assert _read(d2 / "ber.csv") == _read(d1 / "ber.csv")


def test_simulate_repeat_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(_simulate_args(d1)) == 0
    assert main(_simulate_args(d2)) == 0
    assert _read(d1 / "ber.csv") == _read(d2 / "ber.csv")


def test_presets_set_offsets(capsys):
    assert main(["simulate", "--preset", "async3band", "--print-config"]) == 0
    cfg = parse_config_text(capsys.readouterr().out)
    assert cfg.subband_offsets == (36, 0, 36)   # half of N + N/8 at defaults
    assert main(["simulate", "--preset", "sync3band", "--print-config"]) == 0
    cfg = parse_config_text(capsys.readouterr().out)
    assert cfg.subband_offsets == (0, 0, 0)
    # explicit offsets beat the preset
    rc = main(["simulate", "--preset", "async3band",
               "--subband-offsets", "5,0,5", "--print-config"])
    assert rc == 0
    assert parse_config_text(capsys.readouterr().out).subband_offsets == (5, 0, 5)


def test_invalid_config_exits_2_without_outputs(tmp_path, capsys):
    d = tmp_path / "out"
    assert main(["filter", "--out-dir", str(d), "--n", "12"]) == 2
    assert "power of two" in capsys.readouterr().err
    assert not d.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_long_loaded_profile_exits_2_without_outputs(tmp_path, capsys, command):
    # a loaded profile obeys the same n/2 limit as --channel-taps
    pdp = tmp_path / "taps.csv"
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "analyze" else ["--out-dir", str(out)]

    def run(n_taps):
        pdp.write_text("".join(f"{l},1\n" for l in range(n_taps)))
        return main([command, *target, "--n", "16", "--m", "4", "--k", "2",
                     "--trials", "20", "--theory-draws", "5", "--snr-db", "10",
                     "--pdp-file", str(pdp)])

    assert run(12) == 2
    assert "pdp_file" in capsys.readouterr().err
    assert not out.exists()
    assert run(8) == 0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 3\n")
    assert main(["complexity", "--config", str(path)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_retired_guard_samples_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complexity", "--guard-samples", "0"])
    assert exc.value.code == 2
    assert "--guard-samples" in capsys.readouterr().err


def test_runtime_error_exits_1(tmp_path, capsys):
    d = tmp_path / "out"
    rc = main(_simulate_args(d, ["--subband-starts", "0,8",
                                 "--subband-offsets", "0,0"]))
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not d.exists()


def test_missing_config_file_exits_1(capsys):
    assert main(["complexity", "--config", "/no/such/file.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_flags_win_over_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n = 32\nseed = 5\n")
    rc = main(["complexity", "--config", str(path), "--n", "16",
               "--print-config"])
    assert rc == 0
    cfg = parse_config_text(capsys.readouterr().out)
    assert cfg.n == 16 and cfg.seed == 5
