"""Command-line interface: file sets, exit codes, config resolution."""

from dataclasses import fields, replace
import math
import os
import subprocess
import sys

from hypothesis import example, given
from hypothesis import strategies as st
import numpy as np
import pytest

import fbmcqam
from fbmcqam import cli
from fbmcqam.cli import main
from fbmcqam.config import (WORKER_ENV_VAR, RunConfig, apply_overrides,
                            parse_config_text)
from helpers import reference_db, reference_mse_csv

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


def _subprocess_env(**extra):
    """This environment plus ``extra``, with the package under test first on
    the path of a child interpreter."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(fbmcqam.__file__)),
         os.environ.get("PYTHONPATH", "")]), **extra)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the package must run without it
    code = "import sys, fbmcqam.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), check=True,
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


def test_analyze_csv_is_independent_of_blas_threads(tmp_path):
    # the leakage and the propagation run through BLAS products; the thread
    # count is read when numpy loads, so each run gets its own interpreter
    texts = []
    for threads in ("1", "2"):
        path = tmp_path / f"mse{threads}.csv"
        subprocess.run([sys.executable, "-m", "fbmcqam.cli", "analyze", "--out",
                        str(path), "--snr-db", "0,30"],
                       env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_simulate_ber_is_independent_of_blas_threads(tmp_path):
    # the filter-bank kernels are batched BLAS products; as above, each
    # thread count gets its own interpreter
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        subprocess.run([sys.executable, "-m", "fbmcqam.cli", "simulate", "--preset",
                        "async3band", "--coded", "false", "--n", "32", "--trials", "40",
                        "--snr-db", "10,30", "--out-dir", str(out)],
                       env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True)
        texts.append((out / "ber.csv").read_bytes())
    assert texts[0] == texts[1]


_VALIDATION_HEX = """
import dataclasses
import numpy as np
from fbmcqam.config import RunConfig
from fbmcqam.simulator import run_link_validation

def hexed(v):
    if dataclasses.is_dataclass(v):
        return [hexed(getattr(v, f.name)) for f in dataclasses.fields(v)]
    if isinstance(v, (tuple, list)):
        return [hexed(e) for e in v]
    if isinstance(v, np.ndarray):
        return [float(e).hex() for e in v.ravel()]
    return float(v).hex() if isinstance(v, float) else repr(v)

for mode in ("if", "nif"):
    cfg = RunConfig(n=256, trials=16, snr_db=(10.0, 30.0), seed=5150,
                    overlap_blocks=True, receiver_mode=mode)
    print(hexed(run_link_validation(cfg)))
"""


def test_link_validation_is_independent_of_blas_threads():
    # the channel and the filter bank are batched BLAS products, which
    # OpenBLAS may split across threads once they are large enough (at
    # N = 256 most stay on one); as above, each thread count gets its own
    # interpreter. Every field of every point is compared as float hex
    texts = []
    for threads in ("1", "2"):
        texts.append(subprocess.run([sys.executable, "-c", _VALIDATION_HEX],
                                    env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                                    check=True, capture_output=True, text=True).stdout)
    assert texts[0] == texts[1] and "0x" in texts[0]


def _texts(rows):
    """The rows of a NUL-padded ASCII matrix as strings."""
    return [bytes(row).replace(b"\0", b"").decode() for row in rows]


def _db_texts(values):
    return _texts(cli._db_fields(np.array(values, dtype=float)))


@pytest.mark.parametrize("value,field", [
    (0.0, "-inf"), (-0.0, "-inf"), (-1.0, "-inf"), (-math.inf, "-inf"),
    (math.inf, "inf"), (1e-3, "-30.000000"), (1.0, "0.000000"),
    (1.0 - 1e-12, "-0.000000"), (1e300, "3000.000000")])
def test_db_markers(value, field):
    assert _db_texts([value]) == [field] == [reference_db(value)]


def test_db_rejects_nan():
    with pytest.raises(ValueError, match="nan"):
        cli._db_fields(np.array([1.0, math.nan]))


def _tie_neighbour(k, sign, step):
    """A power whose dB value d has |d| 10^6 within about one ulp of k + 1/2,
    then shifted by ``step`` ulps: the float nearest the tie among the 64
    neighbours either side of a Newton estimate of 10^(sign (k + 1/2) / 10^7).
    Near |d| >= 10 one ulp of the power moves |d| 10^6 by less than one of
    its ulps, so the neighbours reach the tie."""
    target = sign * (k + 0.5) / 1e6
    v = 10.0 ** (target / 10.0)
    v *= 10.0 ** ((target - 10.0 * math.log10(v)) / 10.0)
    near = [v]
    for direction in (-math.inf, math.inf):
        x = v
        for _ in range(64):
            x = math.nextafter(x, direction)
            near.append(x)
    best = min(near, key=lambda x: abs(abs(10.0 * math.log10(x)) * 1e6 - (k + 0.5)))
    for _ in range(abs(step)):
        best = math.nextafter(best, math.copysign(math.inf, step))
    return best


@given(st.lists(st.one_of(
    st.floats(allow_nan=False),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
    st.floats(min_value=1.0 - 1e-7, max_value=1.0),               # "-0.000000"
    st.builds(_tie_neighbour,
              st.integers(10 ** 7, 3 * 10 ** 8) | st.integers(3 * 10 ** 8, 3 * 10 ** 9),
              st.sampled_from([-1, 1]), st.integers(-1, 1))),
    min_size=1, max_size=40))
@example([5e-324, -5e-324, 0.0, -0.0, math.inf, -math.inf, 1.0 - 2 ** -53])
# near a tie, where numpy's vectorized log10 differs from math.log10 in the
# last bit on some builds, enough to change the six-decimal text
@example([2.025390413209399e-14, 1.3047384168982455e-15, 828850588182243.9])
# each distinct value is formatted once and its text gathered back: repeats
# in any order, both zeros, both infinities and subnormals
@example([0.5, 5e-324, 0.5, -0.0, 0.0, math.inf, 1e-310, -math.inf, 0.5, 0.0,
          -0.0, 5e-324, 1e-310, math.inf, 2.0, -math.inf, 2.0, -1.0, -1.0])
def test_db_writer_equals_reference_row_by_row(values):
    assert _db_texts(values) == [reference_db(v) for v in values]


@given(st.builds(lambda k, sign: sign * (k + 0.5) / 1e6,
                 st.integers(0, 4 * 10 ** 9), st.sampled_from([-1.0, 1.0]))
       | st.floats(-1e9, 1e9))
@example(0.5e-6)
@example(-2.5e-6)
@example(0.0)
@example(-0.0)
def test_fixed_point_rounding_matches_format(x):
    # the ties k + 1/2 themselves and their neighbouring floats, where
    # rint(|x| 10^6) may differ from .6f and Python formats instead
    for v in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        assert _texts(cli._fixed6(np.array([v]))) == [f"{v:.6f}"]


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


def test_analyze_streams_its_blocks_and_a_late_nan_leaves_nothing(tmp_path, capsys,
                                                                  monkeypatch):
    # each (SNR, mode) block reaches the temporary file before the next
    # breakdown is built, so the text is never held whole; a NaN at the
    # last point still exits 1 and removes the partial file and the
    # directory made for it
    real = cli.averaged_breakdown
    out_dir = tmp_path / "out"
    last = RunConfig().sigma2(20.0)
    sizes = []

    def watching(cfg, ctx, mode, moments, sigma2, *args, **kwargs):
        sizes.append(sum(p.stat().st_size for p in out_dir.glob(".fbmcqam-*")))
        bd = real(cfg, ctx, mode, moments, sigma2, *args, **kwargs)
        return replace(bd, fd=np.full_like(bd.fd, np.nan)) if sigma2 == last else bd

    monkeypatch.setattr(cli, "averaged_breakdown", watching)
    path = out_dir / "mse.csv"
    assert main(["analyze", "--out", str(path), "--snr-db", "0,10,20"] + SMALL) == 1
    assert "error:" in capsys.readouterr().err
    # the NaN stops the run at the last point's first mode, the fifth breakdown
    assert len(sizes) == 5 and sizes == sorted(sizes) and sizes[1] > 0
    assert not out_dir.exists()


def test_analyze_builds_each_channel_moment_once_per_snr_point(tmp_path, monkeypatch):
    # one freq_response of the draw stack per run, one equalizer per SNR
    # point, shared by both receivers
    calls = {"make_equalizer": 0, "freq_response": 0}
    for name in calls:
        for module in (fbmcqam.analytics, fbmcqam.channel, fbmcqam.cli,
                       fbmcqam.simulator, fbmcqam.transceiver):
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    path = tmp_path / "mse.csv"
    assert main(["analyze", "--out", str(path), "--snr-db", "0,10,20"] + SMALL) == 0
    assert calls == {"make_equalizer": 3, "freq_response": 1}


def test_analyze_takes_zeta_from_the_link_context(tmp_path, monkeypatch):
    # the breakdowns read the context's zeta_m and compute no enhancement
    # factor of their own (one einsum per breakdown, 0.46 ms at N = 64)
    flags = ["--snr-db", "0,30", "--eta", "0.5"] + SMALL
    want = tmp_path / "want.csv"
    assert main(["analyze", "--out", str(want)] + flags) == 0

    def refused(*args, **kwargs):
        raise AssertionError("zeta_factors called outside make_context")

    monkeypatch.setattr(fbmcqam.analytics, "zeta_factors", refused)
    got = tmp_path / "got.csv"
    assert main(["analyze", "--out", str(got)] + flags) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("command,target", [
    ("filter", "--out-dir"), ("analyze", "--out"), ("simulate", "--out-dir"),
    ("complexity", "--out")])
def test_duplicate_snr_points_exit_2_without_outputs(tmp_path, capsys, command, target):
    path = tmp_path / "out"
    assert main([command, target, str(path), "--snr-db", "10,0,1e1"] + SMALL) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "snr_db: 10 given more than once" in err
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
    # the validation-only keys are written at their defaults, which every
    # subcommand accepts
    assert "receiver_mode = if\n" in manifest
    assert "overlap_blocks = false\n" in manifest

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


@pytest.mark.parametrize("powers", ["0,2\n1,-1\n", "0,1\n1,nan\n"])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_bad_profile_powers_exit_2_without_outputs(tmp_path, capsys, command, powers):
    pdp = tmp_path / "taps.csv"
    pdp.write_text(powers)
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "analyze" else ["--out-dir", str(out)]
    assert main([command, *target, "--n", "16", "--m", "4", "--k", "2", "--trials", "20",
                 "--theory-draws", "5", "--snr-db", "10", "--pdp-file", str(pdp)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "pdp_file" in err
    assert not out.exists()


def test_repeated_config_key_exits_2_without_outputs(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n = 16\nm = 4\nn = 32\n")
    out = tmp_path / "out"
    assert main(["filter", "--config", str(path), "--out-dir", str(out)]) == 2
    assert "line 3: key 'n' already set on line 1" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 3\n")
    assert main(["complexity", "--config", str(path)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


COMMAND_TARGETS = [("filter", "--out-dir"), ("analyze", "--out"),
                   ("simulate", "--out-dir"), ("complexity", "--out")]


@pytest.mark.parametrize("command,target", COMMAND_TARGETS)
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", [("receiver_mode", "nif"),
                                       ("overlap_blocks", "true")])
def test_validation_only_keys_exit_2_in_every_command(tmp_path, capsys, command,
                                                      target, source, key, value):
    # only run_link_validation reads these keys; a subcommand must not accept
    # a value it would ignore, not even to print it
    out = tmp_path / "out"
    if source == "flag":
        setting = ["--" + key.replace("_", "-"), value]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        setting = ["--config", str(path)]
    assert main([command, target, str(out), "--print-config", *setting]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key}: " in captured.err
    assert "read only by run_link_validation" in captured.err
    assert not out.exists()


def test_validation_only_keys_accept_their_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["filter", "--out-dir", str(out), "--receiver-mode", "nif"]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main(["filter", "--out-dir", str(out), "--receiver-mode", "if",
                 "--overlap-blocks", "false"] + SMALL) == 0
    assert (out / "complexity.csv").exists()


@pytest.mark.parametrize("command,target", [t for t in COMMAND_TARGETS
                                            if t[0] != "complexity"])
def test_untabulated_overlap_exits_2_without_outputs(tmp_path, capsys, command,
                                                     target):
    # with no filter_file the design table decides which K exist
    out = tmp_path / "out"
    assert main([command, target, str(out), "--k", "9"]) == 2
    assert "k: no tabulated design for overlap 9" in capsys.readouterr().err
    assert not out.exists()
    assert main(["complexity", "--k", "9"]) == 0


@pytest.mark.parametrize("command,target", COMMAND_TARGETS)
@pytest.mark.parametrize("key,value", [("seed", "-1"), ("min_info_bits", "-5")])
def test_negative_seed_and_info_floor_exit_2_without_outputs(tmp_path, capsys,
                                                             command, target,
                                                             key, value):
    out = tmp_path / "out"
    assert main([command, target, str(out), "--" + key.replace("_", "-"), value]
                + SMALL) == 2
    captured = capsys.readouterr()
    assert f"invalid configuration:\n  {key}: {value} must be >= " in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("content", ["0.1\n0.2\n0.3\n", "0.5\nabc\n",
                                     "0\n" * 32])
@pytest.mark.parametrize("command,target", [t for t in COMMAND_TARGETS
                                            if t[0] != "complexity"])
def test_bad_filter_file_content_exits_2_without_outputs(tmp_path, capsys, command,
                                                         target, content):
    # wrong length, a non-number and all zeros are configuration errors, as
    # a bad pdp_file is; a missing file stays an I/O error (exit 1)
    path = tmp_path / "bad_filter.txt"
    path.write_text(content)
    out = tmp_path / "out"
    assert main([command, target, str(out), "--filter-file", str(path), "--trials", "4",
                 "--theory-draws", "5", "--snr-db", "10"] + SMALL) == 2
    err = capsys.readouterr().err
    assert "invalid configuration:\n  filter_file: " in err
    assert not out.exists()
    assert main([command, target, str(out), "--filter-file",
                 str(tmp_path / "missing.txt")] + SMALL) == 1
    assert not out.exists()


@pytest.mark.parametrize("key,content,command,target", [
    ("filter_file", "0.5\nabc\n", "filter", "--out-dir"),
    ("filter_file", "0.5\nabc\n", "analyze", "--out"),
    ("filter_file", "0.5\nabc\n", "simulate", "--out-dir"),
    ("pdp_file", "0,1\nx,0.5\n", "analyze", "--out"),
    ("pdp_file", "0,1\nx,0.5\n", "simulate", "--out-dir"),
    ("pdp_file", "0,1\n1,abc\n", "analyze", "--out")])
def test_unparsable_loader_line_is_named_by_file_and_line(tmp_path, capsys, key,
                                                          content, command, target):
    path = tmp_path / "data.txt"
    path.write_text(content)
    out = tmp_path / "out"
    assert main([command, target, str(out), "--" + key.replace("_", "-"), str(path),
                 "--trials", "4", "--theory-draws", "5", "--snr-db", "10"]
                + SMALL) == 2
    err = capsys.readouterr().err
    assert f"invalid configuration:\n  {key}: {path}:2: " in err
    assert not out.exists()


@pytest.mark.parametrize("command,target", COMMAND_TARGETS)
@pytest.mark.parametrize("key,value", [("cp_len", "-5"), ("subband_width", "0"),
                                       ("subband_width", "-7")])
def test_auto_sentinel_is_only_minus_one(tmp_path, capsys, command, target, key,
                                         value):
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    assert main([command, target, str(out), flag, value] + SMALL) == 2
    captured = capsys.readouterr()
    assert f"{key}: {value} must be >= " in captured.err
    assert captured.out == "" and not out.exists()
    assert main([command, target, str(out), flag, "-1", "--print-config"] + SMALL) == 0
    assert getattr(parse_config_text(capsys.readouterr().out), key) == -1
    assert not out.exists()


def test_retired_guard_samples_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complexity", "--guard-samples", "0"])
    assert exc.value.code == 2
    assert "--guard-samples" in capsys.readouterr().err


def test_runtime_error_exits_1(tmp_path, capsys):
    d = tmp_path / "out"
    rc = main(_simulate_args(d, ["--filter-file", str(tmp_path / "missing.txt")]))
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not d.exists()


@pytest.mark.parametrize("layout,message", [
    (["--subband-starts", "0,32", "--subband-offsets", "0,0"], "exactly 3"),
    (["--n", "8", "--m", "3", "--k", "2", "--channel-taps", "2",
      "--mod-order", "4", "--subband-width", "1", "--subband-starts", "0,3,6"],
     "too small"),
])
def test_invalid_band_layout_exits_2_without_outputs(tmp_path, capsys, layout,
                                                     message):
    d = tmp_path / "out"
    assert main(["simulate", "--out-dir", str(d), *layout]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and message in err
    assert not d.exists()


def test_filter_failure_removes_files_already_written(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("zeta failed")

    # complexity.csv comes after four files that are already in place
    monkeypatch.setattr(cli, "_complexity_rows", broken)
    d = tmp_path / "out"
    assert main(["filter", "--out-dir", str(d / "run")] + SMALL) == 1
    captured = capsys.readouterr()
    assert "error: zeta failed" in captured.err and "wrote" not in captured.err
    assert not d.exists()
    # a directory that was there before the command survives, emptied of
    # what the command wrote; only the directory the command made goes
    d.mkdir()
    assert main(["filter", "--out-dir", str(d / "run")] + SMALL) == 1
    assert list(d.iterdir()) == []


def test_simulate_failure_after_ber_csv_removes_it(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise OSError("manifest failed")

    # the manifest is built from format_config after ber.csv is written
    monkeypatch.setattr(cli, "format_config", broken)
    d = tmp_path / "out"
    assert main(_simulate_args(d)) == 1
    assert "error: manifest failed" in capsys.readouterr().err
    assert not d.exists()


@pytest.mark.parametrize("command,target", [
    ("filter", "--out-dir"), ("analyze", "--out"), ("simulate", "--out-dir"),
    ("complexity", "--out")])
def test_print_config_for_every_command(tmp_path, capsys, command, target):
    path = tmp_path / "out"
    assert main([command, target, str(path), "--print-config"] + SMALL) == 0
    expected = apply_overrides(RunConfig(), {"n": "16", "m": "4", "k": "2",
                                             "channel_taps": "4"})
    assert parse_config_text(capsys.readouterr().out) == expected
    assert not path.exists()


def test_every_config_field_has_help():
    assert set(cli._FIELD_HELP) == {f.name for f in fields(RunConfig)}


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


@pytest.mark.parametrize("flag, field", [
    ("--snr-db=-inf", "snr_db"),
    ("--snr-db=nan", "snr_db"),
    ("--pdp-decay-db=nan", "pdp_decay_db"),
    ("--symbol-power=inf", "symbol_power"),
])
def test_non_finite_values_exit_2_without_outputs(tmp_path, capsys, flag, field):
    d = tmp_path / "out"
    assert main(_simulate_args(d, [flag])) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and field in err
    assert not d.exists()


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_bad_worker_count_exits_2_without_outputs(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv(WORKER_ENV_VAR, raw)
    d = tmp_path / "out"
    assert main(_simulate_args(d)) == 2
    assert WORKER_ENV_VAR in capsys.readouterr().err
    assert not d.exists()
