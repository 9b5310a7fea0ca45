"""Configuration parsing, validation, and the key = value file format."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmcqam.config import (ConfigError, RunConfig, WORKER_ENV_VAR,
                            apply_overrides, format_config, load_config_file,
                            parse_config_text, worker_count)


def test_defaults_are_valid():
    cfg = RunConfig().validate()
    assert cfg.violations() == []


def test_resolved_defaults():
    cfg = RunConfig()
    assert cfg.cp() == 8
    assert cfg.band_width() == 16
    assert cfg.band_starts() == (4, 24, 44)
    assert cfg.band_offsets() == (0, 0, 0)
    assert cfg.async_offset() == 36


def test_sigma2_is_symbol_power_over_linear_snr():
    assert RunConfig().sigma2(0.0) == 1.0
    assert RunConfig(symbol_power=4.0).sigma2(20.0) == pytest.approx(0.04, rel=1e-15)
    for snr_db in (-3.0, 7.5, 30.0):
        cfg = RunConfig(symbol_power=2.5)
        assert cfg.sigma2(snr_db) == cfg.symbol_power / 10.0 ** (snr_db / 10.0)


def test_explicit_values_override_auto():
    cfg = RunConfig(cp_len=16, subband_width=8,
                    subband_starts=(0, 10, 20), subband_offsets=(1, 2, 3))
    assert cfg.cp() == 16
    assert cfg.band_width() == 8
    assert cfg.band_starts() == (0, 10, 20)
    assert cfg.band_offsets() == (1, 2, 3)


def test_all_violations_reported_at_once():
    bad = RunConfig(n=12, mod_order=32, eta=2.0, equalizer="lmmse",
                    snr_db=(), ci_target=1.5, channel_taps=0)
    with pytest.raises(ConfigError) as err:
        bad.validate()
    msg = str(err.value)
    for field in ("n:", "mod_order:", "eta:", "equalizer:", "snr_db:",
                  "ci_target:", "channel_taps:"):
        assert field in msg


@pytest.mark.parametrize("key, bad, good", [("seed", -1, 0),
                                            ("min_info_bits", -5, 1),
                                            ("min_info_bits", 0, 1)])
def test_negative_seed_and_nonpositive_info_floor_rejected(key, bad, good):
    # numpy seeds only from non-negative integers, and a campaign's info-bit
    # floor is at least one bit; both are rejected before any command runs
    errs = RunConfig(**{key: bad}).violations()
    assert errs == [f"{key}: {bad} must be >= {good}"]
    assert RunConfig(**{key: good}).violations() == []


@pytest.mark.parametrize("key, bad, message", [
    ("cp_len", -5, "cp_len: -5 must be >= 0, or -1 for N/8"),
    ("cp_len", -2, "cp_len: -2 must be >= 0, or -1 for N/8"),
    ("subband_width", 0, "subband_width: 0 must be >= 1, or -1 for N/4"),
    ("subband_width", -7, "subband_width: -7 must be >= 1, or -1 for N/4")])
def test_only_minus_one_selects_the_automatic_value(key, bad, message):
    # -1 is the one documented "auto"; any other value out of range is an
    # error, not a silent N/8 or N/4
    assert RunConfig(**{key: bad}).violations() == [message]
    auto = RunConfig(cp_len=-1, subband_width=-1)
    assert auto.violations() == []
    assert (auto.cp(), auto.band_width()) == (auto.n // 8, auto.n // 4)


def test_band_violations():
    with pytest.raises(ConfigError, match="overlap"):
        RunConfig(subband_starts=(0, 8, 40)).validate()
    with pytest.raises(ConfigError, match="outside"):
        RunConfig(subband_starts=(0, 20, 60)).validate()
    with pytest.raises(ConfigError, match="offsets"):
        RunConfig(subband_offsets=(0, 0)).validate()
    with pytest.raises(ConfigError, match="subband_offsets"):
        RunConfig(subband_offsets=(0, 0, 64 * 14)).validate()
    with pytest.raises(ConfigError, match="2 bands given, exactly 3 required"):
        RunConfig(subband_starts=(0, 32), subband_offsets=(0, 0)).validate()


def test_channel_longer_than_half_symbol_rejected():
    with pytest.raises(ConfigError, match="channel_taps"):
        RunConfig(n=8, channel_taps=5).validate()


def test_format_parse_roundtrip():
    cfg = RunConfig(n=32, eta=0.25, equalizer="zf", overlap_blocks=True,
                    snr_db=(1.5, 2.0, 30.0), subband_starts=(0, 10, 20),
                    pdp_file="taps.csv", trials=500)
    assert parse_config_text(format_config(cfg)) == cfg


def test_format_keeps_short_floats_and_writes_others_exactly():
    text = format_config(RunConfig(symbol_power=0.123456789, snr_db=(12.3456789, 20.0)))
    assert "symbol_power = 0.123456789\n" in text
    assert "snr_db = 12.3456789,20\n" in text
    assert "eta = 0\n" in text and "pdp_decay_db = 20\n" in text


_floats = st.floats(allow_nan=False)


@given(symbol_power=_floats, eta=_floats, pdp_decay_db=_floats, ci_target=_floats,
       snr_db=st.lists(_floats, max_size=4).map(tuple),
       seed=st.integers(), subband_starts=st.lists(st.integers(), max_size=3).map(tuple),
       coded=st.booleans())
def test_format_parse_roundtrip_is_lossless(**values):
    cfg = RunConfig(**values)
    assert parse_config_text(format_config(cfg)) == cfg


def test_non_finite_values_rejected_but_inf_snr_is_noiseless():
    bad = RunConfig(snr_db=(10.0, -math.inf, math.nan), symbol_power=math.inf,
                    pdp_decay_db=math.nan)
    with pytest.raises(ConfigError) as err:
        bad.validate()
    msg = str(err.value)
    for line in ("snr_db: -inf", "snr_db: nan", "symbol_power: inf", "pdp_decay_db: nan"):
        assert line in msg
    assert RunConfig(snr_db=(10.0, math.inf)).validate().sigma2(math.inf) == 0.0


def test_duplicate_snr_points_rejected_after_parsing():
    # one SNR point is one result: 10 and 1e1 parse to the same point
    cfg = apply_overrides(RunConfig(), {"snr_db": "10,1e1,0,30,0"})
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    msg = str(err.value)
    assert "snr_db: 10 given more than once" in msg
    assert "snr_db: 0 given more than once" in msg
    assert "30" not in msg
    assert apply_overrides(RunConfig(), {"snr_db": "10,20,inf"}).validate()


def test_parse_skips_comments_and_blanks():
    cfg = parse_config_text("# a comment\n\n  n = 16\n seed=7 \n")
    assert cfg.n == 16 and cfg.seed == 7


def test_parse_reports_malformed_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("n = 16\nnot a key value pair\n")


def test_repeated_key_rejected_with_both_line_numbers():
    with pytest.raises(ConfigError, match=r"line 3: key 'n' already set on line 1"):
        parse_config_text("n = 16\nseed = 7\nn = 32\n")
    # spacing around the key does not hide a repeat
    with pytest.raises(ConfigError, match="line 2: key 'seed'"):
        parse_config_text("seed = 7\n  seed=8\n")


def test_manifest_meta_keys_ignored():
    text = ("n = 16\nmaster_seed = 5\ntool_version = 9.9\n"
            "wall_time_s = 1.25\noutputs = ber.csv\n")
    cfg = parse_config_text(text)
    assert cfg.n == 16
    assert cfg.seed == RunConfig().seed     # master_seed is bookkeeping only


@pytest.mark.parametrize("key,value", [("guard_samples", "263"),
                                       ("pdp_normalize", "false")])
def test_retired_keys_ignored(key, value):
    # manifests written before the field was retired still load
    old = format_config(RunConfig(n=16)) + f"{key} = {value}\n"
    assert parse_config_text(old) == RunConfig(n=16)
    assert apply_overrides(RunConfig(), {key: value}) == RunConfig()
    assert key not in format_config(RunConfig())


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="carrier_count"):
        parse_config_text("carrier_count = 4\n")


def test_bad_values_report_field():
    with pytest.raises(ConfigError, match="trials"):
        apply_overrides(RunConfig(), {"trials": "many"})
    with pytest.raises(ConfigError, match="coded"):
        apply_overrides(RunConfig(), {"coded": "maybe"})


def test_scalar_fields_parse_as_their_default_type():
    cfg = apply_overrides(RunConfig(), {"n": " 32 ", "eta": "0.5",
                                        "equalizer": " zf ", "coded": "no"})
    assert (cfg.n, cfg.eta, cfg.equalizer, cfg.coded) == (32, 0.5, "zf", False)
    assert type(cfg.n) is int and type(cfg.eta) is float
    with pytest.raises(ConfigError, match="eta: could not convert string to float"):
        apply_overrides(RunConfig(), {"eta": "half"})


def test_bool_spellings():
    for text, value in (("true", True), ("1", True), ("on", True),
                        ("false", False), ("0", False), ("off", False)):
        assert apply_overrides(RunConfig(), {"coded": text}).coded is value


def test_tuple_fields_parse():
    cfg = apply_overrides(RunConfig(), {"snr_db": "0,2.5,5",
                                        "subband_starts": "1,21,41",
                                        "subband_offsets": ""})
    assert cfg.snr_db == (0.0, 2.5, 5.0)
    assert cfg.subband_starts == (1, 21, 41)
    assert cfg.subband_offsets == ()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 16\nchannel_taps = 4\n")
    assert load_config_file(path).n == 16
    with pytest.raises(OSError):
        load_config_file(tmp_path / "missing.cfg")


def test_worker_count(monkeypatch):
    monkeypatch.delenv(WORKER_ENV_VAR, raising=False)
    assert worker_count() == 1
    monkeypatch.setenv(WORKER_ENV_VAR, "")
    assert worker_count() == 1
    monkeypatch.setenv(WORKER_ENV_VAR, "3")
    assert worker_count() == 3
    for raw in ("junk", "-4", "0"):
        monkeypatch.setenv(WORKER_ENV_VAR, raw)
        with pytest.raises(ConfigError, match=WORKER_ENV_VAR):
            worker_count()
