"""Run configuration: typed parameters, `key = value` files, validation.

A configuration file is a flat list of ``key = value`` lines (``#`` comments
allowed). Flags given on the command line win over file values. Validation
collects every violated field before raising, so a bad config reports all of
its problems at once. Run manifests reuse this format; a handful of manifest
bookkeeping keys, and the keys of retired fields, are recognized and ignored
on load so a manifest, old or new, can be fed straight back as a config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
import math
import os

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config_text",
    "apply_overrides",
    "load_config_file",
    "format_config",
    "worker_count",
    "WORKER_ENV_VAR",
]

WORKER_ENV_VAR = "FBMCQAM_WORKERS"

# manifest bookkeeping keys that are not configuration, and retired fields
# that older manifests still carry
_META_KEYS = {"master_seed", "tool_version", "wall_time_s", "outputs",
              "command", "created"}
_RETIRED_KEYS = {"guard_samples", "pdp_normalize"}


class ConfigError(ValueError):
    """Raised with one message line per violated field."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: system, channel, and experiment knobs."""

    n: int = 64
    m: int = 14
    k: int = 5
    symbol_power: float = 1.0
    mod_order: int = 16
    eta: float = 0.0
    equalizer: str = "mmse"
    receiver_mode: str = "if"

    channel_taps: int = 8          # L
    pdp_decay_db: float = 20.0     # first-to-last tap power drop
    pdp_file: str = ""             # optional `l,rho2` CSV; overrides the exponential
    overlap_blocks: bool = False   # adjacent blocks leak through the channel tail
    cp_len: int = -1               # OFDM cyclic prefix; -1 = auto: N // 8

    filter_file: str = ""          # optional prototype coefficient file

    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 0                # 0 = adaptive (simulate) / command default
    seed: int = 20260815
    coded: bool = True
    min_info_bits: int = 2_000_000  # floor at the decision SNR point
    ci_target: float = 0.2          # CI half-width / estimate at decision SNR
    theory_draws: int = 1000        # channel draws for averaged closed forms

    subband_width: int = -1                  # -1 = auto: N // 4
    subband_starts: tuple[int, ...] = ()     # empty = auto layout
    subband_offsets: tuple[int, ...] = ()    # empty = all zero (synchronous)

    # resolved (auto-aware) values -----------------------------------------

    def cp(self) -> int:
        return self.n // 8 if self.cp_len == -1 else self.cp_len

    def sigma2(self, snr_db: float) -> float:
        """Complex noise variance at an SNR point: delta^2 / 10^(snr_db/10)."""
        return self.symbol_power / 10.0 ** (snr_db / 10.0)

    def band_width(self) -> int:
        return self.n // 4 if self.subband_width == -1 else self.subband_width

    def band_starts(self) -> tuple[int, ...]:
        if self.subband_starts:
            return self.subband_starts
        # three equal bands, total inter-band guard N/8, margins at the edges
        w = self.band_width()
        gap = max(self.n // 16, 0)
        margin = (self.n - 3 * w - 2 * gap) // 2
        return (margin, margin + w + gap, margin + 2 * (w + gap))

    def band_offsets(self) -> tuple[int, ...]:
        if self.subband_offsets:
            return self.subband_offsets
        return (0, 0, 0)

    def async_offset(self) -> int:
        """Half a symbol interval in samples, CP overhead included."""
        return int(0.5 * (self.n + self.cp()))

    def violations(self) -> list[str]:
        errs = []
        if self.n < 2 or self.n & (self.n - 1):
            errs.append(f"n: {self.n} is not a power of two >= 2")
        if self.m < 1:
            errs.append(f"m: {self.m} must be >= 1")
        if self.k < 1:
            errs.append(f"k: {self.k} must be >= 1")
        if not (0 < self.symbol_power < math.inf):
            errs.append(f"symbol_power: {self.symbol_power} must be finite and > 0")
        if self.mod_order not in (4, 16, 64):
            errs.append(f"mod_order: {self.mod_order} not in (4, 16, 64)")
        if not (0.0 <= self.eta <= 1.0):
            errs.append(f"eta: {self.eta} outside [0, 1]")
        if self.equalizer not in ("zf", "mmse"):
            errs.append(f"equalizer: {self.equalizer!r} not 'zf' or 'mmse'")
        if self.receiver_mode not in ("if", "nif"):
            errs.append(f"receiver_mode: {self.receiver_mode!r} not 'if' or 'nif'")
        if self.channel_taps < 1:
            errs.append(f"channel_taps: {self.channel_taps} must be >= 1")
        if self.n >= 2 and not (self.n & (self.n - 1)) and self.channel_taps * 2 > self.n:
            errs.append(f"channel_taps: {self.channel_taps} exceeds n/2 = {self.n // 2}")
        if not (0 <= self.pdp_decay_db < math.inf):
            errs.append(f"pdp_decay_db: {self.pdp_decay_db} must be finite and >= 0")
        if self.cp() < 0:
            errs.append(f"cp_len: {self.cp_len} must be >= 0, or -1 for N/8")
        if not self.snr_db:
            errs.append("snr_db: at least one SNR point required")
        # +inf is a noiseless point (sigma^2 = 0); -inf has no finite noise
        for snr in self.snr_db:
            if not (snr > -math.inf):
                errs.append(f"snr_db: {snr} must be finite or +inf")
        # a result belongs to one SNR point, so a point is given once; the
        # values are compared as parsed, so 10 and 1e1 are the same point
        repeated = [snr for i, snr in enumerate(self.snr_db)
                    if snr in self.snr_db[:i]]
        for snr in dict.fromkeys(repeated):
            errs.append(f"snr_db: {snr:g} given more than once")
        if self.trials < 0:
            errs.append(f"trials: {self.trials} must be >= 0")
        if self.seed < 0:
            errs.append(f"seed: {self.seed} must be >= 0")
        if self.min_info_bits < 1:
            errs.append(f"min_info_bits: {self.min_info_bits} must be >= 1")
        if not (0 < self.ci_target < 1):
            errs.append(f"ci_target: {self.ci_target} outside (0, 1)")
        if self.theory_draws < 1:
            errs.append(f"theory_draws: {self.theory_draws} must be >= 1")
        errs.extend(self._band_violations())
        return errs

    def _band_violations(self) -> list[str]:
        errs = []
        starts, w = self.band_starts(), self.band_width()
        if len(starts) != 3:
            errs.append(f"subband_starts: {len(starts)} bands given, exactly 3 required")
        if w < 1:
            errs.append(f"subband_width: {w} must be >= 1, or -1 for N/4")
            return errs
        spans = sorted((s, s + w) for s in starts)
        for s, e in spans:
            if s < 0 or e > self.n:
                errs.append(f"subband_starts: band [{s}, {e}) outside [0, {self.n})")
        for (_, e1), (s2, _) in zip(spans, spans[1:]):
            if s2 < e1:
                errs.append(f"subband_starts: bands overlap at subcarrier {s2}")
        offs = self.band_offsets()
        if len(offs) != len(starts):
            errs.append(f"subband_offsets: {len(offs)} offsets for {len(starts)} bands")
        for o in offs:
            if not (0 <= o < self.n * self.m):
                errs.append(f"subband_offsets: {o} outside [0, {self.n * self.m})")
        return errs

    def validate(self) -> "RunConfig":
        errs = self.violations()
        if errs:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
        return self


# ---------------------------------------------------------------------------
# key = value parsing
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_tuple(text: str, kind) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(kind(v) for v in text.split(","))


_FIELD_NAMES = {f.name for f in fields(RunConfig)}
# element type of each tuple field; every other field parses as the type of
# its default value
_TUPLE_KINDS = {"snr_db": float, "subband_starts": int, "subband_offsets": int}


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply string key/value overrides with type coercion; unknown keys raise."""
    updates = {}
    errs = []
    for key, raw in overrides.items():
        if key in _META_KEYS or key in _RETIRED_KEYS:
            continue
        if key not in _FIELD_NAMES:
            errs.append(f"{key}: unknown configuration key")
            continue
        try:
            if key in _TUPLE_KINDS:
                updates[key] = _parse_tuple(raw, _TUPLE_KINDS[key])
            else:
                kind = type(getattr(cfg, key))
                updates[key] = (_parse_bool if kind is bool else kind)(raw.strip())
        except ValueError as exc:
            errs.append(f"{key}: {exc}")
    if errs:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    return replace(cfg, **updates)


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    overrides: dict[str, str] = {}
    first_line: dict[str, int] = {}
    errs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errs.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            errs.append(f"line {lineno}: key {key!r} already set on line "
                        f"{first_line[key]}")
            continue
        first_line[key] = lineno
        overrides[key] = value.strip()
    if errs:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    return apply_overrides(cfg, overrides)


def load_config_file(path, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base)


def _format_float(value: float) -> str:
    """``:g`` where it reads back as the same float, else the exact repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def format_config(cfg: RunConfig) -> str:
    """Render every field as `key = value`, tuples as comma lists; floats
    read back exactly."""
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            rendered = ",".join(_format_float(v) if isinstance(v, float) else str(v)
                                for v in val)
        elif isinstance(val, bool):
            rendered = "true" if val else "false"
        elif isinstance(val, float):
            rendered = _format_float(val)
        else:
            rendered = str(val)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def worker_count() -> int:
    """Worker pool size from the environment: unset or empty means 1; any
    other value must be an integer >= 1."""
    raw = os.environ.get(WORKER_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        if (n := int(raw)) >= 1:
            return n
    except ValueError:
        pass
    raise ConfigError(f"invalid configuration:\n  {WORKER_ENV_VAR}: {raw!r} "
                      "is not an integer >= 1")
