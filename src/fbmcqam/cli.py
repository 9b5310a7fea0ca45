"""Command-line front end: configuration, experiments, CSV emission.

Every subcommand runs through one skeleton in ``main``. It resolves the
configuration once (built-in defaults, then a ``--config`` file, then a
``--preset``, then individual field flags, which win), answers
``--print-config``, and calls ``cmd_<name>(args, cfg)``, which holds only
the command's own work. A command writes its files inside ``with
_OutputSet() as out:``: each file is written atomically, and if the command
aborts, the files it already wrote and the directories it created are
removed, so a zero exit status means the full output set exists. Exit
status 2 flags an invalid configuration, 1 an I/O or runtime failure.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable
from dataclasses import fields, replace
import io
import logging
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .analytics import (averaged_breakdown, channel_moments, complexity_report,
                        displaced_covariances, ensemble_taps)
from .channel import freq_response
from .config import (ConfigError, RunConfig, apply_overrides, format_config,
                     load_config_file, WORKER_ENV_VAR)
from .simulator import channel_profile, keep_heap, make_context, run_multiservice
from .transceiver import make_equalizer

__all__ = ["main", "cmd_filter", "cmd_analyze", "cmd_simulate", "cmd_complexity"]

log = logging.getLogger("fbmcqam")

_FIELD_HELP = {
    "n": "subcarriers per symbol (power of two)",
    "m": "multicarrier symbols per block",
    "k": "prototype filter overlap factor",
    "symbol_power": "mean QAM symbol power delta^2",
    "mod_order": "QAM order: 4, 16 or 64",
    "eta": "inverse-filter sparsification fraction in [0, 1]",
    "equalizer": "one-tap equalizer: zf or mmse",
    "receiver_mode": "run_link_validation only, subcommands require if: "
                     "if (inverse) or nif (matched)",
    "channel_taps": "channel length L",
    "pdp_decay_db": "first-to-last tap decay of the default profile",
    "pdp_file": "l,rho2 CSV overriding the default profile; normalized on load",
    "overlap_blocks": "run_link_validation only, subcommands require false: "
                      "model previous-block leakage",
    "cp_len": "OFDM cyclic prefix; -1 selects N/8",
    "filter_file": "prototype coefficients file overriding the design",
    "snr_db": "comma-separated SNR grid in dB",
    "trials": "fixed trials per SNR point; 0 selects adaptive staging",
    "seed": "master seed",
    "coded": "rate-1/2 convolutional coding on/off",
    "min_info_bits": "per-point info-bit floor where the baseline BER >= 1e-4",
    "ci_target": "target CI half-width as a fraction of the BER estimate",
    "theory_draws": "channel draws for ensemble-averaged closed forms",
    "subband_width": "sub-band width in subcarriers; -1 selects N/4",
    "subband_starts": "comma-separated sub-band start subcarriers",
    "subband_offsets": "comma-separated per-band timing offsets in samples",
}


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

class _OutputSet:
    """Atomic writes, used as ``with _OutputSet() as out:``. A clean exit
    logs each written path in write order; an exception removes every file
    written so far, then every directory the set created (deepest first),
    and propagates."""

    def __init__(self):
        self.written: list[str] = []
        self.created: list[str] = []

    def __enter__(self) -> "_OutputSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            for path in self.written:
                log.info("wrote %s", path)
            return
        for path in self.written:
            try:
                os.unlink(path)
            except OSError:
                pass
        for directory in reversed(self.created):
            try:
                os.rmdir(directory)
            except OSError:
                pass

    def write_text(self, path: str, text: str | Iterable[str]) -> None:
        """Write ``text``, or the concatenation of an iterable of parts, to
        ``path``, atomically. Parts go into the temporary file as they come,
        so a generator's text is never held whole; if it raises, the
        temporary file is removed and ``path`` is left as it was."""
        directory = os.path.dirname(os.path.abspath(path))
        missing = []
        parent = directory
        while not os.path.isdir(parent):
            missing.append(parent)
            parent = os.path.dirname(parent)
        os.makedirs(directory, exist_ok=True)
        self.created.extend(reversed(missing))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fbmcqam-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.written.append(path)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(v) for v in row) + "\n")
    return buf.getvalue()


def _digits(v: np.ndarray) -> np.ndarray:
    """``str(i)`` of each non-negative integer of ``v``, as the rows of a
    NUL-padded ASCII (R, W) uint8 matrix: leading zeros are NULs."""
    width = len(str(int(v.max(initial=0))))
    out = np.zeros((v.size, width), dtype=np.uint8)
    for j in range(width):
        out[:, width - 1 - j] = np.where((v >= 10 ** j) | (j == 0),
                                         ord("0") + v // 10 ** j % 10, 0)
    return out


def _fixed6(x: np.ndarray) -> np.ndarray:
    """``f"{v:.6f}"`` of each finite entry of ``x``, as the rows of a
    NUL-padded ASCII (R, W) uint8 matrix.

    ``.6f`` rounds |v| 10^6 to an integer q, half to even. Where
    y = fl(|v| 10^6) is below 2^52 and its fractional part is more than
    2 spacing(y) away from 1/2, the exact product, which is within
    spacing(y) / 2 of y, rounds to the same q = rint(y); every other value
    is formatted by Python.
    """
    y = np.abs(x) * 1e6
    exact = (y < 2.0 ** 52) & (np.abs(y - np.floor(y) - 0.5) > 2.0 * np.spacing(y))
    whole, frac = np.divmod(np.where(exact, np.rint(y), 0.0).astype(np.int64), 10 ** 6)
    slow = {i: f"{float(x[i]):.6f}".encode() for i in np.flatnonzero(~exact)}
    ints = _digits(whole)
    digits = ints.shape[1]
    # sign, integer digits without leading zeros, point, six decimals
    out = np.zeros((x.size, max([digits + 8] + [len(t) for t in slow.values()])),
                   dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, 1:digits + 1] = ints
    out[:, digits + 1] = ord(".")
    for j in range(6):
        out[:, digits + 7 - j] = ord("0") + frac // 10 ** j % 10
    for i, text in slow.items():
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _db_fields(values: np.ndarray) -> np.ndarray:
    """Linear powers to dB fields, as the rows of a NUL-padded ASCII uint8
    matrix (see :func:`_fixed6`): each reads ``f"{10 * log10(v):.6f}"``,
    with ``math.log10`` taken per value, or one of two markers: ``-inf``
    for a power of zero or below (an exactly cancelled component) and
    ``inf`` for +inf (the sinr of a zero total). NaN raises ValueError.

    A field is a function of its value alone, so each distinct value is
    formatted once and the rows are gathered from those (0.0 and -0.0 merge,
    both ``-inf``)."""
    v = np.asarray(values, dtype=float).ravel()
    if np.isnan(v).any():
        raise ValueError(f"cannot write {float(v[np.isnan(v)][0])!r} as a dB value")
    v, rows = np.unique(v, return_inverse=True)
    pos = (v > 0.0) & (v < math.inf)
    d = np.zeros(v.shape)
    d[pos] = 10.0 * np.fromiter(map(math.log10, v[pos].tolist()), float,
                                np.count_nonzero(pos))
    out = _fixed6(d)
    for marker, at in ((b"-inf", v <= 0.0), (b"inf", v == math.inf)):
        out[at] = 0
        out[at, :len(marker)] = np.frombuffer(marker, dtype=np.uint8)
    return out[rows]


def _ascii_rows(texts: list[str]) -> np.ndarray:
    """Strings as the rows of a NUL-padded ASCII uint8 matrix."""
    fixed = np.array([t.encode() for t in texts])
    return fixed.view(np.uint8).reshape(len(texts), fixed.itemsize)


def _grid_keys(m: int, n: int, names: tuple[str, ...]) -> np.ndarray:
    """The ``"m,n,component,"`` keys of an (m, n, component) grid in row
    order, m slowest, as the rows of a NUL-padded ASCII uint8 matrix, built
    from digit columns (see :func:`_digits`)."""
    comma = np.full((1, 1, 1, 1), ord(","), dtype=np.uint8)
    cols = (_digits(np.arange(m))[:, None, None], comma,
            _digits(np.arange(n))[None, :, None], comma,
            _ascii_rows(list(names))[None, None], comma)
    shape = (m, n, len(names))
    rows = np.concatenate([np.broadcast_to(col, shape + col.shape[-1:]) for col in cols],
                          axis=-1)
    return rows.reshape(m * n * len(names), -1)


def _db_rows(head: str, keys: np.ndarray, values: np.ndarray) -> str:
    """CSV rows ``head + key + dB field``, one per row of ``keys`` (see
    :func:`_ascii_rows`) and entry of ``values``."""
    cols = [np.broadcast_to(np.frombuffer(head.encode(), dtype=np.uint8),
                            (len(keys), len(head))),
            keys, _db_fields(values),
            np.full((len(keys), 1), ord("\n"), dtype=np.uint8)]
    return np.concatenate(cols, axis=1).tobytes().translate(None, b"\0").decode()


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key = value configuration file")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")
    group = parser.add_argument_group(
        "configuration overrides (these win over --config and --preset)")
    for f in fields(RunConfig):
        group.add_argument("--" + f.name.replace("_", "-"),
                           dest="opt_" + f.name, metavar="VALUE",
                           help=_FIELD_HELP[f.name])


# fields only ``run_link_validation`` reads; a subcommand rejects a value
# other than the default instead of ignoring it
_VALIDATION_ONLY = ("receiver_mode", "overlap_blocks")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    overrides = {f.name: raw for f in fields(RunConfig)
                 if (raw := getattr(args, "opt_" + f.name)) is not None}
    cfg = apply_overrides(cfg, overrides)
    preset = getattr(args, "preset", None)
    if preset and "subband_offsets" not in overrides:
        delta = cfg.async_offset() if preset == "async3band" else 0
        cfg = replace(cfg, subband_offsets=(delta, 0, delta))
    cfg.validate()
    default = RunConfig()
    unread = [f"{key}: {getattr(cfg, key)!r} is read only by run_link_validation; "
              f"subcommands accept only {getattr(default, key)!r}"
              for key in _VALIDATION_ONLY if getattr(cfg, key) != getattr(default, key)]
    if unread:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(unread))
    return cfg


# ---------------------------------------------------------------------------
# Subcommands: each gets the parsed arguments and the resolved configuration
# ---------------------------------------------------------------------------

def _complexity_rows(cfg: RunConfig) -> list[tuple[str, object]]:
    """The complexity report as (metric, value) rows, ``big_o`` last."""
    report = complexity_report(cfg.n, cfg.m, cfg.k, cfg.eta)
    return report.rows() + [("big_o", report.big_o)]


def cmd_filter(args: argparse.Namespace, cfg: RunConfig) -> int:
    ctx = make_context(cfg)
    rx = ctx.receivers["if"]
    join = lambda name: os.path.join(args.out_dir, name)
    with _OutputSet() as out:
        out.write_text(join("prototype.txt"), "".join(
            f"{w:.17g}\n" for w in ctx.filt.coeffs))
        out.write_text(join("gram_bands.csv"), _csv_text(
            ["d", "nu", "value"],
            ((d, nu, f"{ctx.bands[d, nu]:.12g}")
             for d in range(cfg.k) for nu in range(cfg.n))))
        norms = np.sqrt(np.sum(rx.inv ** 2, axis=0))
        out.write_text(join("inverse_block_norms.csv"), _csv_text(
            ["m", "i", "frobenius"],
            ((mm, i, f"{norms[mm, i]:.12g}")
             for mm in range(cfg.m) for i in range(cfg.m))))
        out.write_text(join("zeta.csv"), _csv_text(
            ["m", "n", "zeta"],
            ((mm, nu, f"{rx.zeta[mm]:.12g}")
             for mm in range(cfg.m) for nu in range(cfg.n))))
        out.write_text(join("complexity.csv"),
                       _csv_text(["metric", "value"], _complexity_rows(cfg)))
    return 0


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> int:
    keep_heap()
    # the exact inverse whatever eta is (ROADMAP item 3: honour eta here)
    ctx = make_context(replace(cfg, eta=0.0))
    pdp = channel_profile(cfg)
    c = freq_response(ensemble_taps(pdp, cfg.theory_draws, cfg.seed), cfg.n)
    mode_components = {"nif": ("resd", "ici", "isi", "fd", "ibi", "noise",
                               "total", "sinr"),
                       "if": ("resd", "fd", "ibi", "noise", "total", "sinr")}
    # rows run m, then n, then component, so a mode's (M, N, C) stack of
    # grids ravels into row order and its "m,n,component," keys are shared
    # by every SNR point
    keys = {mode: _grid_keys(cfg.m, cfg.n, names)
            for mode, names in mode_components.items()}
    def blocks():
        yield "snr_db,mode,m,n,component,value_db\n"
        for snr_db in cfg.snr_db:
            sigma2 = cfg.sigma2(snr_db)
            covs = {mode: displaced_covariances(ctx.segs, cfg.m, weights=pdp.powers,
                                                inv=ctx.receivers[mode].inv)
                    for mode in mode_components}
            # the moments and their (D, N) equalizer live only between two
            # points' covariances: an (N, N) moment alive through them kept
            # glibc's scratch resident, 26 MiB more peak RSS at --n 1024
            eq = make_equalizer(c, cfg.equalizer, sigma2, cfg.symbol_power)
            moments = channel_moments(eq, c, cfg.symbol_power)
            for mode, names in mode_components.items():
                bd = averaged_breakdown(cfg, ctx.receivers[mode], moments, sigma2,
                                        covs[mode])
                values = np.stack([bd.component(name) for name in names], axis=-1)
                yield _db_rows(f"{snr_db:g},{mode},", keys[mode], values)
            del moments, eq
            log.info("analyzed snr=%g dB", snr_db)

    with _OutputSet() as out:
        # each (SNR, mode) block goes to the file as it is made, so the text
        # is never held whole (1.4M rows, 38 MB, at --n 1024)
        out.write_text(args.out, blocks())
    return 0


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    start = time.monotonic()
    result = run_multiservice(cfg)
    rows = []
    for p in result.points:
        rows.append((f"{p.snr_db:g}", p.scheme, p.subband, "ber",
                     f"{p.ber:.8e}", f"{p.ci_halfwidth:.8e}"))
        rows.append((f"{p.snr_db:g}", p.scheme, p.subband, "info_bits",
                     p.info_bits, 0))
    ber_path = os.path.join(args.out_dir, "ber.csv")
    with _OutputSet() as out:
        out.write_text(ber_path, _csv_text(
            ["snr_db", "scheme", "subband", "metric", "value", "ci_halfwidth"],
            rows))
        manifest = [
            "# reloadable run manifest; meta keys are ignored by --config",
            format_config(cfg).rstrip("\n"),
            f"master_seed = {cfg.seed}",
            f"tool_version = {__version__}",
            f"wall_time_s = {time.monotonic() - start:.3f}",
            f"outputs = {os.path.basename(ber_path)}",
        ]
        if result.decision_snr_db is not None:
            manifest.insert(1, f"# decision_snr_db = {result.decision_snr_db:g}")
        out.write_text(os.path.join(args.out_dir, "manifest.txt"),
                       "\n".join(manifest) + "\n")
    return 0


def cmd_complexity(args: argparse.Namespace, cfg: RunConfig) -> int:
    rows = _complexity_rows(cfg)
    sys.stdout.write("".join(f"{name} = {value}\n" for name, value in rows))
    if args.out:
        with _OutputSet() as out:
            out.write_text(args.out, _csv_text(["metric", "value"], rows))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmcqam",
        description="Filter-bank multicarrier link analysis and simulation. "
                    f"Worker count comes from ${WORKER_ENV_VAR}.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="prototype and inverse-filter diagnostics")
    p.add_argument("--out-dir", default=".", help="directory for output files")
    _add_config_args(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("analyze", help="closed-form MSE/SINR curves")
    p.add_argument("--out", default="mse_breakdown.csv", help="output CSV path")
    _add_config_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="multi-service BER campaign")
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--preset", choices=("sync3band", "async3band"),
                   help="three-band scenario; async offsets the middle band's "
                        "neighbors by half a symbol interval")
    _add_config_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("complexity", help="multiplication-count report")
    p.add_argument("--out", default="", help="also write the report as CSV")
    _add_config_args(p)
    p.set_defaults(func=cmd_complexity)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.print_config:
            sys.stdout.write(format_config(cfg))
            return 0
        return args.func(args, cfg)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
