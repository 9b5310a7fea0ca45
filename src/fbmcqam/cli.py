"""Command-line front end: configuration, experiments, CSV emission.

Resolution order for settings: built-in defaults, then ``--config`` file,
then a ``--preset``, then individual field flags (flags win). Every output
file is written atomically; if a command aborts, files it already wrote are
removed so a zero exit status means the full output set exists.
"""

from __future__ import annotations

import argparse
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
from .analytics import (averaged_breakdown, complexity_report, displaced_covariances,
                        ensemble_taps, zeta_grid)
from .config import (ConfigError, RunConfig, apply_overrides, format_config,
                     load_config_file, WORKER_ENV_VAR)
from .filterbank import autocorr_bands
from .simulator import _profile, make_context, run_multiservice

log = logging.getLogger("fbmcqam")

_FIELD_HELP = {
    "n": "subcarriers per symbol (power of two)",
    "m": "multicarrier symbols per block",
    "k": "prototype filter overlap factor",
    "symbol_power": "mean QAM symbol power delta^2",
    "mod_order": "QAM order: 4, 16 or 64",
    "eta": "inverse-filter sparsification fraction in [0, 1]",
    "equalizer": "one-tap equalizer: zf or mmse",
    "receiver_mode": "receiver: if (inverse filter) or nif (matched only)",
    "channel_taps": "channel length L",
    "pdp_decay_db": "first-to-last tap decay of the default profile",
    "pdp_file": "l,rho2 CSV overriding the default profile",
    "pdp_normalize": "normalize a loaded profile to unit power",
    "overlap_blocks": "model previous-block leakage instead of a guard",
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
    """Atomic writes with rollback of everything written so far."""

    def __init__(self):
        self.written: list[str] = []

    def write_text(self, path: str, text: str) -> None:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fbmcqam-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.written.append(path)

    def rollback(self) -> None:
        for path in self.written:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.written.clear()


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(v) for v in row) + "\n")
    return buf.getvalue()


def _db(value: float) -> str:
    """Linear power to a dB field with six decimals, or one of two markers:
    ``-inf`` for a power of zero or below (an exactly cancelled component)
    and ``inf`` for +inf (the sinr of a zero total). NaN raises ValueError."""
    if 0.0 < value < math.inf:
        return f"{10.0 * math.log10(value):.6f}"
    if value <= 0.0:
        return "-inf"
    if value == math.inf:
        return "inf"
    raise ValueError(f"cannot write {value!r} as a dB value")


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
                           help=_FIELD_HELP.get(f.name, f.name))


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_config_file(args.config, cfg)
    overrides = {}
    for f in fields(RunConfig):
        raw = getattr(args, "opt_" + f.name, None)
        if raw is not None:
            overrides[f.name] = raw
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    preset = getattr(args, "preset", None)
    if preset and "subband_offsets" not in overrides:
        delta = cfg.async_offset() if preset == "async3band" else 0
        cfg = replace(cfg, subband_offsets=(delta, 0, delta))
    return cfg.validate()


def _maybe_print_config(args: argparse.Namespace, cfg: RunConfig) -> bool:
    if args.print_config:
        sys.stdout.write(format_config(cfg))
        return True
    return False


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_filter(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    ctx = make_context(cfg)
    report = complexity_report(cfg.n, cfg.m, cfg.k, cfg.eta)
    out = _OutputSet()
    try:
        join = lambda name: os.path.join(args.out_dir, name)
        out.write_text(join("prototype.txt"), "".join(
            f"{w:.17g}\n" for w in ctx.filt.coeffs))
        bands = autocorr_bands(ctx.segs)
        out.write_text(join("gram_bands.csv"), _csv_text(
            ["d", "nu", "value"],
            ((d, nu, f"{bands[d, nu]:.12g}")
             for d in range(cfg.k) for nu in range(cfg.n))))
        norms = np.sqrt(np.sum(ctx.inv_rx ** 2, axis=0))
        out.write_text(join("inverse_block_norms.csv"), _csv_text(
            ["m", "i", "frobenius"],
            ((mm, i, f"{norms[mm, i]:.12g}")
             for mm in range(cfg.m) for i in range(cfg.m))))
        zeta = zeta_grid(ctx.inv_rx, ctx.gram)
        out.write_text(join("zeta.csv"), _csv_text(
            ["m", "n", "zeta"],
            ((mm, nu, f"{zeta[mm, nu]:.12g}")
             for mm in range(cfg.m) for nu in range(cfg.n))))
        out.write_text(join("complexity.csv"), _csv_text(
            ["metric", "value"], report.rows() + [("big_o", report.big_o)]))
    except BaseException:
        out.rollback()
        raise
    for path in out.written:
        log.info("wrote %s", path)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    ctx = make_context(cfg)
    pdp = _profile(cfg)
    taps = ensemble_taps(pdp, cfg.theory_draws, cfg.seed)
    mode_components = {"nif": ("resd", "ici", "isi", "fd", "ibi", "noise",
                               "total", "sinr"),
                       "if": ("resd", "fd", "ibi", "noise", "total", "sinr")}
    # rows run m, then n, then component, so a mode's (M, N, C) stack of
    # grids ravels into row order and its "m,n,component," keys are shared
    # by every SNR point
    keys = {mode: [f"{mm},{nu},{name},"
                   for mm in range(cfg.m) for nu in range(cfg.n) for name in names]
            for mode, names in mode_components.items()}
    blocks = ["snr_db,mode,m,n,component,value_db\n"]
    for snr_db in cfg.snr_db:
        sigma2 = cfg.symbol_power / 10.0 ** (snr_db / 10.0)
        for mode, names in mode_components.items():
            cov = displaced_covariances(ctx.segs, cfg.m, weights=pdp.powers,
                                        inv=ctx.inv if mode == "if" else None)
            bd = averaged_breakdown(cfg, ctx, mode, taps, sigma2, cov, with_ibi=True)
            values = np.stack([bd.component(name) for name in names],
                              axis=-1).ravel().tolist()
            head = f"{snr_db:g},{mode},"
            blocks.append("".join([f"{head}{key}{_db(v)}\n"
                                   for key, v in zip(keys[mode], values)]))
        log.info("analyzed snr=%g dB", snr_db)
    out = _OutputSet()
    try:
        out.write_text(args.out, "".join(blocks))
    except BaseException:
        out.rollback()
        raise
    log.info("wrote %s", args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    start = time.monotonic()
    result = run_multiservice(cfg)
    rows = []
    for p in result.points:
        rows.append((f"{p.snr_db:g}", p.scheme, p.subband, "ber",
                     f"{p.ber:.8e}", f"{p.ci_halfwidth:.8e}"))
        rows.append((f"{p.snr_db:g}", p.scheme, p.subband, "info_bits",
                     p.info_bits, 0))
    ber_path = os.path.join(args.out_dir, "ber.csv")
    manifest_path = os.path.join(args.out_dir, "manifest.txt")
    out = _OutputSet()
    try:
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
        out.write_text(manifest_path, "\n".join(manifest) + "\n")
    except BaseException:
        out.rollback()
        raise
    for path in out.written:
        log.info("wrote %s", path)
    return 0


def cmd_complexity(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if _maybe_print_config(args, cfg):
        return 0
    report = complexity_report(cfg.n, cfg.m, cfg.k, cfg.eta)
    lines = [f"{name} = {value}" for name, value in report.rows()]
    lines.append(f"big_o = {report.big_o}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        out = _OutputSet()
        try:
            out.write_text(args.out, _csv_text(
                ["metric", "value"], report.rows() + [("big_o", report.big_o)]))
        except BaseException:
            out.rollback()
            raise
        log.info("wrote %s", args.out)
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
        return args.func(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
