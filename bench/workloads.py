"""The four benchmark workloads: generated config, one invocation, output checks.

A workload turns the benchmark seed into a ``key = value`` configuration,
runs one invocation through the package's public entry points and checks
what that invocation produced against a reference recorded by
``make_reference.py``. The program only ever sees the generated config.

Each benchmark seed selects one of ``POOL`` program seeds, so every input the
benchmark can generate has a recorded reference.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import json
import math
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

BASE_SEED = 20260815
POOL = 2                           # keeps the analyze reference grids small
M, K, MOD_BITS = 14, 5, 4          # README defaults: M = 14, K = 5, 16-QAM
CHUNK_TRIALS = 256                 # run_multiservice's default chunk size

# per size: subcarriers, simulate trials per SNR point, validation trials
SIZES = {
    "full": {"n": 64, "sim_trials": 256, "validate_trials": 224},
    "tiny": {"n": 16, "sim_trials": 16, "validate_trials": 28},
}

Z95 = 1.959963984540054
DB_TOL_MICRO = 10                  # 1e-5 dB, in the micro-dB units references use
INF_CODE = np.iinfo(np.int32).max  # micro-dB codes for the CSV's "inf"/"-inf"
NEG_INF_CODE = np.iinfo(np.int32).min
NAN_CODE = NEG_INF_CODE + 1        # never in a reference, so a NaN always fails


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial proportion."""
    p = errors / n
    denom = 1.0 + Z95 * Z95 / n
    center = (p + Z95 * Z95 / (2 * n)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / n + Z95 * Z95 / (4 * n * n)) / denom
    return center - half, center + half


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """What one invocation produced, as the checks need it."""

    exit_code: int
    data: object            # parsed outputs
    digest: str             # sha256 of the raw outputs
    rows: int = 0           # CSV data rows written by the CLI
    bytes: int = 0          # bytes written by the CLI


@dataclass
class CheckResult:
    attempted: int
    failed: int
    identical: bool         # outputs byte-identical to the reference digest
    notes: list
    known_failures: int = 0  # failures already present in the reference


class Workload:
    name = ""
    why = ""

    def __init__(self, size: str, seed: int):
        self.size = size
        self.seed = seed
        self.dims = SIZES[size]
        self.n = self.dims["n"]
        self.pseed = BASE_SEED + seed % POOL

    # -- what the program receives ---------------------------------------
    def config_lines(self) -> dict:
        raise NotImplementedError

    def config_text(self) -> str:
        lines = {"n": self.n, "m": M, "k": K, "seed": self.pseed}
        lines.update(self.config_lines())
        return "".join(f"{k} = {v}\n" for k, v in lines.items())

    def snr_grid(self) -> tuple:
        return tuple(float(v) for v in self.config_lines()["snr_db"].split(","))

    # -- measurement -----------------------------------------------------
    def units(self) -> int:
        """Units of work one invocation finishes."""
        raise NotImplementedError

    def invoke(self, fb, workdir: Path):
        """The timed part: one call into the package; returns what it returned."""
        raise NotImplementedError

    def collect(self, raw, workdir: Path) -> Outcome:
        """Read back what ``invoke`` produced, outside the timed part."""
        raise NotImplementedError

    def check(self, outcome: Outcome, ref: dict) -> CheckResult:
        raise NotImplementedError

    def reference_entry(self, outcome: Outcome) -> dict:
        """What make_reference.py stores for this program seed."""
        return {"sha256": outcome.digest}

    def describe(self) -> dict:
        return {"n": self.n, "m": M, "k": K, "program_seed": self.pseed,
                "snr_db": list(self.snr_grid())}


def _cli_outputs(directory: Path) -> tuple[int, int]:
    rows = nbytes = 0
    for path in directory.iterdir():
        data = path.read_bytes()
        nbytes += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return rows, nbytes


class _Simulate(Workload):
    preset = ""
    coded = True

    def config_lines(self):
        return {"snr_db": "10,20", "trials": self.dims["sim_trials"],
                "coded": "true" if self.coded else "false"}

    def describe(self):
        return {**super().describe(), "trials": self.dims["sim_trials"],
                "chunk_trials": CHUNK_TRIALS}

    def units(self):
        # one 3-band trial scores every scheme (fbmc-nif, fbmc-if, ofdm)
        return self.dims["sim_trials"] * len(self.snr_grid())

    def info_len(self) -> int:
        cap = (self.n // 4) * M * MOD_BITS
        return cap // 2 - 6 if self.coded else cap

    def invoke(self, fb, workdir):
        cfg_path = workdir / "config.txt"
        cfg_path.write_text(self.config_text())
        out_dir = workdir / "out"
        return fb.cli.main(["simulate", "--preset", self.preset,
                            "--config", str(cfg_path), "--out-dir", str(out_dir)])

    def collect(self, raw, workdir):
        if raw != 0:
            return Outcome(raw, None, "")
        out_dir = workdir / "out"
        ber_path = out_dir / "ber.csv"
        table: dict = {}
        for line in ber_path.read_text().splitlines()[1:]:
            snr, scheme, _band, metric, value, _hw = line.split(",")
            table.setdefault((float(snr), scheme), {})[metric] = value
        rows, nbytes = _cli_outputs(out_dir)
        return Outcome(0, table, sha256_file(ber_path), rows, nbytes)

    def reference_entry(self, outcome):
        points = []
        for (snr, scheme), vals in sorted(outcome.data.items()):
            bits = int(vals["info_bits"])
            points.append([snr, scheme, round(float(vals["ber"]) * bits), bits])
        return {"sha256": outcome.digest, "points": points}

    def check(self, outcome, ref):
        """One check per (SNR point, scheme): exact info-bit count, and the
        run's 95% Wilson interval overlapping the reference's."""
        attempted = failed = 0
        notes = []
        expected_bits = self.dims["sim_trials"] * self.info_len()
        for snr, scheme, ref_errors, ref_bits in ref["points"]:
            attempted += 1
            vals = outcome.data.get((snr, scheme))
            if vals is None:
                failed += 1
                notes.append(f"{snr:g} dB {scheme}: missing")
                continue
            bits = int(vals["info_bits"])
            ber = float(vals["ber"])
            if bits != expected_bits or not 0.0 <= ber <= 1.0:
                failed += 1
                notes.append(f"{snr:g} dB {scheme}: ber {ber} over {bits} info bits, "
                             f"expected {expected_bits}")
                continue
            errors = round(ber * bits)
            lo, hi = wilson_interval(errors, bits)
            ref_lo, ref_hi = wilson_interval(ref_errors, ref_bits)
            if hi < ref_lo or lo > ref_hi:
                failed += 1
                notes.append(f"{snr:g} dB {scheme}: {errors}/{bits} vs "
                             f"reference {ref_errors}/{ref_bits}")
        if len(outcome.data) != len(ref["points"]):
            attempted += 1
            failed += 1
            notes.append(f"{len(outcome.data)} (SNR, scheme) points, "
                         f"expected {len(ref['points'])}")
        return CheckResult(attempted, failed, outcome.digest == ref["sha256"], notes)


class SimSyncCoded(_Simulate):
    name = "sim_sync_coded"
    why = ("the paper's headline coded 3-band comparison; the Viterbi decoder "
           "(fec) is the largest layer")
    preset = "sync3band"
    coded = True


class SimAsyncUncoded(_Simulate):
    name = "sim_async_uncoded"
    why = ("uncoded 3-band run with half-symbol offsets; bypasses fec, so "
           "channel, FFTs and the filter bank do the work")
    preset = "async3band"
    coded = False


class AnalyzeDefault(Workload):
    name = "analyze_default"
    why = ("closed-form MSE breakdowns on the default grid; dense displaced "
           "covariances (analytics) dominate, no Monte-Carlo")
    components = {"nif": ("resd", "ici", "isi", "fd", "ibi", "noise", "total", "sinr"),
                  "if": ("resd", "fd", "ibi", "noise", "total", "sinr")}

    def config_lines(self):
        return {"snr_db": "0,5,10,15,20,25,30", "theory_draws": 1000}

    def units(self):
        return 2 * len(self.snr_grid())       # one breakdown per (SNR, mode)

    def invoke(self, fb, workdir):
        cfg_path = workdir / "config.txt"
        cfg_path.write_text(self.config_text())
        return fb.cli.main(["analyze", "--config", str(cfg_path),
                            "--out", str(workdir / "out" / "mse.csv")])

    def collect(self, raw, workdir):
        if raw != 0:
            return Outcome(raw, None, "")
        out_dir = workdir / "out"
        csv_path = out_dir / "mse.csv"
        grids: dict = {}
        for line in csv_path.read_text().splitlines()[1:]:
            snr, mode, mm, nu, comp, value = line.split(",")
            grid = grids.setdefault(f"{float(snr):g}/{mode}/{comp}",
                                    np.zeros((M, self.n), dtype=np.int64))
            grid[int(mm), int(nu)] = _micro_db(value)
        rows, nbytes = _cli_outputs(out_dir)
        return Outcome(0, grids, sha256_file(csv_path), rows, nbytes)

    def grid_keys(self) -> list:
        return [f"{snr:g}/{mode}/{comp}" for snr in self.snr_grid()
                for mode in ("nif", "if") for comp in self.components[mode]]

    def check(self, outcome, ref):
        """One check per (SNR, mode, component) grid: same infinities, every
        finite value within 1e-5 dB of the reference."""
        attempted = failed = 0
        notes = []
        stack = ref["grids"]
        for i, key in enumerate(self.grid_keys()):
            attempted += 1
            got = outcome.data.get(key)
            want = stack[i]
            if got is None or got.shape != want.shape:
                failed += 1
                notes.append(f"{key}: missing or misshapen")
                continue
            inf_got = (got == INF_CODE) | (got == NEG_INF_CODE)
            inf_want = (want == INF_CODE) | (want == NEG_INF_CODE)
            same_inf = np.array_equal(inf_got, inf_want) and np.array_equal(
                got[inf_got], want[inf_want])
            diff = np.abs(got[~inf_got] - want[~inf_got]) if same_inf else None
            if not same_inf or (diff.size and diff.max() > DB_TOL_MICRO):
                failed += 1
                notes.append(f"{key}: differs from reference")
        if len(outcome.data) != len(stack):
            attempted += 1
            failed += 1
            notes.append(f"{len(outcome.data)} grids, expected {len(stack)}")
        return CheckResult(attempted, failed, outcome.digest == ref["sha256"], notes)


def _micro_db(text: str) -> int:
    value = float(text)
    if value == -math.inf:
        return NEG_INF_CODE
    if value == math.inf:
        return INF_CODE
    if math.isnan(value):
        return NAN_CODE
    return round(value * 1e6)


class ValidateOverlap(Workload):
    name = "validate_overlap"
    why = ("link validation with block overlap, both receivers: per-realization "
           "covariances, conditional breakdowns and overlap tails")

    def config_lines(self):
        return {"snr_db": "10,20,30", "trials": self.dims["validate_trials"],
                "overlap_blocks": "true"}

    def describe(self):
        return {**super().describe(), "trials": self.dims["validate_trials"]}

    def units(self):
        # validation trials x SNR points x receiver modes
        return self.dims["validate_trials"] * len(self.snr_grid()) * 2

    def invoke(self, fb, workdir):
        cfg = fb.config.parse_config_text(self.config_text())
        return {mode: fb.simulator.run_link_validation(
                    fb.config.parse_config_text(f"receiver_mode = {mode}\n", cfg))
                for mode in ("if", "nif")}

    def collect(self, raw, workdir):
        results = [(mode, p.snr_db, c.name, c.measured, c.predicted, c.sigma,
                    c.within_3sigma)
                   for mode, points in raw.items() for p in points for c in p.checks]
        digest = hashlib.sha256(repr([r[:5] for r in results]).encode()).hexdigest()
        return Outcome(0, results, digest)

    def reference_entry(self, outcome):
        return {"sha256": outcome.digest,
                "outside_3sigma": [list(r[:3]) for r in outcome.data if not r[6]]}

    def check(self, outcome, ref):
        """One check per (component, SNR point, mode): the validator's own
        3-sigma test. A component already outside 3 sigma when the reference
        was recorded is a known failure: reported, not counted as failed."""
        known = {tuple(k) for k in ref["outside_3sigma"]}
        failed = known_failures = 0
        notes = []
        for mode, snr, name, meas, pred, sig, ok in outcome.data:
            if ok:
                continue
            if (mode, snr, name) in known:
                known_failures += 1
            else:
                failed += 1
            notes.append(f"{mode} {snr:g} dB {name}: measured {meas:.4g}, predicted "
                         f"{pred:.4g}, sigma {sig:.3g}"
                         + (" (known)" if (mode, snr, name) in known else ""))
        expected = 2 * len(self.snr_grid()) * 7   # six components plus ibi
        attempted = len(outcome.data)
        if attempted != expected:
            attempted += 1
            failed += 1
            notes.append(f"{len(outcome.data)} component checks, expected {expected}")
        return CheckResult(attempted, failed, outcome.digest == ref["sha256"], notes,
                           known_failures)


WORKLOADS = {w.name: w for w in (SimSyncCoded, SimAsyncUncoded, AnalyzeDefault,
                                 ValidateOverlap)}


def load_reference(size: str, workload: Workload) -> dict:
    """Reference for this workload's program seed, as make_reference.py wrote it."""
    with open(REFERENCE_DIR / f"{size}.json") as fh:
        ref = json.load(fh)[workload.name][str(workload.pseed)]
    if isinstance(workload, AnalyzeDefault):
        with np.load(REFERENCE_DIR / f"{size}_analyze.npz") as npz:
            ref["grids"] = npz[f"seed{workload.pseed}"].astype(np.int64)
    return ref
