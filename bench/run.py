"""fbmcqam benchmark: one workload, closed loop, single process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's invocation back to back for S seconds (the last one may
run past the deadline) and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
metrics are the per-layer ones. ``attempted``/``failed`` count output checks,
so their ratio is the workload's ``failed_frac``. A fuller record (samples,
quartiles, environment, checks) goes to ``.bench_out/`` in the checkout,
with the spans of a traced run next to it.

Run from the root of a checkout; the package is imported from ``src/``.
``--size tiny`` shrinks every workload for the self-test.
"""

import os

# Single-threaded baseline: pinned before numpy can load its BLAS.
PINNED_ENV = {"FBMCQAM_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

from tracing import LAYERS, ROOT_LAYER, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
LAYER_NAMES = LAYERS + (ROOT_LAYER,)

END_TO_END = {"work_per_s": "units/s", "setup_s": "s", "peak_rss_mb": "MiB"}

SPAN_METRICS = (
    "core.qam_map", "core.qam_demap", "core.qam_llrs", "core.idft_block",
    "core.dft_segments", "fec.conv_encode", "fec.viterbi_decode",
    "filterbank.apply_filter", "filterbank.apply_adjoint", "filterbank.apply_inverse",
    "channel.apply_taps", "channel.complex_noise", "channel.draw_taps",
    "channel.overlap_tail", "transceiver.make_equalizer", "transceiver.ofdm_modulate",
    "transceiver.ofdm_demodulate", "analytics.displaced_covariances",
    "analytics.averaged_breakdown", "analytics.conditional_breakdown",
    "simulator.make_context", "simulator.run_chunk",
)
CALL_METRICS = ("fec.viterbi_decode", "analytics.displaced_covariances")
COUNT_METRICS = {
    "fec.trellis_steps": "count", "channel.tap_mults": "count",
    "filterbank.mults": "count", "analytics.dense_flops": "flop",
    "simulator.chunks": "count", "simulator.trials": "count",
    "cli.rows_written": "count", "cli.bytes_written": "B",
}
TRACE_METRICS = {
    "setup.import_s": "s", "setup.context_s": "s",
    "trace.wall_s": "s", "trace.unaccounted_s": "s", "trace.spans": "count",
    "trace.invocations": "count", "trace.work_per_s": "units/s",
    "trace.untraced_work_per_s": "units/s", "trace.overhead_work_per_s": "units/s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{name}.s": "s" for name in SPAN_METRICS}
    units.update({f"{name}.calls": "count" for name in CALL_METRICS})
    units.update(COUNT_METRICS)
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(TRACE_METRICS)
    return units


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def probe_setup(workload, size: str) -> dict:
    """Median over fresh interpreters of the time to the first unit of work."""
    totals, imports, contexts = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), str(BENCH_DIR),
             workload.name, size, str(workload.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(rec["ready"] - t0)
        imports.append(rec["import_s"])
        contexts.append(rec["context_s"])
    return {"setup_s": quartiles(totals), "import_s": quartiles(imports),
            "context_s": quartiles(contexts), "samples": totals}


def measure(workload, fb, seconds: float, workdir: Path, ref: dict,
            tally: dict, tracer=None) -> list:
    """Back-to-back invocations until the deadline; returns per-invocation rates.

    Only the call into the package is timed; reading back and checking its
    outputs happens between invocations.
    """
    rates = []
    deadline = time.perf_counter() + seconds
    while True:
        inv_dir = workdir / f"inv{tally['invocations']}"
        inv_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        if tracer is None:
            raw = workload.invoke(fb, inv_dir)
        else:
            raw = tracer.invoke(workload.invoke, fb, inv_dir)
        dt = time.perf_counter() - t0
        tally["invocations"] += 1
        outcome = workload.collect(raw, inv_dir)
        if outcome.exit_code != 0:
            tally["attempted"] += 1
            tally["failed"] += 1
            tally["notes"].append(f"invocation exited with {outcome.exit_code}")
        else:
            res = workload.check(outcome, ref)
            tally["attempted"] += res.attempted
            tally["failed"] += res.failed
            tally["known_failures"] += res.known_failures
            tally["identical"] = tally["identical"] and res.identical
            tally["notes"].extend(res.notes[:5])
            rates.append(workload.units() / dt)
            if tracer is not None:
                tally["traced_wall"] += dt
                tracer.counts["cli.rows_written"] += outcome.rows
                tracer.counts["cli.bytes_written"] += outcome.bytes
        shutil.rmtree(inv_dir)
        if time.perf_counter() >= deadline:
            return rates


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def blas_record() -> dict:
    import ctypes
    import numpy as np
    rec = {"pinned_env": {k: os.environ.get(k) for k in PINNED_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        rec["library"] = "unknown"
    rec["threads"] = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec["threads"] = fn()
                break
    return rec


def environment(workload, args) -> dict:
    import numpy
    import scipy
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "fbmcqam_workers": os.environ["FBMCQAM_WORKERS"],
        "workload_seed": args.seed,
        "size": args.size,
        "workload": workload.describe(),
        "config": workload.config_text(),
    }


def trace_metrics(tracer, setup, untraced, traced, tally) -> dict:
    n_inv = max(len(traced), 1)
    self_t = tracer.self_times()
    calls = tracer.calls()
    wall = tally["traced_wall"]
    layers = {}
    for name, t in self_t.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t
    vals = {f"{name}.s": self_t.get(name, 0.0) / n_inv for name in SPAN_METRICS}
    vals.update({f"{name}.calls": calls.get(name, 0) / n_inv for name in CALL_METRICS})
    for name in COUNT_METRICS:
        vals[name] = tracer.counts.get(name, 0) / n_inv
    for layer in LAYER_NAMES:
        vals[f"{layer}.self_s"] = layers.get(layer, 0.0) / n_inv
        vals[f"{layer}.share"] = layers.get(layer, 0.0) / wall
    u_rate = statistics.median(untraced)
    t_rate = statistics.median(traced)
    vals.update({
        "setup.import_s": setup["import_s"][1],
        "setup.context_s": setup["context_s"][1],
        "trace.wall_s": wall / n_inv,
        "trace.unaccounted_s": (wall - sum(self_t.values())) / n_inv,
        "trace.spans": len(tracer.spans) / n_inv,
        "trace.invocations": len(traced),
        "trace.work_per_s": t_rate,
        "trace.untraced_work_per_s": u_rate,
        "trace.overhead_work_per_s": t_rate - u_rate,
        "trace.overhead_frac": (u_rate - t_rate) / u_rate,
    })
    return vals


def main() -> int:
    from workloads import WORKLOADS, load_reference

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not (SRC / "fbmcqam" / "__init__.py").is_file():
        print(f"error: no fbmcqam package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.size, args.seed)
    ref = load_reference(args.size, workload)
    setup = probe_setup(workload, args.size)

    import fbmcqam.cli
    import fbmcqam.config
    import fbmcqam.simulator
    fb = types.SimpleNamespace(cli=fbmcqam.cli, config=fbmcqam.config,
                               simulator=fbmcqam.simulator)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    tally = {"invocations": 0, "attempted": 0, "failed": 0, "known_failures": 0,
             "identical": True, "notes": [], "traced_wall": 0.0}
    tracer = None
    try:
        if args.trace:
            untraced = measure(workload, fb, args.seconds / 2, workdir, ref, tally)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, fb, args.seconds / 2, workdir, ref, tally,
                                 tracer)
            finally:
                tracer.uninstall()
        else:
            untraced = measure(workload, fb, args.seconds, workdir, ref, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not untraced or (args.trace and not traced):
        print("error: no invocation completed", file=sys.stderr)
        return 1
    rate_q = quartiles(untraced)
    if args.trace:
        values = trace_metrics(tracer, setup, untraced, traced, tally)
        units = per_layer_units()
    else:
        values = {"work_per_s": rate_q[1], "setup_s": setup["setup_s"][1],
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "why": workload.why,
        "environment": environment(workload, args),
        "units_per_invocation": workload.units(),
        "work_per_s": {"median": rate_q[1], "q1": rate_q[0], "q3": rate_q[2],
                       "samples": len(untraced), "values": untraced},
        "setup": setup,
        "peak_rss_mb": peak_rss_mb,
        "checks": {"attempted": tally["attempted"], "failed": tally["failed"],
                   "failed_frac": tally["failed"] / max(tally["attempted"], 1),
                   "known_failures": tally["known_failures"],
                   "outputs_identical_to_reference": tally["identical"],
                   "notes": tally["notes"][:20]},
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(OUT_DIR / f"{tag}-spans.json", "w") as fh:
            json.dump({"counts": dict(tracer.counts), "spans": tracer.records()}, fh)

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"checks: {tally['failed']}/{tally['attempted']} failed "
          f"({tally['known_failures']} known failures not counted), outputs "
          f"{'identical to' if tally['identical'] else 'differ from'} the reference",
          file=sys.stderr)
    correct = tally["failed"] == 0 and tally["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
