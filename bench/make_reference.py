"""Record the output references the benchmark checks against.

    python3 bench/make_reference.py [--size full|tiny]

Runs one invocation of every workload for every program seed in the pool
and writes ``reference/<size>.json`` (BER tallies and output digests) and
``reference/<size>_analyze.npz`` (the analyze grids in micro-dB). The
references belong to the commit they were recorded at; re-record them only
for a change that is meant to alter outputs, and say so.
"""

import argparse
import json
import shutil
import sys
import types

import run  # pins the single-threaded environment before numpy loads

import numpy as np  # noqa: E402

from workloads import (BASE_SEED, POOL, REFERENCE_DIR, WORKLOADS,  # noqa: E402
                       AnalyzeDefault)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import fbmcqam.cli
    import fbmcqam.config
    import fbmcqam.simulator
    fb = types.SimpleNamespace(cli=fbmcqam.cli, config=fbmcqam.config,
                               simulator=fbmcqam.simulator)

    refs: dict = {}
    grids: dict = {}
    workdir = run.OUT_DIR / "reference-work"
    for name, cls in WORKLOADS.items():
        refs[name] = {}
        for offset in range(POOL):
            workload = cls(args.size, offset)
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            outcome = workload.collect(workload.invoke(fb, workdir), workdir)
            if outcome.exit_code != 0:
                raise SystemExit(f"{name} seed {workload.pseed}: exit {outcome.exit_code}")
            refs[name][str(BASE_SEED + offset)] = workload.reference_entry(outcome)
            if isinstance(workload, AnalyzeDefault):
                grids[f"seed{workload.pseed}"] = np.stack(
                    [outcome.data[key] for key in workload.grid_keys()]).astype(np.int32)
            print(f"{name} seed {workload.pseed}: recorded", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{args.size}.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    np.savez_compressed(REFERENCE_DIR / f"{args.size}_analyze.npz", **grids)
    return 0


if __name__ == "__main__":
    sys.exit(main())
