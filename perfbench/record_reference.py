"""Record each workload's reference final_loss for a range of seeds.

    python3 perfbench/record_reference.py --seeds 0-31,1009

Runs one CLI invocation per workload and seed and merges the final losses
into reference.json, which run.py checks every later run against. Record
only from a commit whose training arithmetic is the intended reference.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31,1009")
    args = parser.parse_args()
    modules = run.import_program()
    table = (json.loads(run.REFERENCE_FILE.read_text())
             if run.REFERENCE_FILE.is_file() else {})
    for name, wl in sorted(WORKLOADS.items()):
        for seed in parse_seeds(args.seeds):
            work = run.OUT / f"reference-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            data, config = run.make_inputs(modules, wl, seed, work)
            inv = run.invoke(modules, wl, seed, data, work / "out", config, traced=False)
            shutil.rmtree(work)
            if not inv.ok:
                raise SystemExit(f"error: {name} seed {seed} failed: {inv.error}")
            loss = inv.final_loss
            table.setdefault(name, {})[str(seed)] = loss
            print(f"{name} seed {seed}: final_loss {loss!r}", flush=True)
            run.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
