"""Self-test of the harness at tiny sizes.

    python3 perfbench/selftest.py

Shrinks every workload to a few subjects of eight nodes, runs it untraced
and traced, and checks that every metric named in BENCHMARK.json is emitted
with its unit and a finite value, that the correctness gate trips when the
expected final loss is wrong, and that a failing invocation is counted.
Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import replace

import run
from workloads import WORKLOADS

TINY_MODEL = """\
[model]
layers = 1
n_clusters = 2
proj_dim = 4

[augment]
k_min = 1
k_max = 2
delta_max = 0.2
noise = N(0,0.01)
"""
TINY_TRAINING = {
    "pretrain": """
[pretrain]
epochs = 2
lr = 0.05
batch_size = 4
queue_capacity = 8
momentum = 0.9
""",
    "finetune": """
[pretrain]
epochs = 0

[finetune]
epochs = 2
lr = 0.001
batch_size = 4
repeats = 2
""",
}


def tiny(name: str):
    wl = WORKLOADS[name]
    return replace(wl, subjects=20, nodes=8, length=12, blocks=2, min_invocations=2,
                   config=TINY_MODEL + TINY_TRAINING[wl.verb])


def check_metrics(result: dict, units: dict, where: str) -> None:
    metrics = result["metrics"]
    assert set(metrics) == set(units), f"{where}: metric names {sorted(metrics)}"
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}, f"{where}: {name} keys {sorted(entry)}"
        assert entry["unit"] == units[name], f"{where}: {name} unit {entry['unit']}"
        assert math.isfinite(entry["value"]), f"{where}: {name} = {entry['value']}"


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)

    modules = run.import_program()
    work = run.OUT / "selftest"
    for name in sorted(WORKLOADS):
        wl = tiny(name)
        result, _ = run.run(modules, wl, 0, 0.0, False, None, work)
        assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
        check_metrics(result, run.declared_units("end_to_end"), f"{name} untraced")
        loss = result["metrics"]["final_loss"]["value"]

        traced, record = run.run(modules, wl, 0, 0.0, True, loss, work)
        assert traced["correct"], f"{name} traced: {record['problems']}"
        check_metrics(traced, run.declared_units("per_layer"), f"{name} traced")
        assert traced["metrics"]["numcore.graph_nodes_per_step"]["value"] > 0

        wrong, record = run.run(modules, wl, 0, 0.0, False, loss * 1.5, work)
        assert not wrong["correct"], f"{name}: gate passed a wrong expected loss"
        assert any("reference" in p for p in record["problems"]), record["problems"]
        print(f"ok {name}: {len(result['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics; gate trips on a wrong loss")

    wl = tiny("desk_pretrain")
    broken = replace(wl, config=wl.config.replace("k_max = 2", "k_max = 99"))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data, config = run.make_inputs(modules, broken, 0, work)
    inv = run.invoke(modules, broken, 0, data, work / "out", config, traced=False)
    assert not inv.ok and "exit code 2" in inv.error, inv
    assert run.check([inv], None), "a failed invocation must fail the check"
    shutil.rmtree(work)
    print("ok a failing invocation is counted as failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
