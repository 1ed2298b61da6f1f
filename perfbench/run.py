"""Benchmark of the braincl training CLI.

    python3 perfbench/run.py --workload desk_pretrain --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The harness generates the workload's
dataset from ``--seed``, then invokes the real ``braincl`` CLI verb in this
process, one invocation at a time (a closed loop with one client), until
``--seconds`` have passed and the workload's minimum invocation count is
reached. It checks every invocation's outputs and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from probe import Probe
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# On a 2-core box the V=200 forward ran several times slower, and far less
# steadily, with OpenBLAS's default threading than with one thread.
BLAS_THREADS = 1
OUT = ROOT / ".perfbench_out"
REFERENCE_FILE = HERE / "reference.json"
# Claims measured on other seeds must be re-checked on this one.
HELD_OUT_SEED = 1009
# Relative tolerance of final_loss against the recorded reference: loose
# enough for a change of summation order, tight enough to catch a change
# of what is computed.
LOSS_RTOL = 1e-6
# No invocation starts after this many seconds, so a run ends within 180 s.
START_CUTOFF_S = 100.0
# an untraced warm-up, then traced and untraced in turn: two traced to
# compare counts, one warm untraced to compare run_s with
TRACED_MIN_INVOCATIONS = 4


class HarnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# program and environment


def import_program() -> dict:
    """The braincl modules of this checkout, keyed as probe.LAYERS names them.

    Pins BLAS to ``BLAS_THREADS`` first, which only works before numpy loads.
    """
    if not (SRC / "braincl" / "__init__.py").is_file():
        raise HarnessError(f"no braincl sources under {SRC}")
    if "numpy" in sys.modules:
        raise HarnessError("numpy was loaded before the BLAS thread count was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import braincl
    if Path(braincl.__file__).resolve().parent != (SRC / "braincl").resolve():
        raise HarnessError(f"imported braincl from {braincl.__file__}, not from {SRC}")
    return {key: importlib.import_module(f"braincl.{path}") for key, path in (
        ("cli", "cli"), ("data", "data"), ("pretrain", "pipeline.pretrain"),
        ("finetune", "pipeline.finetune"), ("experiment", "pipeline.experiment"))}


def blas_info() -> tuple[str, int | str]:
    """BLAS library name and version, and the thread count it reports."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, getter()
    return name, f"{os.environ['OPENBLAS_NUM_THREADS']} (requested; not queryable)"


def git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses
    # a checkout which is not one itself.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    blas, threads = blas_info()
    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads, "git_commit": git_commit(),
        "load_model": "closed loop, one client, one CLI invocation at a time",
    }


# ---------------------------------------------------------------------------
# one CLI invocation


@dataclass
class Invocation:
    traced: bool
    ok: bool
    run_s: float
    error: str = ""
    setup_s: float = math.nan
    train_s: float = math.nan
    samples: int = 0
    final_loss: float = math.nan
    digest: str = ""
    probe: Probe | None = field(default=None, repr=False)


def final_loss(wl: Workload, out: Path) -> float:
    """Mean training loss of the last epoch, read back from the CLI's logs.

    Finetuning writes one log per repeat; their last-epoch losses are averaged.
    """
    logs = ([out / "pretrain_log.csv"] if wl.verb == "pretrain"
            else sorted(out.glob("finetune_log_repeat*.csv")))
    if not logs:
        raise OSError(f"no training log in {out}")
    values = [float(path.read_text().splitlines()[-1].split(",")[1]) for path in logs]
    return math.fsum(values) / len(values)


def output_digest(out: Path) -> str:
    """SHA-256 over every file the invocation wrote, names and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def invoke(modules: dict, wl: Workload, seed: int, data: Path, out: Path,
           config: Path, traced: bool) -> Invocation:
    probe = Probe(traced)
    argv = [wl.verb, "--data", str(data), "--config", str(config),
            "--out", str(out), "--seed", str(seed)]
    log = io.StringIO()
    with probe.installed(modules), redirect_stdout(log), redirect_stderr(log):
        root = probe.open(f"cli.{wl.verb}") if traced else None
        start = time.perf_counter()
        try:
            code = modules["cli"].main(argv)
        except Exception:  # a crash of the program is a failed invocation
            code = None
            log.write(traceback.format_exc())
        end = time.perf_counter()
        if traced and code == 0:
            probe.close(root)
    inv = Invocation(traced=traced, ok=False, run_s=end - start, probe=probe)
    if code != 0:
        inv.error = f"exit code {code}: {log.getvalue().strip()[-2000:]}"
        return inv
    if not probe.steps:
        inv.error = "the verb ran no training step"
        return inv
    inv.setup_s = probe.steps[0].start - start
    epochs: dict[int, list] = {}
    for step in probe.steps:
        epochs.setdefault(step.epoch, []).append(step)
    inv.train_s = sum(steps[-1].end - steps[0].start for steps in epochs.values())
    inv.samples = sum(step.samples for step in probe.steps)
    try:
        inv.final_loss = final_loss(wl, out)
        inv.digest = output_digest(out)
    except (OSError, ValueError, IndexError) as exc:
        inv.error = f"unreadable outputs: {exc}"
        return inv
    if not math.isfinite(inv.final_loss):
        inv.error = f"non-finite final loss {inv.final_loss!r}"
        return inv
    inv.ok = True
    return inv


# ---------------------------------------------------------------------------
# one run


def make_inputs(modules: dict, wl: Workload, seed: int, work: Path) -> tuple[Path, Path]:
    data_mod = modules["data"]
    ds = data_mod.synth_dataset(wl.subjects, wl.nodes, wl.length,
                                spec=data_mod.ClassSpec(blocks=wl.blocks), seed=seed)
    data = work / "data"
    data_mod.write_dataset(data, ds)
    config = work / "run.ini"
    config.write_text(wl.config)
    return data, config


def nearest_rank(percentile: int, count: int) -> int:
    """1-based rank of the ``percentile``-th of ``count`` sorted values."""
    return max(1, math.ceil(percentile * count / 100))


def tail_percentile(full_steps: int) -> int:
    """Highest percentile, in steps of 5, with at least ten steps beyond it.

    The harness passes the full-step count of ``min_invocations``
    invocations, the fewest an untraced run makes, so a workload reports the
    same percentile whatever the speed of the program.
    """
    fits = [p for p in range(0, 100, 5) if full_steps - nearest_rank(p, full_steps) >= 10]
    if not fits:
        raise HarnessError(f"{full_steps} full steps leave no percentile with ten beyond it")
    return fits[-1]


def check(invs: list[Invocation], expected_loss: float | None) -> list[str]:
    """Correctness problems across a run's invocations; empty when all hold."""
    problems = [f"invocation {i} failed: {inv.error}" for i, inv in enumerate(invs)
                if not inv.ok]
    ok = [inv for inv in invs if inv.ok]
    if not ok:
        return problems
    first = ok[0]
    for i, inv in enumerate(ok[1:], 1):
        if inv.digest != first.digest:
            problems.append(f"outputs of invocation {i} differ from invocation 0 "
                            "(same seed must give byte-identical files)")
        if inv.final_loss.hex() != first.final_loss.hex():
            kind = "traced" if inv.traced != first.traced else "repeated"
            problems.append(f"{kind} final_loss {inv.final_loss!r} differs from "
                            f"{first.final_loss!r} bit for bit")
    if expected_loss is not None and not (
            abs(first.final_loss - expected_loss) <= LOSS_RTOL * abs(expected_loss)):
        problems.append(f"final_loss {first.final_loss!r} does not match the "
                        f"recorded reference {expected_loss!r}")
    traced = [inv for inv in ok if inv.traced]
    counts = {json.dumps(layer_counts(inv.probe), sort_keys=True) for inv in traced}
    if len(counts) > 1:
        problems.append(f"exact counts differ between traced invocations: {sorted(counts)}")
    return problems


def layer_counts(probe: Probe) -> dict:
    calls: dict[str, int] = {}
    for span in probe.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    return {"graph_nodes": probe.graph_nodes, "steps": len(probe.steps),
            "epochs": probe.epochs, "calls": calls}


def end_to_end(invs: list[Invocation], percentile: int) -> dict[str, float]:
    ok = [inv for inv in invs if inv.ok]
    full = [s.end - s.start for inv in ok for s in inv.probe.steps if s.full]
    return {
        "setup_s": statistics.median(inv.setup_s for inv in ok),
        "run_s": statistics.median(inv.run_s for inv in ok),
        "train_samples_per_s": statistics.median(inv.samples / inv.train_s for inv in ok),
        "step_s_p50": statistics.median(full),
        "step_s_tail": sorted(full)[nearest_rank(percentile, len(full)) - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_loss": ok[0].final_loss,
    }


def per_layer(invs: list[Invocation]) -> dict[str, float]:
    traced = [inv for inv in invs if inv.ok and inv.traced]
    # the first invocation of the process is a cold warm-up, not a baseline
    untraced = [inv for inv in invs[1:] if inv.ok and not inv.traced]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    step_self = 0.0
    steps = epochs = graph_nodes = score_samples = 0
    for inv in traced:
        probe = inv.probe
        child_time = [0.0] * len(probe.spans)
        for span in probe.spans:
            duration = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + duration
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.parent is not None:
                child_time[span.parent] += duration
        step_self += sum(span.end - span.start - child_time[i]
                         for i, span in enumerate(probe.spans) if span.name == "pipeline.step")
        steps += len(probe.steps)
        epochs += probe.epochs
        graph_nodes += probe.graph_nodes
        score_samples += probe.score_samples

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    features_calls = n("model.features.grad") + n("model.features.nograd")
    score_s = t("pipeline.score_dataset")
    return {
        "model.gram_schmidt.s_per_step": t("model.gram_schmidt") / steps,
        "model.gram_schmidt.calls_per_step": n("model.gram_schmidt") / steps,
        "numcore.graph_nodes_per_step": graph_nodes / steps,
        "model.features.grad_s_per_step": t("model.features.grad") / steps,
        "model.features.nograd_s_per_step": t("model.features.nograd") / steps,
        "model.features.calls_per_step": features_calls / steps,
        "numcore.backward.s_per_step": t("numcore.backward") / steps,
        "pipeline.step.self_s": step_self / steps,
        "augment.make_view_pair.s_per_step": t("augment.make_view_pair") / steps,
        "contrastive.info_nce.s_per_step": t("contrastive.info_nce") / steps,
        "contrastive.queue_push.s_per_step": t("contrastive.queue_push") / steps,
        "contrastive.momentum_update.s_per_step": t("contrastive.momentum_update") / steps,
        "model.heads.s_per_step": t("model.heads") / steps,
        "numcore.opt_step.s_per_step": t("numcore.opt_step") / steps,
        "pipeline.score_dataset.s_per_epoch": score_s / epochs,
        "pipeline.score_dataset.samples_per_s": score_samples / score_s if score_s else 0.0,
        "metrics.auroc.s": t("metrics.auroc") / len(traced),
        "data.load_dataset.s": t("data.load_dataset") / len(traced),
        "model.init_params.s": t("model.init_params") / len(traced),
        "numcore.save_checkpoint.s": t("numcore.save_checkpoint") / len(traced),
        "pipeline.write_report.s": t("pipeline.write_report") / len(traced),
        "metrics.write_roc.s": t("metrics.write_roc") / len(traced),
        "trace.overhead_share": (statistics.median(inv.run_s for inv in traced)
                                 / statistics.median(inv.run_s for inv in untraced) - 1.0),
    }


def run(modules: dict, wl: Workload, seed: int, seconds: float, trace: bool,
        expected_loss: float | None, work: Path) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and a run record."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data, config = make_inputs(modules, wl, seed, work)
    needed = TRACED_MIN_INVOCATIONS if trace else wl.min_invocations
    invs: list[Invocation] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(invs) >= needed and elapsed >= seconds:
            break
        if invs and elapsed >= START_CUTOFF_S:
            print(f"warning: stopped after {len(invs)} invocations at the "
                  f"{START_CUTOFF_S:.0f} s cutoff", file=sys.stderr)
            break
        n = len(invs)
        # trace runs go untraced (warm-up), then traced and untraced in turn
        traced = trace and n % 2 == 1
        out = work / f"out{n}"
        gc.collect()  # the last invocation's garbage is not charged to this one
        invs.append(invoke(modules, wl, seed, data, out, config, traced))
        shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(data, ignore_errors=True)

    problems = check(invs, expected_loss)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    ok = [inv for inv in invs if inv.ok]
    if not ok or (trace and len({inv.traced for inv in ok if inv is not invs[0]}) < 2):
        raise HarnessError(f"too few successful invocations to measure; {problems[:1]}")
    full_per_invocation = sum(step.full for step in ok[0].probe.steps)
    percentile = tail_percentile(full_per_invocation * wl.min_invocations)
    metrics = per_layer(invs) if trace else end_to_end(invs, percentile)
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise HarnessError(f"BENCHMARK.json does not declare exactly the metrics "
                           f"measured: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not problems,
        "attempted": len(invs),
        "failed": sum(not inv.ok for inv in invs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "tail_percentile": percentile,
        "full_steps": sum(step.full for inv in ok for step in inv.probe.steps),
        "reference_loss": expected_loss,
        "problems": problems,
        "invocations": [{f.name: getattr(inv, f.name) for f in fields(inv)
                         if f.name != "probe"} for inv in invs],
    }
    if trace:
        record["spans"] = [[i, asdict(span)] for i, inv in enumerate(invs) if inv.traced
                           for span in inv.probe.spans]
    return result, record


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def reference_loss(workload: str, seed: int) -> float | None:
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        modules = import_program()
        env = environment(args.workload, args.seed)
        work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result, record = run(modules, WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), reference_loss(args.workload, args.seed),
                             work)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["tail_percentile"] = record["tail_percentile"]
    env["full_steps"] = record["full_steps"]
    env["reference_loss"] = record["reference_loss"]
    (work / "run.json").write_text(json.dumps({"env": env, "result": result, **record},
                                              indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
