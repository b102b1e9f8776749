#!/usr/bin/env python3
"""handcam benchmark.

    python3 bench/run.py --workload {cv-auto,long-video,corpus,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. The inputs are generated from the
seed under `.bench_work/` and removed afterwards; the program is run from
`src/` as `python -m handcam.cli`, one command at a time.

`--trace 0` runs each command in a fresh process and repeats the workload's
command chain until `--seconds` have passed (at least twice). It reports
the end-to-end metrics: set-up time, chain wall time, the key command's
latency, peak RSS and output quality.

`--trace 1` runs the chain twice in this process through
`handcam.cli.main`: once plain, once with handcam's public functions
wrapped by `tracing.Tracer`. It reports per-layer self times, calls and
sizes, and writes the spans to `.bench_traces/`.

Both modes check every command's outputs (see `workloads.py`) and compare
the digests of all artifacts between the two chains of one seed. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
# BLAS libraries read their thread count when numpy loads: set it before
# the imports below, for this process (traced runs) and every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "stage_s": "s", "peak_rss_mb": "MB", "quality": "fraction",
}

PER_LAYER = {
    "classify.cross_validate.s": "s",
    "classify.cross_validate.cells": "count",
    "classify.train.s": "s",
    "classify.train.calls": "count",
    "classify.train_binary.s": "s",
    "classify.train_binary.calls": "count",
    "classify.solver_flops": "flop-computed",
    "classify.score_stream.s": "s",
    "inference.InferenceProblem.s": "s",
    "inference.InferenceProblem.calls": "count",
    "inference.segment_features.s": "s",
    "inference.decode.s": "s",
    "inference.decode.calls": "count",
    "inference.decode.segments": "count",
    "core.cosine_similarity.calls": "count",
    "change.detect_candidates.s": "s",
    "change.detect_candidates.frames": "count",
    "change.suppress_non_maxima.s": "s",
    "change.train_change_model.s": "s",
    "change.candidates_per_100_frames": "1/100frames",
    "change.candidate_recall": "fraction",
    "change.candidate_precision": "fraction",
    "change.candidates": "count",
    "change.true_transitions": "count",
    "features.read_features.s": "s",
    "features.read_features.bytes": "B",
    "features.write_features.s": "s",
    "features.histogram_stream.s": "s",
    "features.histogram_stream.frames": "count",
    "evaluation.build_report.s": "s",
    "evaluation.write_report.s": "s",
    "media.load_video_dir.s": "s",
    "media.load_video_dir.frames": "count",
    "media.save_video_dir.s": "s",
    "media.resize_to.s": "s",
    "media.resize_to.calls": "count",
    "alignment.compute_pixel_stats.s": "s",
    "alignment.compute_pixel_stats.bytes": "B-computed",
    "alignment.ncc_match.s": "s",
    "alignment.align_video.s": "s",
    "discovery.active_segments.s": "s",
    "discovery.segments": "count",
    "discovery.segment_similarity_matrix.s": "s",
    "discovery.segment_similarity_matrix.calls": "count",
    "discovery.average_linkage.s": "s",
    "discovery.average_linkage.calls": "count",
    "discovery.modified_purity.s": "s",
    "synth.gen_feature_stream.s": "s",
    "cli.write_manifest.s": "s",
    "cli.write_manifest.bytes": "B",
    "cli.main.s": "s",
    "cli.commands": "count",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    seconds: float
    rss_kb: int
    code: int
    output: str


@dataclass
class Ledger:
    """Operations attempted and failed; an operation is one command with
    its output checks, or one digest comparison."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{name}: {error}")
            print(f"FAILED {name}: {error}", file=sys.stderr)


class Subprocesses:
    """Each command in a fresh interpreter; peak RSS from os.wait4."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> Outcome:
        with tempfile.TemporaryFile(dir=ROOT / ".bench_work") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "handcam.cli", *argv],
                                    env=self.env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            return Outcome(seconds, usage.ru_maxrss, proc.returncode,
                           log.read().decode(errors="replace"))


class InProcess:
    """Each command through handcam.cli.main in this process."""

    def __init__(self, tracer=None) -> None:
        # handcam is loaded into this process only for in-process runs.
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import handcam.cli

        self.main = handcam.cli.main
        self.tracer = tracer

    def run(self, argv: list[str]) -> Outcome:
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf), redirect_stderr(buf):
            if self.tracer is None:
                code = self.main(argv)
            else:
                code = self.tracer.command(self.main, argv)
        return Outcome(time.perf_counter() - start, 0, code, buf.getvalue())


def operate(step, runner, ledger: Ledger) -> Outcome:
    outcome = runner.run(step.argv)
    error = None
    if outcome.code != 0:
        tail = outcome.output.strip().splitlines()[-1:] or [""]
        error = f"exit {outcome.code}: {tail[0]}"
    else:
        try:
            step.check()
        except Exception as e:  # any unreadable or wrong output fails this operation
            traceback.print_exc()
            error = f"{type(e).__name__}: {e}"
    ledger.record(step.name, error)
    return outcome


@dataclass
class Chain:
    out: Path
    latency: dict[str, float]
    rss_kb: int

    @property
    def wall(self) -> float:
        return sum(self.latency.values())


def run_chain(workload, runner, out: Path, ledger: Ledger, first: Chain | None) -> Chain:
    out.mkdir()
    latency, rss = {}, 0
    for step in workload.chain(out):
        outcome = operate(step, runner, ledger)
        latency[step.name] = outcome.seconds
        rss = max(rss, outcome.rss_kb)
    if first is not None:
        same = workloads.digest_tree(first.out) == workloads.digest_tree(out)
        ledger.record("digests", None if same else f"artifacts of {out.name} differ from {first.out.name}")
    return Chain(out, latency, rss)


def setup_seconds(runner: Subprocesses, ledger: Ledger) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        outcome = runner.run(["--version"])
        ledger.record("version", None if outcome.code == 0 else f"exit {outcome.code}")
        samples.append(outcome.seconds)
    return statistics.median(samples)


def ratio_metrics(cand: dict) -> dict[str, float]:
    return {
        "change.candidate_recall": cand["recalled"] / max(cand["true_transitions"], 1),
        "change.candidate_precision": cand["precise"] / max(cand["candidates"], 1),
        "change.candidates_per_100_frames": 100.0 * cand["candidates"] / cand["frames"],
        "change.candidates": cand["candidates"],
        "change.true_transitions": cand["true_transitions"],
    }


def describe_candidates(fig: dict) -> None:
    cand = fig.get("candidates")
    if not cand:
        return
    r = ratio_metrics(cand)
    print(f"candidate_recall {r['change.candidate_recall']:.4f} = {cand['recalled']}"
          f"/{cand['true_transitions']} true transitions with a candidate within d")
    print(f"candidate_precision {r['change.candidate_precision']:.4f} = {cand['precise']}"
          f"/{cand['candidates']} candidates within d of a true transition")
    print(f"candidates_per_100_frames {r['change.candidates_per_100_frames']:.4f} over {cand['frames']} frames")


def run_untraced(workload, work: Path, seed: int, seconds: float, ledger: Ledger) -> dict:
    runner = Subprocesses()
    for step in workload.prepare(work, seed):
        operate(step, runner, ledger)
    setup = setup_seconds(runner, ledger)
    chains: list[Chain] = []
    start = time.perf_counter()
    while len(chains) < 2 or time.perf_counter() - start < seconds:
        chains.append(run_chain(workload, runner, work / f"rep{len(chains)}", ledger,
                                chains[0] if chains else None))
    fig = workload.figures(chains[0].out)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(c.wall for c in chains),
        "stage_s": statistics.median(c.latency[workload.key_step] for c in chains),
        "peak_rss_mb": max(c.rss_kb for c in chains) / 1024.0,
        "quality": fig["quality"],
    }
    steps = {name: statistics.median(c.latency[name] for c in chains) for name in chains[0].latency}
    print(f"# {workload.name} seed={seed}: {len(chains)} chains of {len(steps)} commands")
    for name, value in steps.items():
        print(f"step {name} {value:.4f} s (median)")
    named = {"infer-full": "infer_s", "align": "align_s", "discover": "discover_s"}
    for step, name in named.items():
        if step in steps:
            print(f"{name} {steps[step]:.4f} s")
    for key in ("accuracy_full", "accuracy_unary", "purity_mean", "align_recovered"):
        if key in fig:
            print(f"{key} {fig[key]:.4f} fraction")
    print(f"startup_share {setup * len(steps) / metrics['wall_s']:.4f} fraction "
          f"(setup_s x {len(steps)} commands / wall_s)")
    describe_candidates(fig)
    return metrics


def run_traced(workload, work: Path, seed: int, ledger: Ledger) -> dict:
    plain = InProcess()
    for step in workload.prepare(work, seed):
        operate(step, plain, ledger)
    untraced = run_chain(workload, plain, work / "rep0", ledger, None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_chain(workload, InProcess(tracer), work / "rep1", ledger, untraced)
    finally:
        tracer.uninstall()
    for name in tracer.unresolved:
        print(f"not traced: {name} is not in handcam", file=sys.stderr)
    tracer.write_spans(ROOT / ".bench_traces" / f"{workload.name}-seed{seed}.jsonl")

    totals = dict(tracer.totals)
    totals["classify.solver_flops"] = (
        totals.get("classify.train.flops", 0) + totals.get("classify.train_binary.flops", 0)
    )
    totals["discovery.segments"] = totals.get("discovery.active_segments.segments", 0)
    totals["cli.commands"] = totals.get("cli.main.calls", 0)
    for layer, seconds in tracer.layer_self_times().items():
        totals[f"{layer}.self_s"] = seconds
    fig = workload.figures(traced.out)
    if fig.get("candidates"):
        totals.update(ratio_metrics(fig["candidates"]))
    totals["trace.untraced_wall_s"] = untraced.wall
    totals["trace.traced_wall_s"] = traced.wall
    totals["trace.overhead_s"] = traced.wall - untraced.wall

    print(f"# {workload.name} seed={seed} traced: {len(tracer.spans)} spans")
    for layer in tracing.LAYERS:
        print(f"self {layer} {totals[f'{layer}.self_s']:.4f} s")
    solver = totals.get("classify.train.s", 0.0) + totals.get("classify.train_binary.s", 0.0)
    if solver:
        print(f"prediction solver_share {solver / traced.wall:.4f} "
              f"(train + train_binary self time / traced wall {traced.wall:.4f} s)")
    if "align" in traced.latency:
        ncc = totals.get("alignment.ncc_match.s", 0.0)
        print(f"prediction ncc_share_of_align {ncc / traced.latency['align']:.4f} "
              f"(ncc_match {ncc:.4f} s / align {traced.latency['align']:.4f} s)")
    describe_candidates(fig)
    return {name: totals.get(name, 0) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[Ledger, dict]:
    ledger = Ledger()
    workload = workloads.WORKLOADS[name]()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    try:
        if traced:
            metrics = run_traced(workload, work, seed, ledger)
        else:
            metrics = run_untraced(workload, work, seed, seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ledger, metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["cv-auto", "long-video", "corpus", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "handcam" / "cli.py").is_file():
        print(f"error: no handcam sources under {SRC}", file=sys.stderr)
        return 2
    versions = " ".join(f"{pkg}={importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    print(f"# machine nproc={NPROC} blas_threads={BLAS_THREADS} python={platform.python_version()} "
          f"{versions} cpu={platform.processor() or platform.machine()}")
    units = PER_LAYER if args.trace else END_TO_END
    names = ["cv-auto", "long-video", "corpus"] if args.workload == "all" else [args.workload]
    attempted, errors, metrics = 0, [], {}
    for name in names:
        ledger, values = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += ledger.attempted
        errors += ledger.errors
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({f"{prefix}{k}": {"value": v, "unit": units[k]} for k, v in values.items()})
        print(f"fail_rate {len(ledger.errors) / ledger.attempted:.4f} "
              f"({len(ledger.errors)}/{ledger.attempted} operations)")
        if not args.trace:
            for k, v in values.items():
                print(f"{prefix}{k} {v:.4f} {units[k]}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
