#!/usr/bin/env python3
"""The flowlang benchmark: seeded workloads through the real CLI stages.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

For one workload the benchmark generates the inputs from the seed (at
least five times and for at least three seconds; ``setup_s`` is the
median), then runs the workload's stages, each as its own
``python -m flowlang`` child against this checkout's ``src/``, one after
another, as often as fits in ``--seconds``.
spawn.py starts each stage and records its wall time and peak RSS.
Timings are medians over those pipeline runs, in reference seconds: each
stage's and set-up's wall time is scaled by REFERENCE_PROBE_S over the
mean run time of probe.py just before and just after it, which cancels
the host's changes of speed (see probe.py). Every run's outputs are
checked (see checks.py); a stage that exits non-zero or whose output
fails a check is a failed operation.

With ``--trace 1`` each pipeline run is paired with a traced one, whose
stages run in-process under tracer.py; the per-layer metrics come from
the traced runs, whose outputs must be byte-identical to the untraced
ones. The last line of stdout is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics untraced, per-layer traced).
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus", "long_sessions", "flows")
# The seed the expected digests were recorded at; a claim is checked
# again on the held-out seed, which no tuning used.
DEFAULT_SEED = 7
HELDOUT_SEED = 1009
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed, so that setup_s is a median over several seconds of work.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
# Timings are reported as on a host that runs probe.py in this time.
REFERENCE_PROBE_S = 0.1
STAGE_TIMEOUT_S = 120
# No pipeline run starts that is expected to end later than this.
RUN_BUDGET_S = 140
REJECTED = re.compile(r"^rows: \d+ read, \d+ parsed, (\d+) rejected$", re.M)


@dataclass
class Stage:
    name: str
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    # wall_s in reference seconds.
    ref_s: float = 0.0
    spans: dict | None = None


@dataclass
class Pipeline:
    stages: list[Stage]
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The stages run back to back, so their sum."""
        return sum(s.wall_s for s in self.stages)

    @property
    def ref_s(self) -> float:
        """pipeline_s: wall_s in reference seconds."""
        return sum(s.ref_s for s in self.stages)

    def stage_ref_s(self, name: str) -> float:
        return sum(s.ref_s for s in self.stages if s.name == name)


class Runner:
    """Runs one workload's stages in a work directory and keeps the tally
    of attempted and failed stage invocations."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.runs = 0
        self.probes: list[float] = []

    def _spawn(self, argv: list[str], log: str) -> tuple[float, float, int, str]:
        """Run argv under spawn.py; (wall s, peak RSS MB, exit code, stdout)."""
        logs = self.work / "log"
        result_path = logs / f"{log}.result.json"
        with open(logs / f"{log}.out", "w") as out, open(logs / f"{log}.err", "w") as err:
            subprocess.run(
                [sys.executable, str(HERE / "spawn.py"), str(result_path),
                 str(STAGE_TIMEOUT_S), *argv],
                cwd=self.work, env=self.env, stdout=out, stderr=err, check=True)
        result = json.loads(result_path.read_text())
        if result["code"] != 0:
            sys.stderr.write((logs / f"{log}.err").read_text(errors="replace"))
        return (result["wall_s"], result["maxrss_mb"], result["code"],
                (logs / f"{log}.out").read_text())

    def warm_up(self) -> None:
        """Import the CLI once so every timed stage finds compiled bytecode,
        and run the probe once so its imports are cached too."""
        (self.work / "log").mkdir(parents=True, exist_ok=True)
        self._spawn([sys.executable, "-m", "flowlang", "--help"], "warm-up")
        self.probe()
        self.probes.clear()

    def probe(self) -> float:
        """Wall time of one probe.py run, started and timed like a stage."""
        wall, _, code, _ = self._spawn([sys.executable, str(HERE / "probe.py")],
                                       f"probe-{len(self.probes):04d}")
        if code != 0:
            raise RuntimeError(f"probe.py exited with {code}")
        self.probes.append(wall)
        return wall

    @staticmethod
    def ref_s(wall_s: float, before: float, after: float) -> float:
        """wall_s in reference seconds, given the probe times around it."""
        return wall_s * REFERENCE_PROBE_S / ((before + after) / 2)

    def pipeline(self, traced: bool) -> Pipeline:
        self.runs += 1
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        stages = []
        before = self.probe()
        for k, (name, args) in enumerate(self.workload.stages):
            log = f"{self.runs:03d}-{k}-{name}"
            spans_path = self.work / "log" / f"{log}.spans.json"
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args]
            else:
                argv = [sys.executable, "-m", "flowlang", *args]
            wall, rss, code, stdout = self._spawn(argv, log)
            stage = Stage(name, args, wall, rss, code, stdout)
            if traced and code == 0:
                stage.spans = json.loads(spans_path.read_text())
            after = self.probe()
            stage.ref_s = self.ref_s(wall, before, after)
            before = after
            stages.append(stage)
            if code != 0:
                break
        return Pipeline(stages)

    def tally(self, pipeline: Pipeline, problems: dict[int, list[str]]) -> None:
        """Count the workload's stages as attempted, and each stage that
        did not run, exited non-zero or has a problem as failed."""
        n = len(self.workload.stages)
        self.attempted += n
        for k in range(n):
            if k >= len(pipeline.stages):
                problems.setdefault(k, []).append("not run: an earlier stage failed")
            elif pipeline.stages[k].code != 0:
                problems.setdefault(k, []).append(f"exit code {pipeline.stages[k].code}")
        self.failed += len(problems)
        for k, texts in sorted(problems.items()):
            name = self.workload.stages[k][0]
            self.problems.extend(f"run {self.runs}, stage {k} ({name}): {t}" for t in texts)

    def producer(self, path: str) -> int:
        """Index of the first stage that names path or its directory: the
        stage that reads an input, or writes an output."""
        parent = str(Path(path).parent)
        for k, (_, args) in enumerate(self.workload.stages):
            if path in args or parent in args:
                return k
        raise ValueError(f"no stage uses {path}")


def _check_pipeline(runner: Runner, pipeline: Pipeline, inputs, reference: dict[str, str],
                    full: bool) -> tuple[dict[int, list[str]], float | None]:
    """Problems per stage index, and the report's AUC when full checks ran."""
    workload, work = runner.workload, runner.work
    problems: dict[int, list[str]] = {}
    if any(stage.code != 0 for stage in pipeline.stages):
        return problems, None

    for k, stage in enumerate(pipeline.stages):
        if stage.name != "prepare":
            continue
        source = stage.argv[stage.argv.index("--in") + 1]
        found = REJECTED.search(stage.stdout)
        want = inputs.injected[source]
        if found is None or int(found.group(1)) != want:
            got = found.group(1) if found else "no rows line"
            problems.setdefault(k, []).append(
                f"{source}: {want} malformed rows injected, prepare rejected {got}")

    for path in [*inputs.files, *workload.outputs]:
        pipeline.digests[path] = checks.sha256(work / path)
    for path, digest in pipeline.digests.items():
        want = reference.get(path)
        if want is not None and want != digest:
            problems.setdefault(runner.producer(path), []).append(
                f"{path} sha256 {digest}, expected {want}")

    auc = None
    if full:
        score_k = next(k for k, (name, _) in enumerate(workload.stages) if name == "score")
        eval_k = next(k for k, (name, _) in enumerate(workload.stages) if name == "eval")
        try:
            sequences = checks.read_sequences(work / workload.scored)
            scores = checks.read_scores(work / "out/scores.csv")
            found = checks.check_scores(work / "out/model.json", sequences, scores, runner.seed)
            problems.setdefault(score_k, []).extend(found)
            auc, found = checks.check_auc(work / "out/report/report.json", sequences,
                                          scores, workload.zero_policy)
            problems.setdefault(eval_k, []).extend(found)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.setdefault(eval_k, []).append(f"outputs unreadable: {exc!r}")
    return {k: v for k, v in problems.items() if v}, auc


def _layer_metrics(pipeline: Pipeline) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    seconds: dict[str, float] = {}
    counts: dict[str, float] = {}
    metrics: dict[str, float] = {}
    for command in ("prepare", "train", "score", "eval"):
        metrics[f"cli.{command}_self_s"] = 0.0
    for stage in pipeline.stages:
        spans = stage.spans
        metrics[f"cli.{spans['stage']}_self_s"] += spans["self_s"]
        for name, value in spans["seconds"].items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in spans["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer in ("flows.parse", "language.sessionize", "language.write", "language.read",
                  "pst.count", "pst.build", "pst.save", "pst.load", "pst.score",
                  "pst.flag", "evaluate.evaluate"):
        metrics[f"{layer}_s"] = seconds.get(layer, 0.0)
    for name in ("flows.rows_read", "flows.rows_rejected", "language.sequences",
                 "language.tokens", "pst.count_rss_mb", "pst.contexts", "pst.nodes",
                 "evaluate.examples"):
        metrics[name] = counts.get(name, 0)
    metrics["flows.rows_per_s"] = ratio(counts.get("flows.rows_read", 0),
                                        seconds.get("flows.parse", 0))
    metrics["pst.kept_ratio"] = ratio(counts.get("pst.nodes", 0), counts.get("pst.contexts", 0))
    metrics["pst.score_calls"] = sum(
        s.spans["calls"].get("pst.score", 0) for s in pipeline.stages)
    metrics["pst.score_tok_per_s"] = ratio(counts.get("pst.score_tokens", 0),
                                           seconds.get("pst.score", 0))
    for name in ("len1k", "len10k", "len40k"):
        metrics[f"pst.score_tok_per_s.{name}"] = ratio(
            counts.get(f"pst.score_tokens.{name}", 0), counts.get(f"pst.score_s.{name}", 0))
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run of one workload; returns the result object."""
    run_started = time.perf_counter()
    runner = Runner(workload, seed, work)
    runner.warm_up()

    setup_wall, setup_s, synth_s, synth_tokens = [], [], [], []
    input_digests: dict[str, str] = {}
    before = runner.probe()
    while len(setup_wall) < SETUP_REPEATS or sum(setup_wall) < SETUP_MIN_S:
        shutil.rmtree(work / "in", ignore_errors=True)
        started = time.perf_counter()
        inputs = workload.make_inputs(seed, work)
        setup_wall.append(time.perf_counter() - started)
        after = runner.probe()
        setup_s.append(runner.ref_s(setup_wall[-1], before, after))
        before = after
        synth_s.append(inputs.synth_s)
        synth_tokens.append(inputs.synth_tokens)
        digests = {path: checks.sha256(work / path) for path in inputs.files}
        for path, digest in digests.items():
            if input_digests.setdefault(path, digest) != digest:
                runner.problems.append(f"set-up wrote {path} differently on a repeat")

    # Digests every pipeline run must reproduce: the recorded ones at the
    # default seed, else those of the run's first pipeline run.
    reference: dict[str, str] = {}
    if seed == DEFAULT_SEED:
        with open(HERE / "expected_sha256.json", encoding="utf-8") as fh:
            reference.update(json.load(fh)[workload.name])

    plain: list[Pipeline] = []
    traced: list[Pipeline] = []
    auc = None
    loop_started = time.perf_counter()
    while True:
        pipeline = runner.pipeline(traced=False)
        problems, found_auc = _check_pipeline(runner, pipeline, inputs, reference,
                                              full=not plain)
        runner.tally(pipeline, problems)
        if problems:
            break
        if not plain:
            auc = found_auc
            for path, digest in pipeline.digests.items():
                reference.setdefault(path, digest)
        plain.append(pipeline)
        if trace:
            pipeline = runner.pipeline(traced=True)
            problems, _ = _check_pipeline(runner, pipeline, inputs, reference, full=False)
            runner.tally(pipeline, problems)
            if problems:
                break
            traced.append(pipeline)
        # Start another pipeline run only if it should end in the window.
        now = time.perf_counter()
        per_loop = (now - loop_started) / len(plain)
        if now - loop_started + per_loop > seconds or now - run_started + per_loop > RUN_BUDGET_S:
            break

    metrics: dict[str, tuple[float, int]] = {}
    if plain:
        metrics.update({
            "setup_s": (statistics.median(setup_s), len(setup_s)),
            "pipeline_s": (statistics.median([p.ref_s for p in plain]), len(plain)),
            "train_s": (statistics.median([p.stage_ref_s("train") for p in plain]), len(plain)),
            "score_s": (statistics.median([p.stage_ref_s("score") for p in plain]), len(plain)),
            "peak_rss_mb": (statistics.median([max(s.rss_mb for s in p.stages) for p in plain]),
                            len(plain)),
            "auc": (auc, 1),
        })
    if traced:
        layers = [_layer_metrics(p) for p in traced]
        for name in layers[0]:
            metrics[name] = (statistics.median([m[name] for m in layers]), len(layers))
        metrics["synth.generate_s"] = (statistics.median(synth_s), len(synth_s))
        metrics["synth.tokens"] = (statistics.median(synth_tokens), len(synth_tokens))
        overhead = (statistics.median([p.ref_s for p in traced])
                    - statistics.median([p.ref_s for p in plain]))
        metrics["trace.overhead_s"] = (overhead, len(traced))
    return {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "metrics": metrics,
        # Medians of the raw wall times, for reading alongside.
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "pipeline_s": statistics.median([p.wall_s for p in plain]) if plain else None,
            "probe_s": statistics.median(runner.probes),
        },
    }


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="flowlang benchmark")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for claim checks: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time window for pipeline runs (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    args = parser.parse_args(argv)

    if not (SRC / "flowlang" / "__init__.py").is_file():
        print(f"error: no flowlang package under {SRC}", file=sys.stderr)
        return 2
    # The workloads generate inputs with this checkout's flowlang.synth.
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            (ROOT / ".perfbench_work").rmdir()

    metrics = {}
    for name, result in results.items():
        print(f"workload {name}, seed {args.seed}: {result['attempted']} stage runs, "
              f"{result['failed']} failed")
        for problem in result["problems"]:
            print(f"  problem: {problem}")
        for metric, unit in declared.items():
            if metric not in result["metrics"]:
                continue
            value, samples = result["metrics"][metric]
            print(f"  {metric:<28} {value:>16.6f} {unit:<6} median of {samples}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        wall = result["wall"]
        print(f"  wall-clock medians: setup {wall['setup_s']:.4f} s, pipeline "
              f"{wall['pipeline_s'] or float('nan'):.4f} s, probe.py {wall['probe_s']:.4f} s "
              f"(reference {REFERENCE_PROBE_S} s)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
