"""Benchmark of ghostmeasure: three CLI workloads, end to end and by layer.

    python3 perfbench/run.py
    python3 perfbench/run.py --workload comb --seed 1 --seconds 30 --trace 0

Without --workload, every workload runs untraced and then traced, each in a
fresh process, and a table of all metrics is printed.  With --workload, one
run of that workload prints a JSON object as its last stdout line:
{"correct", "attempted", "failed", "metrics"}, the end-to-end metrics of
BENCHMARK.json with --trace 0 and its per-layer metrics with --trace 1.

One run, in one process and from one client in a closed loop:
  1. checks the oracles against brute force (selftest.py);
  2. repeats whole passes of the workload until --seconds have passed, each
     pass's output equal to the first pass's, and reports medians over the
     passes; untraced runs also time a fresh interpreter importing
     ghostmeasure.cli SETUP_START times at the start and once after every
     pass, and report the median as setup_s;
  3. traced only: one more pass under tracemalloc for the layer peaks, then
     writes the spans of the last timed pass to perfbench/out/;
  4. checks every output of the first pass against the oracles.
Every pass attempts the same operations, so the failed share is the same
in every run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
SETUP_START = 3


def import_seconds() -> float:
    """Wall time of one fresh interpreter importing ghostmeasure.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout.SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ghostmeasure.cli"], env=env, cwd=checkout.ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Runner:
    """Runs whole passes of a workload and verifies what they produce."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.paths = [scratch / f"{i}.out" for i in range(len(workload.ops))]
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self) -> tuple[float, float, int]:
        """One pass over every operation: (wall s, CPU s, bytes written by --out)."""
        from ghostmeasure import cli

        ops = self.workload.ops
        ok = [False] * len(ops)
        values = {}
        sink = io.StringIO()
        cpu0 = time.process_time()
        start = time.perf_counter()
        with contextlib.redirect_stderr(sink):
            for i, op in enumerate(ops):
                try:
                    if op.argv is not None:
                        ok[i] = cli.main([*op.argv, "--out", str(self.paths[i])]) == 0
                    else:
                        values[op.key] = op.call()
                        ok[i] = True
                except (Exception, SystemExit) as exc:
                    print(f"{op.key}: {exc!r}", file=sink)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0

        outputs = {}
        out_bytes = 0
        for i, op in enumerate(ops):
            if not ok[i]:
                continue
            if op.argv is not None:
                outputs[op.key] = self.paths[i].read_text()
                out_bytes += self.paths[i].stat().st_size
            else:
                outputs[op.key] = values[op.key]
        self.attempted += len(ops)
        self.failed += ok.count(False)
        unexpected = [op.key for op, good in zip(ops, ok) if not good and not op.known_fault]
        if unexpected:
            print(f"perfbench: unexpected failures {unexpected}:\n{sink.getvalue()}", file=sys.stderr)
            message = f"operations failed: {unexpected}"
            if message not in self.errors:
                self.errors.append(message)
        self._verify(outputs)
        return wall, cpu, out_bytes

    def _verify(self, outputs: dict) -> None:
        if self.reference is None:
            self.reference = outputs
            return
        changed = [k for k in self.reference.keys() | outputs.keys()
                   if self.reference.get(k) != outputs.get(k)]
        if changed:
            self.errors.append(f"output differs from the first pass: {sorted(changed)[:5]}")

    def check(self) -> None:
        """Hold the first pass's outputs to the oracles.

        Called after measuring, so the oracles' own memory and time stay out
        of the metrics; every later pass was compared to these outputs.
        """
        for op in self.workload.ops:
            if op.key not in self.reference:
                if not op.known_fault:
                    self.errors.append(f"{op.key}: no output to check")
            elif op.check is not None:
                self._run_check(op.key, op.check, self.reference[op.key])
        for check in self.workload.cross_checks:
            self._run_check("cross", check, self.reference)

    def _run_check(self, key, check, arg) -> None:
        try:
            check(arg)
        except Exception as exc:  # a malformed output is a failed check too
            self.errors.append(f"{key}: {exc!r}")


def _timed_passes(runner: Runner, seconds: float, after_pass) -> list[tuple[float, float, int]]:
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(runner.run_pass())
        after_pass(samples[-1])
    print("perfbench: pass wall s " + " ".join(f"{s[0]:.3f}" for s in samples), file=sys.stderr)
    return samples


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    import_seconds()  # may compile bytecode; not counted
    # Imports are timed at the start and after every pass, so they sample the
    # whole run rather than one moment of it.
    setup = [import_seconds() for _ in range(SETUP_START)]
    samples = _timed_passes(runner, seconds, lambda _: setup.append(import_seconds()))
    return {
        "wall_s": statistics.median(s[0] for s in samples),
        "cpu_s": statistics.median(s[1] for s in samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    import tracing

    tracer = tracing.Tracer()
    per_pass = []

    def collect(sample):
        m = tracing.layer_metrics(tracer.spans)
        m["cli.out_bytes"] = sample[2]
        m["trace.wall_s"] = sample[0]
        per_pass.append(m)
        last_spans[:] = tracer.spans
        tracer.spans.clear()

    last_spans: list[tuple] = []
    tracer.install()
    try:
        _timed_passes(runner, seconds, collect)
        tracer.memory_pass = True
        tracemalloc.start()
        try:
            runner.run_pass()
        finally:
            tracemalloc.stop()
            tracer.memory_pass = False
    finally:
        tracer.uninstall()

    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        for sid, name, start, end, parent, _ in last_spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(tracer.memory_metrics())
    return metrics


def run_one(args) -> int:
    import oracles
    import selftest
    import workloads

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    errors = []
    try:
        selftest.run()
    except oracles.CheckError as exc:
        errors.append(f"oracle self-test: {exc}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=checkout.ROOT) as scratch:
        runner = Runner(workload, Path(scratch))
        if args.trace:
            spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = per_layer(runner, args.seconds, spans_path)
        else:
            values = end_to_end(runner, args.seconds)
        runner.check()
    errors += runner.errors
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process; one table."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=checkout.ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                status = 1
                continue
            runs[trace] = json.loads(lines[-1])
        print(f"== {name}  (seed {args.seed}, {args.seconds} s measured per run)")
        for trace, res in sorted(runs.items()):
            print(f"  {'traced' if trace else 'untraced'}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for metric, v in res["metrics"].items():
                print(f"    {metric:36s} {v['value']:>16.6g} {v['unit']}")
            status |= not res["correct"]
        if len(runs) == 2:
            plain = runs[0]["metrics"]["wall_s"]["value"]
            traced = runs[1]["metrics"]["trace.wall_s"]["value"]
            print(f"  tracing overhead: {traced - plain:+.3f} s per pass ({100 * (traced / plain - 1):+.1f} %)")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("comb", "spectral", "exact"),
                    help="run one workload (default: all, untraced and traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    checkout.use_source()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
