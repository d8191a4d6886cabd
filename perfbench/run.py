"""Benchmark for gooddecomp: four seeded workloads, end-to-end metrics, and a
traced run for per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

A run imports the library from ``src/`` next to this directory and builds the
workload's inputs from the seed; this set-up is repeated SETUP_REPS times and
reported as the median.  It then makes as many timed passes over the inputs
as fit in ``--seconds`` at the workload's nominal pass time.  After every
pass, outside the timed window, the workload's gates check each output; any
miss counts into ``failed`` and makes the exit code 1.

Times are reported at a reference machine speed (see speed.py), because on a
shared host raw times of the same code vary by up to a factor of two.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run makes half the passes untraced and then exactly one traced pass,
so its counts repeat exactly for a given seed.

Each run also writes ``.perfbench/<workload>-seed<seed>-trace<t>.json`` with
the run metadata, every end-to-end figure (raw times, failed_frac and
aborted_frac too), the misses and the per-instance oracle outcomes and node
counts; a traced run adds its spans in ``...-spans.json``.  ``--self-check``
runs every workload at tiny sizes, one pass untraced and one traced, through
the same gates.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PACKAGE = "gooddecomp"
#: imported by module, never with ``from gooddecomp import *``: the package's
#: ``__all__`` re-exports the submodule name ``io`` and would shadow the stdlib
MODULES = ("digraph", "builders", "flows", "structure", "decomp", "oracle", "io", "cli")
SETUP_REPS = 5

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from tracing import STATS, Tracer  # noqa: E402
from workloads import WORKLOADS, Runner, input_sizes  # noqa: E402


@dataclass
class Pass:
    wall: float  # as measured, probe time excluded
    scaled: float  # at reference speed
    instances: list
    misses: list

    @property
    def failed(self) -> int:
        flagged = {k for k, _ in self.misses if k is not None}
        pass_level = sum(1 for k, _ in self.misses if k is None)
        return min(len(flagged) + pass_level, max(1, len(self.instances)))


# ---------------------------------------------------------------------------
# set-up


def import_library() -> SimpleNamespace:
    """A fresh import of the package from SRC, every submodule by name."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def set_up(workload, seed: int, tiny: bool, reps: int, probe: SpeedProbe):
    """Library and inputs, with the median set-up time as measured and at
    reference speed."""
    raw, scaled = [], []
    for _ in range(reps):
        start = time.perf_counter()
        lib = import_library()
        inputs = workload.make_inputs(lib, random.Random(seed), tiny)
        end = time.perf_counter()
        raw.append(end - start - probe.busy(start, end))
        scaled.append(probe.scaled(start, end))
    return lib, inputs, (statistics.median(raw), statistics.median(scaled))


# ---------------------------------------------------------------------------
# timed passes


def pass_count(workload, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.  The
    count depends on nothing measured, so every run of a given length has the
    same number of samples and reports the same tail percentile."""
    return max(1, round(seconds / workload.pass_seconds))


def run_passes(workload, lib, inputs, count: int, runner: Runner, probe: SpeedProbe) -> list:
    passes = []
    for _ in range(count):
        gc.collect()
        t0 = time.perf_counter()
        instances = workload.run_pass(lib, inputs, runner)
        t1 = time.perf_counter()
        wall = t1 - t0 - probe.busy(t0, t1)
        misses = workload.check(inputs, instances)
        passes.append(Pass(wall, probe.scaled(t0, t1), instances, misses))
        for inst in instances:  # keep what the metrics need, not the outputs
            end = inst.start + inst.seconds
            inst.seconds -= probe.busy(inst.start, end)
            inst.scaled = probe.scaled(inst.start, end)
            inst.output = None
            inst.reports = tuple((r.outcome, r.nodes_explored) for r in inst.reports)
    return passes


def tail(samples: list) -> tuple:
    """(percentile, value, samples beyond): the highest of p99/p95/p90 with at
    least ten samples beyond it, else p90 with the few there are."""
    xs = sorted(samples)
    for q in (0.99, 0.95, 0.90):
        idx = max(0, math.ceil(q * len(xs)) - 1)
        beyond = len(xs) - idx - 1
        if beyond >= 10 or q == 0.90:
            return q, xs[idx], beyond


def end_to_end(passes: list, setup: tuple) -> dict:
    """Every end-to-end figure: times at reference speed, then as measured."""
    scaled = [i.scaled for p in passes for i in p.instances] or [0.0]
    raw = [i.seconds for p in passes for i in p.instances] or [0.0]
    reports = [r for p in passes for i in p.instances for r in i.reports]
    attempted = sum(len(p.instances) for p in passes)
    q, tail_s, beyond = tail(scaled)
    return {
        "setup_s": (setup[1], "s"),
        "wall_s": (statistics.median(p.scaled for p in passes), "s"),
        "instance_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "instance_tail_ms": (tail_s * 1e3, "ms"),
        "instance_tail_percentile": (q * 100, "%"),
        "instance_tail_beyond": (beyond, "count"),
        "instance_samples": (len(scaled), "count"),
        "setup_s_raw": (setup[0], "s"),
        "wall_s_raw": (statistics.median(p.wall for p in passes), "s"),
        "instance_p50_ms_raw": (statistics.median(raw) * 1e3, "ms"),
        "instance_tail_ms_raw": (tail(raw)[1] * 1e3, "ms"),
        "failed_frac": (sum(p.failed for p in passes) / max(1, attempted), "frac"),
        "aborted_frac": (
            sum(outcome == "aborted" for outcome, _ in reports) / max(1, len(reports)),
            "frac",
        ),
        "oracle_calls": (len(reports), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# metadata and output


def git_sha():
    """HEAD of the repository around ROOT, read without running git; None in
    a checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(lib, name, inputs, args, passes) -> dict:
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "oracle_backend": lib.oracle.BACKEND,
        "kernel_module": lib.oracle._impl.__name__,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "instances_per_pass": len(passes[0].instances),
        "input_sizes": input_sizes(name, inputs),
    }


def instance_records(p: Pass) -> list:
    """Label, oracle (outcome, nodes) pairs and error of every instance."""
    return [[i.label, [list(r) for r in i.reports], i.error] for i in p.instances]


def instance_medians(passes: list) -> dict:
    """Median seconds at reference speed per instance label over all passes."""
    times: dict = {}
    for p in passes:
        for i in p.instances:
            times.setdefault(i.label, []).append(i.scaled)
    return {label: statistics.median(ts) for label, ts in times.items()}


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(args) -> int:
    definition = load_definition()
    workload = WORKLOADS[args.workload]
    count = pass_count(workload, args.seconds)
    with SpeedProbe() as probe:
        lib, inputs, setup = set_up(workload, args.seed, False, SETUP_REPS, probe)
        untraced = max(1, count // 2) if args.trace else count
        passes = run_passes(workload, lib, inputs, untraced, Runner(), probe)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, lib, inputs, 1, Runner(tracer), probe)
            finally:
                tracer.uninstall()
            tracer.finish(probe.busy)
            overhead = traced[0].scaled / statistics.median(p.scaled for p in passes) - 1
            passes += traced
    figures = end_to_end(passes, setup)
    attempted = sum(len(p.instances) for p in passes)
    failed = sum(p.failed for p in passes)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "metadata": metadata(lib, args.workload, inputs, args, passes),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "attempted": attempted,
        "failed": failed,
        "misses": [[k, msg] for p in passes for k, msg in p.misses][:100],
        "pass_walls_s": [[p.wall, p.scaled] for p in passes],
        "instances": instance_records(passes[0]),
        "instance_median_s": instance_medians(passes),
    }
    if args.trace:
        values = {m["name"]: tracer.value(m["name"]) for m in definition["per_layer"]}
        values["trace_overhead_frac"] = overhead
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in definition["per_layer"]}
        record["trace"] = tracer.summary()
        tracer.dump(f"{stem}-spans.json")
    else:
        metrics = {m["name"]: figures[m["name"]] for m in definition["end_to_end"]}
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"instances {attempted}  record {stem}.json")
    for name, (value, unit) in figures.items():
        print(f"  {name:26} {value:>14.6g} {unit}")
    for k, msg in record["misses"][:20]:
        print(f"  MISS {k}: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def self_check() -> int:
    """Every workload at tiny sizes, untraced and traced, through all gates."""
    definition = load_definition()
    problems = []
    if sorted(w["name"] for w in definition["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the workload registry")
    for name, workload in WORKLOADS.items():
        tracer = Tracer()
        with SpeedProbe() as probe:
            lib, inputs, _ = set_up(workload, 0, True, 1, probe)
            plain = run_passes(workload, lib, inputs, 1, Runner(), probe)[0]
            tracer.install()
            try:
                traced = run_passes(workload, lib, inputs, 1, Runner(tracer), probe)[0]
            finally:
                tracer.uninstall()
            tracer.finish(probe.busy)
        for label, p in (("untraced", plain), ("traced", traced)):
            problems += [f"{name} {label} {k}: {msg}" for k, msg in p.misses]
        outcomes = sum(tracer.value(f"oracle.{o}") for o in ("found", "none", "aborted"))
        reports = sum(len(i.reports) for i in traced.instances)
        if outcomes < reports:
            problems.append(f"{name}: tracer saw {outcomes} oracle calls, the workload {reports}")
        if instance_records(plain) != instance_records(traced):
            problems.append(f"{name}: tracing changed oracle outcomes or node counts")
        missing = sorted({
            layer for layer, _, stat in (m["name"].rpartition(".") for m in definition["per_layer"])
            if stat in STATS and layer not in tracer.layers
        })
        if missing:
            problems.append(f"{name}: per-layer metrics of functions never wrapped: {missing}")
        print(f"self-check {name}: {len(plain.instances)} instances, "
              f"{len(plain.misses) + len(traced.misses)} misses")
    for msg in problems:
        print(f"  MISS {msg}")
    print("self-check ok" if not problems else f"self-check FAILED: {len(problems)} misses")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no library source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
