#!/usr/bin/env python3
"""trialeff benchmark: one seeded workload per run, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory.  Workloads (see workloads.py): coverage, estimate,
sensitivity, figures.  Every run is a single closed-loop caller that
repeats whole passes over the seeded input pool until ``--seconds`` have
elapsed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
layers.py plus the tracing overhead.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are a human-readable row and the run metadata.  ``--workload all`` runs
every workload in turn and prints one row each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
NAMES = ("coverage", "estimate", "sensitivity", "figures")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trialeff" / "__init__.py").is_file():
        print(f"error: no trialeff sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.probe:
        workload.build(args.seed)
        print("ready", flush=True)
        return 0
    if Path(workloads.trialeff.__file__).resolve().parent != SRC / "trialeff":
        print(f"error: imported trialeff from {workloads.trialeff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pool = workload.build(args.seed)
    if args.trace:
        return traced_run(args, workload, pool)
    return timed_run(args, workload, pool)


# ---------------------------------------------------------------------------
# measurement


class Phase:
    """Latencies and per-op outcomes of whole passes over one pool."""

    def __init__(self):
        self.latencies: list[float] = []
        self.passes = 0
        self.ops: list[tuple[int, bool]] = []  # (pool index, output matched the reference)
        self.outputs: list = []
        self.prints: list = []


def run_pass(workload, pool, phase: Phase, reference: list | None = None, tracer=None) -> None:
    """One closed-loop pass: each op starts after the previous one completes.

    The first pass keeps its outputs for the oracle checks; every later
    op must reproduce the reference fingerprint of its input.
    """
    clock = time.perf_counter
    for i, inp in enumerate(pool):
        if tracer is not None:
            tracer.op_id = phase.passes * len(pool) + i
        t0 = clock()
        try:
            out = workload.run(inp)
        except Exception as exc:  # an unexpected exception is a failed op
            out = exc
        phase.latencies.append(clock() - t0)
        raised = isinstance(out, Exception)
        print_ = repr(out) if raised else workload.fingerprint(out)
        if reference is None and phase.passes == 0:
            phase.outputs.append(out)
            phase.prints.append(print_)
            phase.ops.append((i, not raised))
        else:
            ref = reference if reference is not None else phase.prints
            phase.ops.append((i, not raised and print_ == ref[i]))
    phase.passes += 1


def measure(workload, pool, seconds: float) -> Phase:
    """Whole passes until ``seconds`` have elapsed."""
    phase = Phase()
    began = time.perf_counter()
    while True:
        run_pass(workload, pool, phase)
        if time.perf_counter() - began >= seconds:
            return phase


def throughput(workload, pool, phase: Phase) -> float:
    """Units per second of one pass timed at each input's median latency.

    Medians per input keep a transient slowdown of the machine from
    moving the figure; every input still counts with its own cost.
    """
    per_input = [statistics.median(phase.latencies[i::len(pool)]) for i in range(len(pool))]
    return sum(workload.units(inp) for inp in pool) / sum(per_input)


def check_pool(workload, pool, outputs):
    """Oracle checks of one pass; returns (bad input indices, bound errors, properties, problems)."""
    from workloads import Check

    bad, errors, props, problems = set(), [], Counter(), []
    for i, (inp, out) in enumerate(zip(pool, outputs)):
        chk = Check()
        if isinstance(out, Exception):
            chk.problems.append(f"raised {out!r}")
        else:
            try:
                workload.check(inp, out, chk)
            except Exception as exc:  # a malformed output fails its op
                chk.problems.append(f"check could not read the output: {exc!r}")
        if chk.problems:
            bad.add(i)
            problems.extend(f"input {i}: {p}" for p in chk.problems)
        errors.extend(chk.errors)
        props.update(chk.props)
    return bad, errors, props, problems


def failures(phase: Phase, bad: set) -> int:
    return sum(1 for i, same in phase.ops if not same or i in bad)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:  # too few samples for any such percentile: report the maximum
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def setup_seconds(args) -> float:
    """Median time from a fresh interpreter to imported package and generated inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(args, workload, pool) -> int:
    setup = setup_seconds(args)
    phase = measure(workload, pool, args.seconds)
    rss = peak_rss_mb()
    bad, errors, props, problems = check_pool(workload, pool, phase.outputs)
    failed = failures(phase, bad)
    value, pct, n = tail(phase.latencies)
    metrics = {
        "ops_per_s": (throughput(workload, pool, phase), "ops/s"),
        "latency_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }
    # Reported but not bounded: fail_ratio is 0 on a correct build (a failure
    # already makes the run incorrect) and max_abs_err is fixed by the seed's inputs.
    checks = {"fail_ratio": (failed / len(phase.ops), "ratio"),
              "max_abs_err": (max(errors, default=0.0), "efficacy")}
    row = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in (metrics | checks).items())
    print(f"{workload.name}  seed={args.seed}  {row}  [ops_per_s counts {workload.unit}; "
          f"tail is p{pct:.2f} of {n} ops]")
    meta = metadata(args, workload, pool, phase, props)
    meta.update({"tail_percentile": pct, "tail_samples": n, "problems": problems[:20]}
                | {k: v for k, (v, _u) in checks.items()})
    print("meta " + json.dumps(meta, sort_keys=True))
    for p in problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    result(not problems and failed == 0, len(phase.ops), failed,
           {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return 0


def traced_run(args, workload, pool) -> int:
    import layers
    import tracing
    import workloads

    # Untraced and traced passes alternate, so machine drift during the
    # run affects both rates alike and their ratio is the tracing overhead.
    plain, traced = Phase(), Phase()
    tracer = tracing.Tracer(pass_ops=len(pool))
    run_cli = workloads.run_cli
    began = time.perf_counter()
    while True:
        run_pass(workload, pool, plain)
        workloads.run_cli = lambda argv: tracer.span("cli." + argv[0].replace("-", "_"), run_cli, argv)
        tracer.install()
        try:
            run_pass(workload, pool, traced, reference=plain.prints, tracer=tracer)
        finally:
            tracer.uninstall()
            workloads.run_cli = run_cli
        if time.perf_counter() - began >= args.seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload.name}.npz")
    bad, errors, props, problems = check_pool(workload, pool, plain.outputs)
    ops = len(plain.ops) + len(traced.ops)
    failed = failures(plain, bad) + failures(traced, bad)
    spans = tracer.summary(traced.passes)
    plain_rate = throughput(workload, pool, plain)
    traced_rate = throughput(workload, pool, traced)
    values = {}
    for span, (stats, _bypass) in layers.SPANS.items():
        got = spans.get(span, {"calls": 0, "self_ms": 0.0, "p50_us": 0.0, "errors": 0})
        for stat in stats:
            if stat == "grid_points":  # per posterior built
                built = got["calls"] - got["errors"]
                values[f"{span}.{stat}"] = tracer.grid_points[span] / built if built else 0
            else:
                values[f"{span}.{stat}"] = got[stat]
    attempts = props["attempts"]
    lattice = props["lattice_points"]
    mixtures = values["posterior.marginalize_over_diagnostics.calls"]
    grid_points = sum(tracer.grid_points.values())
    values.update({
        "simulate.method_failure_ratio":
            sum(v for k, v in props.items() if k.startswith("typed_errors.")) / attempts if attempts else 0.0,
        "posterior.marginalize_over_diagnostics.lattice_points": lattice / mixtures if mixtures else 0,
        "posterior.marginalize_over_diagnostics.kept_ratio":
            (lattice - props["lattice_excluded"]) / lattice if lattice else 0.0,
        "workload.ops_per_pass": len(pool),
        "workload.intervals": tracer.intervals,
        "workload.grid_points_per_interval": grid_points / tracer.intervals if tracer.intervals else 0,
        "trace.untraced_ops_per_s": plain_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ratio": plain_rate / traced_rate,
        "check.fail_ratio": failed / ops,
        "check.max_abs_err": max(errors, default=0.0),
    })
    for name in layers.DERIVED:
        if name.startswith("workload.") and name not in values:
            values[name] = props[name.removeprefix("workload.")]
    specs = {s["name"]: s["unit"] for s in layers.metric_specs()}
    print(f"{workload.name}  seed={args.seed}  traced  " + "  ".join(
        f"{k}={values[k]:.6g} {specs[k]}" for k in specs))
    meta = metadata(args, workload, pool, traced, props)
    meta.update({"trace_overhead_ratio": plain_rate / traced_rate, "problems": problems[:20]})
    print("meta " + json.dumps(meta, sort_keys=True))
    for p in problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    result(not problems and failed == 0, ops, failed,
           {k: {"value": values[k], "unit": specs[k]} for k in specs})
    return 0


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# metadata and the all-workload table


def metadata(args, workload, pool, phase: Phase, props) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "pool": len(pool),
        "passes": phase.passes,
        "ops": len(phase.ops),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "properties": dict(sorted(props.items())),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
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
    return "unknown"


def run_all(args) -> int:
    """Every workload in its own process; one row each, then a combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(lines[0])
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
