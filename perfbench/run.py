"""amnm benchmark: one seeded workload, measured in a closed loop.

    python3 perfbench/run.py --workload {cli,exact}
                             --seed N --seconds S --trace {0,1} [--max-ops K]

Run from the root of a checkout.  One client runs the workload's ops back to
back, in the number of whole cycles that takes nearest to S seconds (or
until K ops have run).  Every op is checked; a failed check counts against
``fail_frac``.  Op latencies are calibrated to a nominal host speed
(``calibrate.py``); the raw figures are printed too.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
five fresh processes that each import, build fixtures and run one warm-up
op, timed from spawn to exit and calibrated as the ops are.

``--trace 1`` runs every op twice, untraced and then traced, and reports the
per-layer metrics from spans recorded around calls into each ``amnm`` module
(see ``spans.py``).  The two runs of each op must give the same output:
byte-identical files for process ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from calibrate import NOMINAL_S, HostSpeed, Sampler
from workloads import ROOT, SRC, WORKLOADS, Outcome

SETUP_REPEATS = 5
# Every op kind runs at least twice: a 40 s ``cli`` run otherwise held one
# cycle whenever the host was slow, and its spread over ten runs doubled.
MIN_CYCLES = 2
WORK_ROOT = ROOT / ".bench_work"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None, help="stop after this many ops (smoke runs)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


# -- the closed loop -----------------------------------------------------------


def run_cycle(ops: list, work: Path, speed: HostSpeed | None, first_id: int, tracer=None) -> list[Outcome]:
    """Run one cycle's ops.  With ``speed``, take the kernel calls made inside
    an in-process op off its latency, and collect those of process ops."""
    outcomes = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + i
        outcome = op.run(work, first_id + i, tracer)
        if speed is not None:
            if outcome.kernel_calls:  # already taken off by the op
                speed.calls.extend(outcome.kernel_calls)
            elif outcome.timed:
                outcome.latency_s -= sum(end - start for start, end in speed.inside(*outcome.timed))
        outcomes.append(outcome)
    return outcomes


def run_loop(workload, work: Path, seconds: float, max_ops: int | None, speed: HostSpeed | None):
    """The number of whole cycles whose run time is nearest to ``seconds``,
    at least ``MIN_CYCLES``; returns the cycles' ops and their outcomes, calibrated by
    ``speed`` when it is given.  An in-process workload samples the kernel
    in this process meanwhile.

    Stopping at the nearest cycle boundary, rather than the first one past
    ``seconds``, keeps the op count of the multi-second process workloads
    from jumping with small changes in speed.
    """
    cycles, outcomes = [], []
    sampler = Sampler(speed.calls if speed is not None else None)
    sampling = speed is not None and workload.in_process
    if sampling:
        sampler.warm_up()
    start = time.perf_counter()
    with sampler if sampling else contextlib.nullcontext():
        while True:
            cycle_start = time.perf_counter()
            ops = workload.cycle(len(cycles))
            if max_ops is not None:
                ops = ops[:max_ops - len(outcomes)]
            cycles.append(ops)
            outcomes += run_cycle(ops, work, speed, len(outcomes))
            now = time.perf_counter()
            enough = max_ops is not None and len(outcomes) >= max_ops
            if enough or (len(cycles) >= MIN_CYCLES and now - start + (now - cycle_start) / 2 >= seconds):
                break
    for o in outcomes:
        o.calibrated_s = o.latency_s * (speed.factor(*o.timed) if speed is not None and o.timed else 1.0)
    return cycles, outcomes


class SetupError(Exception):
    """Set-up or its warm-up op failed; the run reports no result."""


def setup_probe(workload, work: Path) -> int:
    """Set up as a timed run would and run one warm-up op; exit code 0 iff
    the warm-up op passed its check.  Prints the kernel calls made in the
    probe, and their total time with the warm-up call's, as one JSON line:
    one call at each end, those of the op process, and, for in-process
    workloads, the sampler's in between."""
    sampler = Sampler()
    warm_s = sampler.warm_up()
    sampler.sample()
    with sampler if workload.in_process else contextlib.nullcontext():
        workload.setup()
        outcome = workload.warm_up_op().run(work, 0)
    sampler.sample()
    total_s = warm_s + sum(end - start for start, end in sampler.calls)
    if outcome.kernel_calls:  # the op process's calls, its warm-up call too
        sampler.calls += outcome.kernel_calls
        total_s += outcome.timed[1] - outcome.timed[0] - outcome.latency_s
    print(json.dumps({"kernel_calls": sampler.calls, "kernel_total_s": total_s}))
    if not outcome.ok:
        print(f"warm-up op {outcome.kind} failed: {outcome.why}", file=sys.stderr)
    return 0 if outcome.ok else 1


def probe_setup_times(args) -> tuple[list[float], float]:
    """Wall times of the set-up probes, less their kernel calls, and the
    factor that calibrates them, from the median of all their calls: a
    probe of the in-process workload holds three or four, too few to
    calibrate it alone."""
    times, speed = [], HostSpeed()
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
        doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        times.append(wall - doc["kernel_total_s"])
        speed.calls += [tuple(c) for c in doc["kernel_calls"]]
    return times, NOMINAL_S / statistics.median(speed.kernel_s)


# -- statistics ------------------------------------------------------------------


def tail_latency(by_kind: dict[str, list[float]]) -> tuple[float, str]:
    """(value, what it is): the latency of the slowest op kind at its highest
    percentile with at least ten samples beyond it.  Below 21 samples no
    percentile above the median has ten beyond it, so the kind's median
    stands in: the maximum of a few multi-second ops moves with every pause
    of the host."""
    slowest = max(by_kind, key=lambda kind: statistics.median(by_kind[kind]))
    ordered = sorted(by_kind[slowest])
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"tail at p{100.0 * (n - 10) / n:.4g} of the n={n} {slowest} ops"
    return statistics.median(ordered), f"tail as the median of the n={n} {slowest} ops (fewer than 21)"


def latency_metrics(outcomes: list[Outcome], attr: str) -> tuple[float, float, float, str]:
    """(ops_per_s, op_p50_ms, op_tail_ms, note) from the latencies in ``attr``.

    The figures combine per-kind statistics rather than pool every op: in a
    cycle of unequal ops a pooled order statistic sits on the boundary between
    two kinds, and jumps with the number of cycles that fit in a run.
    ``ops_per_s`` is the share of ops that passed times the throughput of a
    cycle of one op of each kind at its median latency; ``op_p50_ms`` is the
    geometric mean of the kind medians; ``op_tail_ms`` is the tail of the
    slowest kind (``tail_latency``).  With one kind of op they are the plain
    figures.  Latencies cover the ops that passed, or every op when none did.
    """
    passed = [o for o in outcomes if o.ok]
    by_kind: dict[str, list[float]] = {}
    for o in passed or outcomes:
        by_kind.setdefault(o.kind, []).append(getattr(o, attr))
    medians = {kind: statistics.median(v) for kind, v in by_kind.items()}
    tail, what = tail_latency(by_kind)
    ops_per_s = len(passed) / len(outcomes) * len(medians) / sum(medians.values())
    note = f"{what}; kind medians " + ", ".join(f"{kind} {1e3 * m:.4g} ms" for kind, m in medians.items())
    return ops_per_s, 1e3 * statistics.geometric_mean(medians.values()), 1e3 * tail, note


# -- the two modes -----------------------------------------------------------------


def end_to_end(args, workload, work: Path, lines: list) -> tuple[list, dict]:
    setup, setup_factor = probe_setup_times(args)
    speed = HostSpeed()
    workload.setup()
    if workload.in_process:
        workload.warm_up_op().run(work, -1)
    _, outcomes = run_loop(workload, work, args.seconds, args.max_ops, speed)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(o.rss_kb for o in outcomes)
    metrics = end_to_end_metrics(outcomes, setup, setup_factor, rss_kb, lines)
    kernel = speed.kernel_s
    if kernel:
        lines.append(f"host speed: reference kernel {1e3 * min(kernel):.4g} to {1e3 * max(kernel):.4g} ms, "
                     f"median {1e3 * statistics.median(kernel):.4g} ms over {len(kernel)} samples "
                     f"(nominal {1e3 * NOMINAL_S:g} ms)")
    return outcomes, metrics


def end_to_end_metrics(outcomes: list[Outcome], setup: list[float], setup_factor: float, rss_kb: int,
                       lines: list) -> dict:
    """The end-to-end metrics of a run, from calibrated latencies: the ops'
    and, by ``setup_factor``, the set-up probes'."""
    failed = sum(1 for o in outcomes if not o.ok)
    ops_per_s, p50_ms, tail_ms, note = latency_metrics(outcomes, "calibrated_s")
    raw = latency_metrics(outcomes, "latency_s")
    metrics = {
        "setup_s": (statistics.median(setup) * setup_factor, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }
    lines.append(f"raw (wall time): ops_per_s {raw[0]:.6g} 1/s, op_p50_ms {raw[1]:.6g} ms, "
                 f"op_tail_ms {raw[2]:.6g} ms; {raw[3]}")
    lines.append(f"setup_s: median of {len(setup)} probes, raw {[round(t, 4) for t in setup]} s, "
                 f"times {setup_factor:.4g} for host speed")
    lines.append(f"latency (calibrated): {note}")
    lines.append(f"fail_frac: {failed / len(outcomes):.6g} frac ({failed} of {len(outcomes)})")
    gaps = [g for o in outcomes for g in o.gaps]
    if gaps:
        lines.append(f"gap_p50: {spans.quantile(gaps, 0.5):.6g} ratio, "
                     f"gap_p90: {spans.quantile(gaps, 0.9):.6g} ratio (n={len(gaps)} intervals)")
    lines.extend(f"FAILED op {o.kind}: {o.why}" for o in outcomes if not o.ok)
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def per_layer(args, workload, work: Path, lines: list) -> tuple[list, dict]:
    workload.setup()
    if workload.in_process:
        workload.warm_up_op().run(work, -1)
    cycles, plain = run_loop(workload, work, args.seconds, args.max_ops, HostSpeed())
    tracer = spans.Tracer()
    if workload.in_process:
        spans.install(tracer)
    # Kernel calls inside a traced op would land in its spans, so the traced
    # pass does not sample, and the overhead compares times net of kernel
    # calls, uncalibrated: a traced process op would be calibrated by the
    # call after its command, which ran up to twice as slow as the one
    # before unless OPENBLAS_NUM_THREADS=1.
    traced = []
    for ops in cycles:
        traced += run_cycle(ops, work, None, len(traced), tracer)
    recorded = tracer.spans
    if not workload.in_process:
        recorded = []
        for o in traced:
            offset = len(recorded)
            recorded.extend([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4], s[5]] for s in o.spans)
    mismatched = 0
    for twin, o in zip(plain, traced):
        if o.outputs != twin.outputs:
            mismatched += 1
            o.ok = False
            o.why = "traced op wrote different output than the untraced op"
    wall = sum(o.latency_s for o in traced)
    overhead = wall / sum(o.latency_s for o in plain) - 1.0
    imports = [o.import_s for o in traced if o.import_s is not None]
    levels = [o.levels for o in traced if o.levels is not None]
    lines.append(f"determinism: {len(traced) - mismatched} of {len(traced)} traced ops matched their untraced twin")
    if workload.name == "cli":
        # untimed and independent of timing, so kept out of the end-to-end
        # runs, whose time it would lengthen by a fifth
        extra = [op.run(work, 9000 + k) for k, op in enumerate(workload.default_config_ops())]
        certified = [o.ok for o in plain if o.kind == "stabilize-spectral-k2"][:1] + [o.ok for o in extra]
        lines.append(f"certified_frac: {sum(certified) / len(certified):.6g} frac "
                     f"(default-config stabilize at k=2,3,4 certified: {certified}; untimed)")
    lines.append(f"spans recorded: {len(recorded)}")
    outcomes = plain + traced
    lines.extend(f"FAILED op {o.kind}: {o.why}" for o in outcomes if not o.ok)
    return outcomes, spans.layer_metrics(recorded, wall, imports, overhead, levels)


def result(outcomes: list[Outcome], metrics: dict) -> dict:
    """The last line of a run: correct only when every op passed."""
    failed = sum(1 for o in outcomes if not o.ok)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def provenance(args) -> list[str]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "unknown"
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={_version('scipy')} blas={blas.get('name')} {blas.get('version')} "
        + " ".join(f"{k}={v}" for k, v in threads.items()),
        f"commit={commit}",
    ]


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amnm" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'amnm'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.setup_probe:
            return setup_probe(workload, work)
        lines: list[str] = []
        mode = per_layer if args.trace else end_to_end
        outcomes, metrics = mode(args, workload, work, lines)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in provenance(args) + lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result(outcomes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
