"""The two workloads: their ops, inputs and correctness checks.

Every op is one call into the program and returns an ``Outcome``.  Process
ops (``cli``) start a fresh process that runs ``amnm.cli.main``
as ``python -m amnm.cli`` would (``cli_shim.py``) and time it from spawn to
exit, less the reference kernel it times for calibration; in-process ops
(``exact``) time only the calls into ``amnm``.  Checks run after the timer stops, and a failed
check makes the op count as failed.

Inputs derive from the run seed alone: cycle ``c`` of a run with seed ``s``
gives its process ops seed ``1000 * s + c``, and in-process op ``i`` derives
its seed from ``(s, i)``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_SHIM = Path(__file__).resolve().parent / "cli_shim.py"
OP_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    kind: str
    latency_s: float
    ok: bool
    why: str = ""
    gaps: list = field(default_factory=list)
    rss_kb: int = 0
    outputs: object = None  # compared between an untraced op and its traced twin
    import_s: float | None = None
    spans: list = field(default_factory=list)
    levels: int | None = None
    kernel_calls: list = field(default_factory=list)  # (start, end) of the kernel calls in the op process
    calibrated_s: float = 0.0  # latency_s at the nominal host speed
    timed: tuple = ()  # perf_counter at the start and end of the timed part


def cli_env() -> dict:
    """The op environment: the program's defaults, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k != "AMNM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


# -- process ops -----------------------------------------------------------------


def _intervals_ok(pairs) -> tuple[bool, list]:
    gaps, ok = [], True
    for lower, upper in pairs:
        ok = ok and lower <= upper
        if lower > 0:
            gaps.append(upper / lower)
    return ok, gaps


def _check_stabilize(out: Path):
    doc = json.loads((out / "stabilize_report.json").read_text())
    pairs = [(it[key]["lower"], it[key]["upper"]) for it in doc["iterates"]
             for key in ("step_norm", "def_da", "def_dd", "norm_phi")]
    pairs.append((doc["final_distance"]["lower"], doc["final_distance"]["upper"]))
    ordered, gaps = _intervals_ok(pairs)
    if not (doc["converged"] and doc["claims_satisfied"]):
        return False, "not converged or a claim failed", gaps
    return ordered, "" if ordered else "lower > upper", gaps


def _check_defect(out: Path):
    doc = json.loads((out / "defect_report.json").read_text())
    ordered, gaps = _intervals_ok((e["lower"], e["upper"]) for e in doc["estimates"].values())
    return ordered, "" if ordered else "lower > upper", gaps


def _check_suite(out: Path):
    doc = json.loads((out / "suite_report.json").read_text())
    rows = doc["rows"]
    failed = [r["id"] for r in rows if not r["passed"]]
    _, gaps = _intervals_ok((r["lhs"]["lo"], r["lhs"]["hi"]) for r in rows
                            if r["id"].startswith(("nofalsify-", "stabilize-")))
    ok = bool(rows) and doc["passed"] and not failed
    return ok, "" if ok else f"rows failed: {failed[:3]}", gaps


CHECKS = {"stabilize": _check_stabilize, "defect": _check_defect, "suite": _check_suite}


@dataclass
class CliOp:
    """One ``amnm <command> --config <file> --seed <n>`` process; traced when
    run with a tracer."""

    kind: str
    command: str
    config: dict
    seed: int

    def run(self, work: Path, op_id: int, tracer=None) -> Outcome:
        traced = tracer is not None
        tag = f"op{op_id:04d}{'t' if traced else 'u'}"
        out = work / tag
        cfg = work / f"{tag}.json"
        cfg.write_text(json.dumps(self.config))
        report = work / f"{tag}.report.json"
        cmd = [sys.executable, str(CLI_SHIM), "--report", str(report), "--op", str(op_id),
               *(["--trace"] if traced else []), "--",
               self.command, "--config", str(cfg), "--seed", str(self.seed), "--out", str(out)]
        rc, timed, rss_kb = _run_process(cmd, work / f"{tag}.log")
        result = Outcome(self.kind, timed[1] - timed[0], False, rss_kb=rss_kb, timed=timed)
        if report.exists():
            doc = json.loads(report.read_text())
            result.spans, result.import_s = doc["spans"], doc["import_s"]
            result.latency_s -= doc["kernel_total_s"]
            result.kernel_calls = [tuple(c) for c in doc["kernel_calls"]]
        if rc != 0:
            result.why = f"exit {rc}"
            return result
        try:
            result.ok, result.why, result.gaps = CHECKS[self.command](out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            result.why = f"unreadable report: {exc!r}"
        result.outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return result


def _run_process(cmd: list, log: Path) -> tuple[int, tuple, int]:
    """Run to exit; return (exit code, perf_counter at spawn and at exit,
    peak RSS in KiB)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=sink, stderr=subprocess.STDOUT, env=cli_env(), cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, (start, end), usage.ru_maxrss


# The process-op cycle after the suite: (command, norm_mode, k, gamma_norm),
# at the default budgets; the first is the default config.
CLI_CYCLE = (
    ("stabilize", "spectral", 2, 1e-3),
    ("stabilize", "frobenius", 4, 1e-3),
    ("defect", "spectral", 4, 1e-3),
)


def _cli_config(norm_mode: str, k: int, gamma: float | None = None) -> dict:
    doc = {"norm_mode": norm_mode, "dims": {"matrix": k}}
    if gamma is not None:
        doc["gamma_norm"] = gamma
    return doc


class Cli:
    """CLI processes: the suite's many short estimates and checker batteries,
    then long estimates at the default budgets; ``normest`` does ~85-90%."""

    name = "cli"
    in_process = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def warm_up_op(self) -> CliOp:
        return CliOp("stabilize-frobenius-k4", "stabilize", _cli_config("frobenius", 4, 1e-3), 1000 * self.seed + 999)

    def cycle(self, c: int) -> list:
        # Two suite ops a cycle: the suite is the slowest kind, so its median
        # is op_tail_ms, and two runs of a cycle fit in 40 s.
        seed = 1000 * self.seed + c
        suites = [CliOp("suite-10", "suite", {"instances": 10}, s) for s in (seed, seed + 500)]
        certify = [CliOp(f"{cmd}-{mode}-k{k}", cmd, _cli_config(mode, k, gamma), seed)
                   for cmd, mode, k, gamma in CLI_CYCLE]
        return [suites[0], certify[0], suites[1], *certify[1:]]

    def default_config_ops(self) -> list:
        """``amnm stabilize`` at the default config, k = 3 and 4 (k = 2 is
        in every cycle), for ``certified_frac``."""
        return [CliOp(f"default-k{k}", "stabilize", _cli_config("spectral", k), 1000 * self.seed)
                for k in (3, 4)]


# -- in-process ops ----------------------------------------------------------------


def _timed(calls):
    """Run ``calls()``; return (result, (start, end) perf_counter, exception
    or None).  An exception from the program is a failed op, not the end of
    the run."""
    start = time.perf_counter()
    try:
        return calls(), (start, time.perf_counter()), None
    except Exception as exc:
        return None, (start, time.perf_counter()), exc


def import_program() -> None:
    """Import ``amnm`` from this checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import amnm

    if Path(amnm.__file__).resolve().parent != SRC / "amnm":
        raise ImportError(f"amnm imported from {amnm.__file__}, not from {SRC}")


EXACT_CHECKS = (
    "check_two_cocycle", "check_linearization", "check_unitize_tensors",
    "check_decompose_equality", "check_average_unit_vanish", "check_preserved_by_improvement",
    "check_splitting_v1", "check_diagonal_residuals",
)


@dataclass
class IdentitiesOp:
    """The CLI scenario for M_k, its opposite with the flipped diagonal, and
    the eight criterion-1 exact identities."""

    k: int
    seed: int

    @property
    def kind(self) -> str:
        return f"identities-k{self.k}-r{self.seed % 3}"

    def run(self, work: Path, op_id: int, tracer=None) -> Outcome:
        from amnm import algebra, cli, diagonal, suites

        config = cli.RunConfig(command="stabilize", seed=self.seed, matrix_dim=self.k)

        def calls():
            inst = cli.generate_instance(config)
            sub_op = algebra.opposite(inst.embedding.sub)
            flipped = diagonal.verify_diagonal(sub_op, inst.cert.rep.flip(sub_op))
            return inst, flipped, [getattr(suites, name)("spectral", self.seed) for name in EXACT_CHECKS]

        value, timed, error = _timed(calls)
        latency = timed[1] - timed[0]
        if error is not None:
            return Outcome(self.kind, latency, False, f"raised {error!r}", timed=timed)
        inst, flipped, results = value
        failed = [r.check for r in results if not r.passed]
        if not inst.cert.valid or not flipped.valid:
            failed.append("diagonal")
        if abs(inst.gamma_norm_measured - config.gamma_norm) > 1e-12:
            failed.append("gamma_norm")
        outputs = ([(r.check, r.passed, r.lhs_hi, r.rhs_hi) for r in results]
                   + [flipped.residual_commute, flipped.residual_unit, inst.gamma_norm_measured])
        return Outcome(self.kind, latency, not failed, ",".join(failed), outputs=outputs, timed=timed)


TSIRELSON_CYCLE = (8, 16, 24, 32)
LEVELS_MAX = 16


@dataclass
class TsirelsonOp:
    """One exact norm at the given support (its own cap), plus one Schreier
    certificate on the first eight support points."""

    support: int
    seed: tuple

    @property
    def kind(self) -> str:
        return f"tsirelson-s{self.support}"

    def vector(self) -> dict:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        q = self.support
        positions = np.sort(rng.choice(np.arange(1, 2 * q + 1), size=q, replace=False))
        values = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        return {int(p): complex(v) for p, v in zip(positions, values)}

    def run(self, work: Path, op_id: int, tracer=None) -> Outcome:
        from amnm import tsirelson
        from brute import MAX_SUPPORT, tsirelson_norm_brute

        entries = self.vector()
        x = tsirelson.TsirelsonVector(entries)
        head = dict(sorted(entries.items())[:MAX_SUPPORT])
        y = tsirelson.TsirelsonVector(head)
        support = sorted(head)
        start_at = support[len(support) // 2]
        schreier = support[len(support) // 2:][:min(start_at, 4)]

        value, timed, error = _timed(lambda: (tsirelson.tsirelson_norm(x, support_cap=self.support),
                                              tsirelson.schreier_inequality(y, schreier)))
        latency = timed[1] - timed[0]
        if error is not None:
            return Outcome(self.kind, latency, False, f"raised {error!r}", timed=timed)
        norm, cert = value

        if tracer is not None:
            tracer.enabled = False
        try:
            failed = []
            moduli = [abs(v) for v in entries.values()]
            if not max(moduli) <= norm <= sum(moduli) * (1 + 1e-12):
                failed.append("sup <= norm <= l1")
            for p in (support[0], max(entries)):
                if tsirelson.tsirelson_norm(tsirelson.basis_vector(p)) != 1.0:
                    failed.append(f"basis {p}")
            levels = None
            if self.support <= LEVELS_MAX or tracer is not None:
                values = tsirelson.tsirelson_norm_levels(x, support_cap=self.support)
                levels = len(values)
                if values[-1] != norm or any(b < a for a, b in zip(values, values[1:])):
                    failed.append("levels")
            if self.support <= MAX_SUPPORT and abs(tsirelson_norm_brute(entries) - norm) > 1e-12 * norm:
                failed.append("brute force")
            if not cert.ok or abs(tsirelson_norm_brute(head) - cert.norm) > 1e-12 * cert.norm:
                failed.append("schreier")
        finally:
            if tracer is not None:
                tracer.enabled = True
        return Outcome(self.kind, latency, not failed, ",".join(failed),
                       outputs=(norm, cert.norm, cert.half_sum), levels=levels, timed=timed)


class Exact:
    """Exact computations, no estimator: the CLI scenario with its opposite
    and the exact identities (algebra construction dominates), and exact
    Tsirelson norms (the DP, under 1% of the ``cli`` workload)."""

    name = "exact"
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        import_program()

    def warm_up_op(self) -> IdentitiesOp:
        return IdentitiesOp(2, 10_000 + 100_000 * self.seed + 99_999)

    def cycle(self, c: int) -> list:
        # The identities pick their library algebra by seed mod 3, so every
        # k runs once at each residue; a kind is a (k, residue) pair.
        base = 10_000 + 100_000 * self.seed + 9 * c
        identities = [IdentitiesOp(k, base + 3 * (k - 2) + r) for k in (2, 3, 4) for r in range(3)]
        n = len(TSIRELSON_CYCLE)
        return identities + [TsirelsonOp(q, (self.seed, n * c + j)) for j, q in enumerate(TSIRELSON_CYCLE)]


WORKLOADS = {w.name: w for w in (Cli, Exact)}
