import contextlib
import importlib
import inspect
import io
import json
import os
import pickle
import pkgutil
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import amnm
from amnm import cli, parallel
from amnm.diagonal import NoLibraryDiagonal
from amnm.errors import ConfigError, DomainError, FalsificationError, PreconditionError
from amnm.normest import FalsificationGuard

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def two_cpus(monkeypatch):
    """One helper beside the caller, whatever this host's CPU count."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(exc):
    raise exc


def _after_sleep(seconds, value):
    time.sleep(seconds)
    if isinstance(value, BaseException):
        raise value
    return value


# -- exceptions cross a process boundary --------------------------------------------


SAMPLE_EXCEPTIONS = [
    DomainError("outside the domain"),
    ConfigError("bad config"),
    PreconditionError("refused"),
    FalsificationError("falsified"),
    FalsificationGuard(2.5, 1.0),
    NoLibraryDiagonal("no library diagonal for M"),
]


def test_every_exception_class_is_sampled():
    defined = set()
    for info in pkgutil.iter_modules(amnm.__path__):
        module = importlib.import_module(f"amnm.{info.name}")
        defined |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException) and cls.__module__.startswith("amnm.")}
    assert defined == {type(exc) for exc in SAMPLE_EXCEPTIONS}


@pytest.mark.parametrize("exc", SAMPLE_EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_exceptions_round_trip_through_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)


def _meet(arrivals: Path, count: int = 2) -> None:
    """Wait until ``count`` units have arrived, so that they run at the same
    time, in as many processes."""
    with open(arrivals, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    deadline = time.monotonic() + 30
    while len(arrivals.read_text().split()) < count and time.monotonic() < deadline:
        time.sleep(0.005)


def test_a_helpers_exception_reaches_the_caller(two_cpus, tmp_path):
    caller = os.getpid()

    def unit():
        _meet(tmp_path / "arrivals")
        if os.getpid() != caller:
            raise FalsificationGuard(2.5, 1.0)
        return "caller"

    with pytest.raises(FalsificationGuard) as info:
        parallel.run_all([unit, unit])
    assert str(info.value) == "certified lower 2.5 exceeds certified upper 1.0"
    assert len(set((tmp_path / "arrivals").read_text().split())) == 2
    assert_no_children()


def test_the_units_of_a_dead_helper_run_in_the_caller(two_cpus, tmp_path):
    caller = os.getpid()

    def unit():
        _meet(tmp_path / "arrivals")
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return os.getpid()

    assert parallel.run_all([unit, unit]) == [caller, caller]
    assert_no_children()


def test_cli_exit_code_of_a_failing_estimate_does_not_depend_on_cpus(monkeypatch, tmp_path):
    # every defect estimate raises, so the lowest-index failure is the one reported
    def guarded(*args, seed, **kwargs):
        raise FalsificationGuard(float(seed), 0.0)

    monkeypatch.setattr(cli, "defect", guarded)
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_cpus", lambda: cpus)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["defect", "--seed", "40", "--out", str(tmp_path / f"cpus{cpus}")])
        outcomes.append((code, err.getvalue()))
    # "def" is the first defect estimate, seeded with slot 1 of seed 40
    first = float((40 << 8) + 1)
    assert outcomes[0] == outcomes[1] == (1, f"falsified: certified lower {first} exceeds certified upper 0.0\n")
    assert_no_children()


# -- helper hygiene ------------------------------------------------------------------


def test_results_come_back_in_unit_order_and_bit_identical(two_cpus):
    arrays = [np.random.default_rng(i).standard_normal(5) / 3.0 for i in range(7)]
    got = parallel.run_all([partial(np.copy, a) for a in arrays])
    assert all(g.tobytes() == a.tobytes() for g, a in zip(got, arrays))
    assert_no_children()


def test_lowest_index_failure_wins(two_cpus):
    # unit 1 fails first in time, unit 0 later; the plain loop raises unit 0's
    units = [partial(_after_sleep, 0.3, ValueError("0")), partial(_raise, ValueError("1")),
             partial(_raise, ValueError("2"))]
    with pytest.raises(ValueError, match="^0$"):
        parallel.run_all(units)
    assert_no_children()


def test_no_child_remains_after_the_callers_unit_raises(two_cpus):
    caller = os.getpid()

    def unit():
        if os.getpid() == caller:
            raise PreconditionError("caller")
        return _after_sleep(0.2, "helper")

    with pytest.raises(PreconditionError, match="caller"):
        parallel.run_all([unit, unit, unit])
    assert_no_children()


def test_an_interrupted_caller_kills_its_helpers(two_cpus):
    caller = os.getpid()

    def unit():
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.run_all([unit, unit])
    assert time.monotonic() - start < 30
    assert_no_children()


def test_a_failure_stops_the_hand_out(two_cpus, tmp_path):
    ran = tmp_path / "ran"

    def later():
        time.sleep(0.05)
        with open(ran, "a") as handle:
            handle.write("x")

    with pytest.raises(ValueError):
        parallel.run_all([partial(_raise, ValueError("0"))] + [later] * 20)
    # only a unit taken before the failure may still have run
    assert not ran.exists() or len(ran.read_text()) <= 1
    assert_no_children()


def test_nested_calls_run_in_the_units_own_process(two_cpus):
    # a forked helper would take the inner getpid units while the first sleeps
    def unit():
        return os.getpid(), parallel.run_all([partial(_after_sleep, 0.1, None), os.getpid, os.getpid])

    outer = parallel.run_all([partial(_after_sleep, 0.2, None), unit, unit, unit])
    for pid, inner in outer[1:]:
        assert inner == [None, pid, pid]
    assert_no_children()


def test_one_cpu_forks_nothing(monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs os.sched_getaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", partial(_raise, AssertionError("forked")))
    assert parallel.run_all([os.getpid] * 4) == [os.getpid()] * 4


def test_helpers_leave_without_running_the_callers_cleanup(two_cpus, tmp_path):
    # a helper that returned through the caller's frames would run this
    # finally a second time
    marks = tmp_path / "marks"
    try:
        parallel.run_all([partial(_after_sleep, 0.05, i) for i in range(6)])
    finally:
        with open(marks, "a") as handle:
            handle.write(f"{os.getpid()}\n")
    assert marks.read_text().split() == [str(os.getpid())]


# -- reports do not depend on the CPU count ---------------------------------------------


def _cli_outputs(tmp_path: Path, tag: str, cpus: set | None, command: str, config: dict) -> dict:
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / tag
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "amnm.cli", command, "--config", str(cfg), "--out", str(out)],
        capture_output=True, env=env, timeout=300,
        preexec_fn=None if cpus is None else partial(os.sched_setaffinity, 0, cpus),
    )
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


RUNS = [
    ("suite", {"seed": 5, "instances": 4}),
    ("suite", {"seed": 9, "instances": 4, "norm_mode": "frobenius"}),
    ("defect", {"seed": 8, "dims": {"matrix": 2}}),
    ("defect", {"seed": 8, "dims": {"matrix": 3}}),
    ("defect", {"seed": 8, "dims": {"matrix": 4}}),
    ("stabilize", {"seed": 3, "dims": {"matrix": 2}}),
    ("stabilize", {"seed": 7, "dims": {"matrix": 4}, "norm_mode": "frobenius"}),
]


@pytest.mark.parametrize("command,config", RUNS, ids=[f"{c}-{i}" for i, (c, _) in enumerate(RUNS)])
def test_reports_do_not_depend_on_the_cpu_count(tmp_path, command, config):
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs and os.sched_setaffinity")
    one = _cli_outputs(tmp_path, "one", {min(os.sched_getaffinity(0))}, command, config)
    every = _cli_outputs(tmp_path, "every", None, command, config)
    assert one["code"] == 0, one["stderr"]
    assert one == every

