"""What would reach another process: the exceptions, which must pickle, and
the reports, which must not depend on the CPUs the process may run on (the
program runs in one process, but BLAS may thread)."""

import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import amnm
from amnm.diagonal import NoLibraryDiagonal
from amnm.errors import ConfigError, DomainError, FalsificationError, PreconditionError
from amnm.normest import FalsificationGuard

ROOT = Path(__file__).resolve().parents[1]


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
