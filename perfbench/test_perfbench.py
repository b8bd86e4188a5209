"""Tests of the benchmark itself.

    python -m pytest perfbench -q

The smoke test runs one op of every workload in both modes; all of them
take about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from calibrate import NOMINAL_S, HostSpeed
from brute import tsirelson_norm_brute
from workloads import ROOT, CliOp, TsirelsonOp, import_program

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--max-ops", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
        assert "fail_frac: 0 frac" in proc.stdout
    else:
        assert "determinism: 1 of 1 traced ops matched" in proc.stdout


class _Refused:
    """``amnm stabilize`` at k=4 and the default gamma refuses at seed 7."""

    name = "refused"
    in_process = False

    def cycle(self, c):
        return [CliOp("default-k4", "stabilize", {"norm_mode": "spectral", "dims": {"matrix": 4}}, 7)]


def test_refused_config_counts_as_a_failed_op(tmp_path):
    _, outcomes = run.run_loop(_Refused(), tmp_path, 0, 1, None)
    assert len(outcomes) == 1
    assert not outcomes[0].ok and outcomes[0].why == "exit 1"
    lines = []
    metrics = run.end_to_end_metrics(outcomes, [1.0], 1.0, outcomes[0].rss_kb, lines)
    assert "fail_frac: 1 frac (1 of 1)" in lines
    assert metrics["ops_per_s"]["value"] == 0.0
    doc = run.result(outcomes, metrics)
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 1, 1)


def test_brute_force_known_values():
    assert tsirelson_norm_brute({5: 1.0}) == 1.0
    # k <= min E_1 allows no split of {1, 2}: the first block would need to
    # start at 2 to hold two sets, leaving one point.
    assert tsirelson_norm_brute({1: 1.0, 2: 1.0}) == 1.0
    # three singletons starting at 3 are admissible: (1 + 1 + 1) / 2
    assert tsirelson_norm_brute({3: 1.0, 4: 1.0, 5: 1.0}) == 1.5


def test_brute_force_agrees_with_the_program(tmp_path):
    import_program()
    from amnm.tsirelson import TsirelsonVector, tsirelson_norm

    for i in range(20):
        entries = TsirelsonOp(8, (11, i)).vector()
        assert tsirelson_norm_brute(entries) == pytest.approx(tsirelson_norm(TsirelsonVector(entries)), rel=1e-12)


def test_without_program_source_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_uses_the_calls_inside_an_op_or_else_the_nearest():
    speed = HostSpeed()
    # five calls of 16 ms inside [10, 11]; slow calls far away
    speed.calls = [(10.0 + 0.2 * i, 10.016 + 0.2 * i) for i in range(5)] + [(50.0 + i, 50.1 + i) for i in range(5)]
    assert speed.factor(10.0, 11.0) == pytest.approx(NOMINAL_S / 0.016)
    # a short op near the fast calls takes the five nearest, not the slow ones
    assert speed.factor(11.05, 11.1) == pytest.approx(NOMINAL_S / 0.016)
    assert HostSpeed().factor(0.0, 1.0) == 1.0
