"""Seed-set ledger: run the CLI's seed set in two source trees and tabulate
what moved between them.

    python scripts/ledger.py --parent REV|DIR

The seed set is ``stabilize`` and ``defect`` at ``dims.matrix`` 2-4 and
seeds 3, 4, 6, ``suite`` with 10 instances at seeds 5, 9, 611 (each in
both norm modes), ``tsirelson`` on two vectors and ``clones``.  Each run is
a fresh ``python -m amnm.cli`` process on the tree's ``src``.  The child is
the tree holding this script; a parent that is not a directory is read as
a git revision of its repository and checked out in a temporary worktree.

The table gives, per command and report field (list positions folded into
``[]``), the count of floats that moved and the largest absolute and
relative move.  Every other difference is listed after it: exit codes,
stdout and stderr lines, flags, counts, strings and missing fields.  The
exit status is 0 when the two trees agree on every run and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ("spectral", "frobenius")
EMPTY = "no value moved and nothing else differs"


@dataclass(frozen=True)
class Run:
    """One CLI invocation: ``config`` (if any) is written to cfg.json and
    passed as ``--config``; every run writes its reports to its own dir."""

    name: str
    args: tuple[str, ...]
    config: dict | None = None

    @property
    def command(self) -> str:
        return self.args[0]


def seed_set() -> list[Run]:
    runs = []
    for command in ("stabilize", "defect"):
        for mode in MODES:
            for k in (2, 3, 4):
                for seed in (3, 4, 6):
                    cfg = {"schema": 1, "seed": seed, "norm_mode": mode, "dims": {"matrix": k}}
                    runs.append(Run(f"{command}-{mode}-k{k}-s{seed}", (command,), cfg))
    for mode in MODES:
        for seed in (5, 9, 611):
            cfg = {"schema": 1, "seed": seed, "norm_mode": mode, "instances": 10}
            runs.append(Run(f"suite-{mode}-s{seed}", ("suite",), cfg))
    runs.append(Run("tsirelson-a", ("tsirelson", "--vector", "[0,1,1,1]", "--schreier", "[3,4,5]")))
    runs.append(Run("tsirelson-b", ("tsirelson", "--vector", "[3,-1.5,0,2,0.25,1,0,0,4,-2]")))
    runs.append(Run("clones", ("clones", "--word", "0110", "--word", "1011", "--n", "12", "--horizon", "20")))
    return runs


@dataclass
class Outcome:
    """What a run left: exit code, output lines and every report value,
    keyed by (file, path)."""

    code: int
    stdout: list[str]
    stderr: list[str]
    values: dict[tuple[str, str], object]


def _flatten(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def _csv_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_reports(out_dir: Path) -> dict[tuple[str, str], object]:
    """Every value of the reports in ``out_dir``: JSON documents, JSON lines
    and CSV rows (numeric cells as floats)."""
    values: dict[tuple[str, str], object] = {}
    for path in sorted(out_dir.iterdir()):
        flat: dict[str, object] = {}
        if path.suffix == ".json":
            _flatten(json.loads(path.read_text()), "", flat)
        elif path.suffix == ".jsonl":
            _flatten([json.loads(line) for line in path.read_text().splitlines()], "", flat)
        elif path.suffix == ".csv":
            with open(path, newline="") as handle:
                _flatten([{k: _csv_value(v) for k, v in row.items()} for row in csv.DictReader(handle)], "", flat)
        else:
            flat[""] = path.read_bytes()
        values.update({(path.name, key): v for key, v in flat.items()})
    return values


def run_tree(tree: Path, run: Run, work: Path) -> Outcome:
    work.mkdir(parents=True)
    out_dir = work / "out"
    args = list(run.args)
    if run.config is not None:
        (work / "cfg.json").write_text(json.dumps(run.config))
        args += ["--config", str(work / "cfg.json")]
    args += ["--out", str(out_dir)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "amnm.cli", *args], cwd=work, env=env,
                          capture_output=True, text=True)
    values = read_reports(out_dir) if out_dir.is_dir() else {}
    return Outcome(proc.returncode, proc.stdout.splitlines(), proc.stderr.splitlines(), values)


def _fold(path: str) -> str:
    """The field of a report path: list positions folded into ``[]``."""
    return re.sub(r"\[\d+\]", "[]", path)


@dataclass
class Ledger:
    """Float moves per (command, field) and every other difference."""

    moves: dict[tuple[str, str], list] = field(default_factory=dict)
    diffs: list[str] = field(default_factory=list)

    def add(self, run: Run, parent: Outcome, child: Outcome) -> None:
        where = run.name
        if parent.code != child.code:
            self.diffs.append(f"{where}: exit code {parent.code} -> {child.code}")
        for stream in ("stdout", "stderr"):
            old, new = getattr(parent, stream), getattr(child, stream)
            for i in range(max(len(old), len(new))):
                a = old[i] if i < len(old) else "<none>"
                b = new[i] if i < len(new) else "<none>"
                if a != b:
                    self.diffs.append(f"{where}: {stream} line {i + 1}: {a!r} -> {b!r}")
        for key in sorted(parent.values.keys() | child.values.keys()):
            name = f"{key[0]}:{key[1]}" if key[1] else key[0]
            if key not in parent.values or key not in child.values:
                side = "parent" if key not in parent.values else "child"
                self.diffs.append(f"{where}: {name} missing in the {side}")
                continue
            a, b = parent.values[key], child.values[key]
            if isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
                stat = self.moves.setdefault((run.command, _fold(name)), [0, 0, 0.0, 0.0])
                stat[1] += 1
                if a != b:
                    gap = abs(a - b)
                    stat[0] += 1
                    stat[2] = max(stat[2], gap)
                    stat[3] = max(stat[3], gap / max(abs(a), abs(b)))
            elif type(a) is not type(b) or repr(a) != repr(b):
                kind = "flag" if isinstance(a, bool) else "count" if isinstance(a, int) else "value"
                self.diffs.append(f"{where}: {kind} {name}: {a!r} -> {b!r}")

    @property
    def empty(self) -> bool:
        return not self.diffs and not any(stat[0] for stat in self.moves.values())

    def render(self) -> str:
        rows = [(cmd, fld, f"{s[0]}/{s[1]}", f"{s[2]:.2g}", f"{s[3]:.2g}")
                for (cmd, fld), s in sorted(self.moves.items()) if s[0]]
        lines = []
        if rows:
            head = ("command", "field", "moved/values", "max abs", "max rel")
            widths = [max(len(r[i]) for r in rows + [head]) for i in range(5)]
            for row in [head] + rows:
                lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        lines += self.diffs
        return "\n".join(lines) if lines else EMPTY


def compare(parent: Path, child: Path, runs: list[Run]) -> Ledger:
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        for run in runs:
            old = run_tree(parent, run, Path(tmp) / "parent" / run.name)
            new = run_tree(child, run, Path(tmp) / "child" / run.name)
            ledger.add(run, old, new)
    return ledger


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="source tree or git revision to compare against")
    args = ap.parse_args(argv)
    runs = seed_set()
    if Path(args.parent).is_dir():
        ledger = compare(Path(args.parent).resolve(), ROOT, runs)
    else:
        with tempfile.TemporaryDirectory(prefix="ledger-tree-") as tmp:
            tree = Path(tmp) / "parent"
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree),
                            args.parent], check=True)
            try:
                ledger = compare(tree, ROOT, runs)
            finally:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)
    print(f"{len(runs)} runs")
    print(ledger.render())
    return 0 if ledger.empty else 1


if __name__ == "__main__":
    sys.exit(main())
