import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ledger", ROOT / "scripts" / "ledger.py")
ledger = sys.modules["ledger"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def test_seed_set_names_each_run_once():
    names = [run.name for run in ledger.seed_set()]
    assert len(names) == len(set(names)) == 46
    assert sum(name.startswith("suite-") for name in names) == 6


def test_tree_against_itself_gives_an_empty_table():
    wanted = {"stabilize-spectral-k2-s3", "stabilize-spectral-k3-s3", "defect-frobenius-k2-s4",
              "tsirelson-a", "tsirelson-b", "clones"}
    runs = [run for run in ledger.seed_set() if run.name in wanted]
    assert len(runs) == len(wanted)
    book = ledger.compare(ROOT, ROOT, runs)
    assert book.empty
    assert book.render() == ledger.EMPTY


def test_moves_and_other_differences_are_tabulated():
    run = ledger.Run("stabilize-x", ("stabilize",))
    parent = ledger.Outcome(1, ["ok"], ["delta0 = 0.25"], {
        ("r.json", "a[0].x"): 1.0, ("r.json", "a[1].x"): 2.0, ("r.json", "ok"): True,
        ("r.json", "n"): 3, ("r.json", "gone"): "s", ("r.json", "nan"): float("nan"),
    })
    child = ledger.Outcome(0, ["ok"], ["delta0 = 0.5"], {
        ("r.json", "a[0].x"): 1.0, ("r.json", "a[1].x"): 2.5, ("r.json", "ok"): False,
        ("r.json", "n"): 4, ("r.json", "nan"): float("nan"),
    })
    book = ledger.Ledger()
    book.add(run, parent, child)
    assert not book.empty
    assert book.moves == {("stabilize", "r.json:a[].x"): [1, 2, 0.5, 0.2]}
    assert book.diffs == [
        "stabilize-x: exit code 1 -> 0",
        "stabilize-x: stderr line 1: 'delta0 = 0.25' -> 'delta0 = 0.5'",
        "stabilize-x: r.json:gone missing in the child",
        "stabilize-x: count r.json:n: 3 -> 4",
        "stabilize-x: flag r.json:ok: True -> False",
    ]
    table = book.render().splitlines()
    assert table[0].split() == ["command", "field", "moved/values", "max", "abs", "max", "rel"]
    assert table[1].split() == ["stabilize", "r.json:a[].x", "1/2", "0.5", "0.2"]
