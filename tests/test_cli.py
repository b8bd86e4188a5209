import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amnm.cli import RunConfig, generate_instance, load_config, main
from amnm.errors import ConfigError
from amnm.stabilizer import L_CAP, StabilizeConfig


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "amnm.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def write_config(tmp_path, **overrides):
    doc = {"schema": 1, "seed": 7, "norm_mode": "spectral", "instances": 2, "gamma_norm": 1e-3, "L": 2.0}
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_generate_instance_deterministic():
    cfg = RunConfig(command="defect", seed=123)
    a = generate_instance(cfg, 0)
    b = generate_instance(cfg, 0)
    import numpy as np

    assert np.array_equal(a.phi.matrix, b.phi.matrix)
    c = generate_instance(cfg, 1)
    assert not np.array_equal(a.phi.matrix, c.phi.matrix)


def test_generate_instance_shares_the_scenario():
    first = generate_instance(RunConfig(command="defect", seed=1, matrix_dim=3))
    second = generate_instance(RunConfig(command="defect", seed=2, matrix_dim=3))
    assert first.algebra is second.algebra
    assert first.embedding.sub is second.embedding.sub
    assert first.cert is second.cert
    assert first.phi is not second.phi
    with pytest.raises(ValueError):
        first.cert.rep.pairs[0][0][0] = 0.0  # shared, so its legs are read-only


def test_generate_instance_gamma_norm_exact():
    cfg = RunConfig(command="defect", seed=5, gamma_norm=1e-3)
    inst = generate_instance(cfg)
    assert abs(inst.gamma_norm_measured - 1e-3) <= 1e-6 * 1e-3
    zero = generate_instance(RunConfig(command="defect", seed=5, gamma_norm=0.0))
    import numpy as np

    assert np.array_equal(zero.phi.matrix, np.eye(4))


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, "suite", None, None)  # seed mandatory
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad), "suite", 1, None)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"schema": 99, "seed": 1}))
    with pytest.raises(ConfigError):
        load_config(str(schema), "suite", None, None)
    rng = tmp_path / "range.json"
    rng.write_text(json.dumps({"seed": 1, "norm_mode": "nuclear"}))
    with pytest.raises(ConfigError):
        load_config(str(rng), "suite", None, None)
    # unreadable as JSON text, though not a JSONDecodeError
    for name, data in (("digits.json", b'{"seed": 1' + b"0" * 5000 + b"}"), ("bytes.json", b"\xff{}")):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / name), "suite", None, None)


def test_exit_code_config_error():
    assert main(["suite"]) == 2


def test_suite_exit_zero_and_report(tmp_path):
    cfg = write_config(tmp_path, instances=1)
    out = tmp_path / "r"
    assert main(["suite", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "suite_report.json").read_text())
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert all(set(r) >= {"id", "check", "passed", "lhs", "rhs", "instance_seed"} for r in doc["rows"])
    lines = (out / "suite_rows.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(doc["rows"])
    assert all(json.loads(line)["passed"] for line in lines)


def test_stabilize_command_and_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "st"
    assert main(["stabilize", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "stabilize_report.json").read_text())
    assert doc["converged"] and doc["claims_satisfied"]
    lines = (out / "iterates.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,step_norm_lo,step_norm_hi,def_da_lo,def_da_hi,claim_step,claim_defect"
    assert len(lines) >= 2


def test_stabilize_precondition_exit_one(tmp_path):
    cfg = write_config(tmp_path, gamma_norm=0.3)  # defect far above the smallness regime
    proc = run_cli(["stabilize", "--config", str(cfg), "--out", str(tmp_path / "px")])
    assert proc.returncode == 1
    assert "precondition" in proc.stderr


def test_defect_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "df"
    assert main(["defect", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "defect_report.json").read_text())
    est = doc["estimates"]
    for key in ("def", "def_da", "def_ad", "def_dd", "norm"):
        assert est[key]["lower"] <= est[key]["upper"]
    assert est["def_dd"]["lower"] <= est["def_da"]["upper"] * (1 + 1e-9)


def test_defect_lowers_survive_underflow(tmp_path):
    # Euclidean norms square the entries, which underflow below about 1e-154
    cfg = write_config(tmp_path, seed=8, norm_mode="frobenius", gamma_norm=1e-170)
    out = tmp_path / "tiny"
    assert main(["defect", "--config", str(cfg), "--out", str(out)]) == 0
    est = json.loads((out / "defect_report.json").read_text())["estimates"]
    for key in ("def", "def_da", "def_ad", "def_dd"):
        assert 0.0 < est[key]["lower"] <= est[key]["upper"]


def test_tsirelson_command(capsys):
    assert main(["tsirelson", "--vector", "[0,1,1,1]"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norm"] == 1.0
    assert main(["tsirelson", "norm", "--vector", "[0,0,1.5]", "--schreier", "[3]"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schreier"]["ok"]


def test_clones_command(capsys):
    assert main(["clones", "--word", "0110", "--word", "1010", "--n", "10", "--horizon", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["families"][0]["doubling_ok"]
    assert doc["pairs"][0]["intersection"] == doc["pairs"][0]["first_disagreement"]
    assert doc["projections"]["rank_ok"]


def test_suite_and_tsirelson_load_only_in_their_commands(tmp_path):
    # stabilize and defect processes never import the suite or Tsirelson
    # modules; the commands that need them import them and keep their exit codes
    cfg = write_config(tmp_path, instances=1)
    script = f"""
import sys
import amnm.cli
from amnm.cli import main
assert not {{"amnm.suites", "amnm.tsirelson", "amnm.perturbation"}} & set(sys.modules), sorted(sys.modules)
codes = [
    main(["tsirelson", "--vector", "[0,1,1,1]"]),
    main(["tsirelson", "--vector", "[1,2"]),
    main(["clones", "--word", "0110", "--word", "1010", "--n", "10", "--horizon", "20"]),
    main(["clones", "--word", "0x2", "--n", "5", "--horizon", "5"]),
    main(["suite", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "r")!r}]),
]
print("codes", codes)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "codes [0, 2, 0, 2, 0]"


def test_malformed_vector_exit_two(tmp_path):
    assert main(["tsirelson", "--vector", "[1,2"]) == 2
    assert main(["clones", "--n", "5"]) == 2
    assert main(["tsirelson", "--vector", "[1,2]", "--schreier", "x"]) == 2
    assert main(["tsirelson", "--vector", '["a"]']) == 2
    cfg = write_config(tmp_path, instances="x")
    assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2


# Inputs that once escaped the exit-code contract: non-finite Tsirelson
# entries, a non-string "out", a non-binary clone word, and clone sizes past
# the caps (the refusal comes before any work, so the dense projection
# matrices of a large horizon are never built).
EXIT_TWO_ARGV = [
    ["tsirelson", "--vector", "[NaN, 1]"],
    ["tsirelson", "--vector", "[Infinity]"],
    ["tsirelson", "--vector", "[1e308, 1e308]"],
    ["tsirelson", "--vector", "[1" + "0" * 400 + "]"],
    ["tsirelson", "--vector", "[1, 2]", "--schreier", "[1e400]"],
    ["clones", "--word", "0x2", "--n", "5", "--horizon", "5"],
    ["clones", "--word", "01", "--n", "5", "--horizon", "1025"],
    ["clones", "--word", "01", "--n", "65", "--horizon", "20"],
    # a repeated Schreier index; flag entries of the wrong JSON type, which
    # were once coerced (3.7 -> 3, true -> 1, "3" -> 3)
    ["tsirelson", "--vector", "[1,2,3,4]", "--schreier", "[3,3,4]"],
    ["tsirelson", "--vector", "[1,2]", "--schreier", "[3.7,4]"],
    ["tsirelson", "--vector", "[1,2]", "--schreier", "[true,4]"],
    ["tsirelson", "--vector", "[true,2]"],
    ["tsirelson", "--vector", '["3"]'],
]


def run_main(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("argv", EXIT_TWO_ARGV)
def test_bad_input_exits_two_with_one_line(argv):
    code, err = run_main(argv)
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_config_out_must_be_a_string(tmp_path):
    cfg = write_config(tmp_path, out=5)
    with pytest.raises(ConfigError):
        load_config(str(cfg), "defect", None, None)
    code, err = run_main(["defect", "--config", str(cfg)])
    assert code == 2 and err.count("\n") == 1


# Config values that loading once coerced or ignored: a wrong JSON type, a
# max_iter past the cap of 63, the undocumented "tol" alias, a misspelt key,
# an L past the cap of 1e100 (whose theorem bound overflowed), a dotted key at
# top level (once a second spelling of the nested key, which could collide
# with it); then the range checks of RunConfig.
BAD_CONFIG_VALUES = [
    {"check_claim_bounds": "false"},
    {"max_iter": 2.9},
    {"max_iter": 64},
    {"seed": 1.7},
    {"seed": True},
    {"instances": 1.5},
    {"gamma_norm": False},
    {"tol": 1e-3},
    {"max_iters": 5},
    {"L": 1e160},
    {"L": 1e105, "check_claim_bounds": False},
    {"L": 5e102, "check_claim_bounds": False},
    {"L": 1e200},
    {"dims.matrix": 3},
    {"dims.matrix": 3, "dims": {"matrix": 2}},
    {"dims": {"matrix": 0}},
    {"dims": {"matrix": 5}},
    {"gamma_norm": -0.1},
    {"gamma_norm": 1.5},
    {"instances": 0},
    {"instances": 10001},
]


@pytest.mark.parametrize("overrides", BAD_CONFIG_VALUES)
def test_bad_config_value_exits_two_with_one_line(tmp_path, overrides):
    cfg = write_config(tmp_path, **overrides)
    code, err = run_main(["defect", "--config", str(cfg), "--out", str(tmp_path / "bad")])
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, overrides", [
    ("stabilize", {"seed": 1, "L": 1e160}),
    ("suite", {"seed": 1, "instances": 1, "L": 1e200}),
])
def test_overflowing_L_exits_two(tmp_path, command, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code, err = run_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fields", [
    {"command": "norm"}, {"norm_mode": "nuclear"}, {"matrix_dim": 0}, {"matrix_dim": 5},
    {"gamma_norm": -0.1}, {"gamma_norm": 1.5}, {"instances": 0}, {"instances": 10001}, {"out": 5},
])
def test_run_config_checks_itself(fields):
    with pytest.raises(ConfigError):
        RunConfig(**{"command": "defect", "seed": 1, **fields})


def test_config_echo_loads_back(tmp_path):
    sconf = StabilizeConfig(tol=1e-9, max_iter=12, L=1.5, check_claim_bounds=False, restarts=5, sweeps=70)
    for cfg in (RunConfig(command="defect", seed=3, out=str(tmp_path)),
                RunConfig(command="suite", seed=4, norm_mode="frobenius", matrix_dim=3, gamma_norm=0.0,
                          instances=3, out=str(tmp_path), stabilize=sconf)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg.to_json_dict(), "out": cfg.out}))
        assert load_config(str(path), cfg.command, None, None) == cfg
    with pytest.raises(ConfigError):
        load_config(str(path), "stabilize", None, None)  # the echo names another command


_ARG_TEXT = st.one_of(
    st.text(max_size=10),
    st.lists(st.one_of(st.floats(), st.integers(min_value=-(10**400), max_value=10**400),
                       st.booleans(), st.none(), st.text(max_size=3)), max_size=8).map(json.dumps),
)
_WORD = st.one_of(st.text(alphabet="01", max_size=8), st.text(alphabet="01x2 ", max_size=6),
                  st.text(max_size=4))
_TSIRELSON_ARGV = st.builds(
    lambda vector, schreier: ["tsirelson", f"--vector={vector}"] + schreier,
    _ARG_TEXT, st.one_of(st.just([]), _ARG_TEXT.map(lambda t: [f"--schreier={t}"])),
)
_CLONES_ARGV = st.builds(
    lambda words, n, horizon, seed: ["clones", *(f"--word={w}" for w in words),
                                     f"--n={n}", f"--horizon={horizon}", f"--seed={seed}"],
    st.lists(_WORD, max_size=3), st.integers(-2, 70), st.integers(-2, 64), st.integers(-3, 3),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_TSIRELSON_ARGV, _CLONES_ARGV))
@example(EXIT_TWO_ARGV[0])
@example(EXIT_TWO_ARGV[1])
@example(EXIT_TWO_ARGV[5])
@example(EXIT_TWO_ARGV[6])
@example(EXIT_TWO_ARGV[7])
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    code, _ = run_main(argv)
    assert code in (0, 1, 2)


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=-(10**400), max_value=10**400),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
_CONFIG_KEYS = ("schema", "command", "norm_mode", "dims", "gamma_norm", "L", "tolerances", "tol",
                "max_iter", "restarts", "sweeps", "check_claim_bounds", "instances", "out")


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({"seed": _JSON_VALUE},
                             optional={key: _JSON_VALUE for key in _CONFIG_KEYS}),
       st.sampled_from(["stabilize", "defect", "suite"]))
@example({"schema": 1, "seed": 1, "out": 5}, "defect")
@example({"seed": 1, "check_claim_bounds": "false"}, "stabilize")
@example({"seed": 1, "max_iter": 2.9}, "stabilize")
@example({"seed": 1, "max_iter": 64}, "stabilize")
@example({"seed": 1.7}, "defect")
@example({"seed": True}, "defect")
@example({"seed": 1, "instances": 1.5}, "suite")
@example({"seed": 1, "gamma_norm": False}, "defect")
@example({"seed": 1, "tol": 1e-3}, "stabilize")
@example({"seed": 1, "max_iters": 5}, "stabilize")
@example({"seed": 1, "L": 5e102, "check_claim_bounds": False}, "stabilize")
@example({**RunConfig(command="suite", seed=2).to_json_dict(), "out": "reports"}, "suite")
def test_fuzzed_config_validated_or_refused(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        try:
            cfg = load_config(str(path), command, None, None)
        except ConfigError:
            return
    sconf = cfg.stabilize
    assert cfg.norm_mode in ("spectral", "frobenius") and 1 <= cfg.matrix_dim <= 4
    assert 0 <= cfg.gamma_norm <= 1 and 1 <= cfg.instances <= 10000
    assert isinstance(cfg.out, str) and type(cfg.seed) is int
    assert all(type(v) is int for v in (cfg.matrix_dim, cfg.instances, sconf.max_iter,
                                         sconf.restarts, sconf.sweeps))
    assert type(sconf.check_claim_bounds) is bool
    assert all(math.isfinite(v) for v in (cfg.gamma_norm, sconf.L, sconf.tol))
    assert 1 <= sconf.L <= L_CAP


# tiny estimator budgets keep an example well under a second; the
# acceptance budgets are not touched
_TINY_BUDGETS = {"restarts": 1, "sweeps": 1, "max_iter": 1, "instances": 1}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["stabilize", "defect", "suite"]),
       st.fixed_dictionaries(
           {"seed": st.integers(-2, 2**64 + 1), "dims": st.fixed_dictionaries({"matrix": st.integers(1, 4)})},
           optional={"norm_mode": st.sampled_from(["spectral", "frobenius", "unitization-composite"]),
                     "gamma_norm": st.floats(0.0, 1.0),
                     "L": st.floats(1.0, 8.0),
                     "tolerances": st.fixed_dictionaries({"stabilize_tol": st.floats(0.0, 1e-2)}),
                     "check_claim_bounds": st.booleans()}))
@example("stabilize", {"seed": 3, "dims": {"matrix": 4}})
@example("defect", {"seed": 8, "dims": {"matrix": 1}})
@example("suite", {"seed": 5, "dims": {"matrix": 2}, "norm_mode": "frobenius"})
@example("stabilize", {"seed": 0, "dims": {"matrix": 3}, "gamma_norm": 1.1125369292536007e-308})
def test_fuzzed_estimator_commands_keep_exit_code_contract(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({**doc, **_TINY_BUDGETS, "out": str(Path(tmp) / "out")}))
        code, err = run_main([command, "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
