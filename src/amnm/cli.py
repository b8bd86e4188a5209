"""Experiment harness: seeded instance generation, suites, reports.

Commands (single JSON config file plus flag overrides):

    amnm stabilize --config cfg.json [--seed N] [--out DIR]
    amnm defect    --config cfg.json [--seed N] [--out DIR]
    amnm suite     --config cfg.json [--seed N] [--out DIR]
    amnm tsirelson [norm] --vector '[1,0,2]' [--schreier '[3,4,5]']
    amnm clones --word 0110 [--word 1011 ...] --n 12 --horizon 20

Exit codes: 0 all assertions passed, 1 falsification / non-convergence /
refused precondition, 2 configuration error.  Reports are byte-identical
for identical (config, seed) because every row derives its randomness from
(seed, instance index) and rows are assembled in key order.

Every command runs in one process.  ``suite`` runs each check with a
searched estimate once over all its instances, with their estimates stacked
(``multilinear.multilinear_norms``): most of them prove their claim in the
brief cheap stage, where a stack of N costs little more than one.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .algebra import Algebra, Embedding
from .diagonal import DiagonalCert, _scenario
from .errors import ConfigError, DomainError, FalsificationError, PreconditionError
from .jsonio import dumps, write_json
from .multilinear import LinearMap, defect, linear_map_norm, unit_killing_perturbation
from .rng import stream
from .stabilizer import CSV_COLUMNS, SeedCounter, StabilizeConfig, stabilize

SCHEMA_VERSION = 1
# Random streams key on the seed mod 2**64.  ``stabilize`` and ``defect`` seed
# their estimates from ``SeedCounter`` slots and the suite adds offsets below
# 20000 to the seed, so below 2**48 no two seeds share a stream key by
# wrapping; ``clones`` takes its seed as it is, in the same range.
SEED_LIMIT = 2**48
CLONES_MAX_N = 64
CLONES_MAX_HORIZON = 1024


@dataclass
class RunConfig:
    """Resolved configuration for a command run; ``stabilize`` holds the
    stabilize settings, whose seed each run sets from ``seed``."""

    command: str
    seed: int
    norm_mode: str = "spectral"
    matrix_dim: int = 2
    gamma_norm: float = 1e-3
    instances: int = 10
    out: str = "reports"
    stabilize: StabilizeConfig = field(default_factory=StabilizeConfig)

    def __post_init__(self):
        if self.command not in ("stabilize", "defect", "suite", "tsirelson", "clones"):
            raise ConfigError(f"unknown command {self.command!r}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed must lie in [0, 2**48)")
        if self.norm_mode not in ("spectral", "frobenius"):
            raise ConfigError("norm_mode must be 'spectral' or 'frobenius'")
        if not (1 <= self.matrix_dim <= 4):
            raise ConfigError("matrix_dim must be between 1 and 4")
        if not (0.0 <= self.gamma_norm <= 1.0):
            raise ConfigError("gamma_norm must lie in [0, 1]")
        if not (1 <= self.instances <= 10000):
            raise ConfigError("instances out of range")
        if not isinstance(self.out, str):
            raise ConfigError("out must be a string")

    def to_json_dict(self) -> dict:
        """The config echo of every report: every key but ``out``, so a
        report does not depend on where it was written."""
        doc = {"schema": SCHEMA_VERSION, "command": self.command}
        for key, (owner, name, _) in CONFIG_KEYS.items():
            if key != "out":
                section, _, leaf = key.rpartition(".")
                holder = self.stabilize if owner is StabilizeConfig else self
                (doc.setdefault(section, {}) if section else doc)[leaf] = getattr(holder, name)
        return doc


# Every key a config document may hold besides "schema" and "command":
# dotted path -> (dataclass, field, JSON type).  The defaults and range
# checks are the dataclasses' own.
CONFIG_KEYS = {
    "seed": (RunConfig, "seed", int),
    "norm_mode": (RunConfig, "norm_mode", str),
    "dims.matrix": (RunConfig, "matrix_dim", int),
    "gamma_norm": (RunConfig, "gamma_norm", float),
    "L": (StabilizeConfig, "L", float),
    "tolerances.stabilize_tol": (StabilizeConfig, "tol", float),
    "max_iter": (StabilizeConfig, "max_iter", int),
    "restarts": (StabilizeConfig, "restarts", int),
    "sweeps": (StabilizeConfig, "sweeps", int),
    "check_claim_bounds": (StabilizeConfig, "check_claim_bounds", bool),
    "instances": (RunConfig, "instances", int),
    "out": (RunConfig, "out", str),
}
_SECTIONS = {key.split(".")[0] for key in CONFIG_KEYS if "." in key}
_JSON_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _checked(key: str, value, kind: type):
    """``value`` if it has the JSON type ``kind`` (a number may be an
    integer; a boolean is neither), else ConfigError."""
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"{key} is out of range") from exc
    if type(value) is not kind:
        raise ConfigError(f"{key} must be {_JSON_TYPE_NAMES[kind]}, not {json.dumps(value)}")
    return value


def load_config(path: str | None, command: str, seed_flag: int | None, out_flag: str | None) -> RunConfig:
    doc: dict = {}
    if path is not None:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
    schema = doc.pop("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {json.dumps(schema)}")
    # a report's config echo names its command, which must be this run's
    echoed = doc.pop("command", command)
    if echoed != command:
        raise ConfigError(f"config is for command {json.dumps(echoed)}, not {command!r}")
    leaves = []
    for key, value in doc.items():
        if "." in key:
            raise ConfigError(f"config key {key!r} must be nested, not dotted")
        if key not in _SECTIONS:
            leaves.append((key, value))
        elif isinstance(value, dict):
            leaves += [(f"{key}.{leaf}", v) for leaf, v in value.items()]
        else:
            raise ConfigError(f"{key} must be a JSON object")
    values: dict = {RunConfig: {}, StabilizeConfig: {}}
    for key, value in leaves:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        owner, name, kind = CONFIG_KEYS[key]
        values[owner][name] = _checked(key, value, kind)
    run = values[RunConfig]
    if seed_flag is not None:
        run["seed"] = seed_flag
    if out_flag is not None:
        run["out"] = out_flag
    if "seed" not in run:
        raise ConfigError("a seed is mandatory (config 'seed' or --seed)")
    return RunConfig(command=command, stabilize=StabilizeConfig(**values[StabilizeConfig]), **run)


@dataclass
class Instance:
    algebra: Algebra
    embedding: Embedding
    cert: DiagonalCert
    phi: LinearMap
    gamma_norm_measured: float


def generate_instance(config: RunConfig, index: int = 0) -> Instance:
    """Seeded scenario: library algebra, diagonal subalgebra with its
    diagonal, and a unit-preserving perturbation of the identity.

    The algebras, embedding and diagonal are shared by every instance with
    the same ``matrix_dim`` and ``norm_mode``; only the perturbation gamma is
    drawn per instance.  It kills the unit (gamma(1) = 0) and its
    coefficient matrix is rescaled so the largest singular value equals
    ``gamma_norm`` exactly; fully deterministic in (seed, index).
    """
    a, emb, cert = _scenario(config.matrix_dim, config.norm_mode)
    gamma = unit_killing_perturbation(a, stream(config.seed, index, 1), config.gamma_norm)
    measured = float(np.linalg.svd(gamma, compute_uv=False)[0])
    phi = LinearMap(a, a, np.eye(a.dim, dtype=complex) + gamma)
    return Instance(a, emb, cert, phi, measured)


# -- commands -----------------------------------------------------------------


def _ensure_out(path: str) -> Path:
    """The output directory, made before any work."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_stabilize(cfg: RunConfig) -> int:
    out = _ensure_out(cfg.out)
    inst = generate_instance(cfg)
    report = stabilize(inst.phi, inst.embedding, inst.cert, replace(cfg.stabilize, seed=cfg.seed))
    doc = {"schema": SCHEMA_VERSION, "config": cfg.to_json_dict()}
    doc.update(report.to_json_dict())
    write_json(out / "stabilize_report.json", doc)
    with open(out / "iterates.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in report.csv_rows():
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    ok = report.converged and report.all_claims_ok
    print(f"stabilize: converged={report.converged} iterations={len(report.iterates)} "
          f"claims={report.all_claims_ok} distance=[{report.total_distance.lower:.3e}, "
          f"{report.total_distance.upper:.3e}] bound={report.theorem_bound:.3e}")
    return 0 if ok else 1


def cmd_defect(cfg: RunConfig) -> int:
    out = _ensure_out(cfg.out)
    inst = generate_instance(cfg)
    emb = inst.embedding
    # no estimate has a claim, so each may end once upper <= F * lower
    budget = {"restarts": cfg.stabilize.restarts, "sweeps": cfg.stabilize.sweeps}
    # estimate n, in report order, takes seed slot n of the run
    counter = SeedCounter(cfg.seed)
    slots = {"def": {}, "def_da": {"left": emb}, "def_ad": {"right": emb}, "def_dd": {"left": emb, "right": emb}}
    rows = {key: defect(inst.phi, seed=counter.next(), **restrict, **budget) for key, restrict in slots.items()}
    rows["norm"] = linear_map_norm(inst.phi, seed=counter.next(), **budget)
    doc = {
        "schema": SCHEMA_VERSION,
        "config": cfg.to_json_dict(),
        "gamma_norm_measured": inst.gamma_norm_measured,
        # each estimate states the F of its bracket
        "estimates": {k: {**v.to_json_dict(), "bracket_factor": v.factor} for k, v in rows.items()},
    }
    write_json(out / "defect_report.json", doc)
    print("defect:", ", ".join(f"{k}=[{v.lower:.6e}, {v.upper:.6e}]" for k, v in rows.items()))
    return 0


def cmd_suite(cfg: RunConfig) -> int:
    from . import suites

    out = _ensure_out(cfg.out)
    flat = suites.suite_rows(cfg)
    passed = all(r["passed"] for r in flat)
    doc = {
        "schema": SCHEMA_VERSION,
        "config": cfg.to_json_dict(),
        "rows": flat,
        "passed": passed,
        "total": len(flat),
        "failures": sum(1 for r in flat if not r["passed"]),
    }
    write_json(out / "suite_report.json", doc)
    with open(out / "suite_rows.jsonl", "w") as handle:
        for row in flat:
            handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
            handle.write("\n")
    proved = sum(1 for r in flat if r["proved"])
    print(f"suite: {len(flat) - doc['failures']}/{len(flat)} rows passed, {proved} proved")
    if not passed:
        for r in flat:
            if not r["passed"]:
                print(f"  FAILED {r['id']} ({r['check']})")
    return 0 if passed else 1


def _json_array(flag: str, text: str, kind: type) -> list:
    """Entries of a JSON array flag, each of the JSON type ``kind`` as
    ``_checked`` reads it: a number is an integer or a float, never a
    boolean or a string, and comes back as a float."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{flag} must be a JSON array: {exc}") from exc
    if not isinstance(values, list):
        raise ConfigError(f"{flag} must be a JSON array")
    return [_checked(f"{flag} entry", v, kind) for v in values]


def cmd_tsirelson(args: argparse.Namespace) -> int:
    from .tsirelson import TsirelsonVector, schreier_inequality, tsirelson_norm_levels

    if args.vector is None:
        raise ConfigError("--vector is required")
    vec = TsirelsonVector.from_dense(_json_array("--vector", args.vector, float))
    out = _ensure_out(args.out) if args.out else None
    levels = tsirelson_norm_levels(vec)
    doc = {
        "schema": SCHEMA_VERSION,
        "norm": levels[-1],
        "levels": levels,
        "stabilized_at": len(levels) - 1,
        "support": vec.support,
    }
    if args.schreier is not None:
        indices = _json_array("--schreier", args.schreier, int)
        cert = schreier_inequality(vec, indices)
        doc["schreier"] = {"J": sorted(indices), "norm": cert.norm,
                           "half_sum": cert.half_sum, "ok": cert.ok}
    if out:
        write_json(out / "tsirelson_report.json", doc)
    print(dumps(doc))
    return 0


def cmd_clones(args: argparse.Namespace) -> int:
    from .tsirelson import clone_family, clone_system_verify, intersection_size, interval_schreier_report

    words = args.word or []
    if not words:
        raise ConfigError("at least one --word is required")
    n, horizon = args.n, args.horizon
    if n < 1 or horizon < 1:
        raise ConfigError("--n and --horizon must be positive")
    # the projection check holds a dense horizon x horizon matrix per word,
    # and a family holds n integers of up to n bits
    if n > CLONES_MAX_N or horizon > CLONES_MAX_HORIZON:
        raise ConfigError(f"--n is capped at {CLONES_MAX_N} and --horizon at {CLONES_MAX_HORIZON}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise ConfigError("--seed must lie in [0, 2**48)")
    out = _ensure_out(args.out) if args.out else None
    families = [clone_family(w, n) for w in words]
    fam_docs = []
    for w, fam in zip(words, families):
        gaps = interval_schreier_report(fam, horizon)
        fam_docs.append({
            "word": w,
            "terms": fam.terms,
            "gaps_in_horizon": [[lo, hi] for lo, hi in gaps],
        })
    pair_docs = []
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            rep = intersection_size(words[i], words[j], n)
            pair_docs.append({
                "pair": [words[i], words[j]],
                "intersection": rep.count,
                "first_disagreement": rep.first_disagreement,
                "identical_within_horizon": rep.identical_within_horizon,
            })
    system = clone_system_verify(families, horizon, seed=args.seed)
    doc = {
        "schema": SCHEMA_VERSION,
        "families": fam_docs,
        "pairs": pair_docs,
        "projections": {
            "idempotent_ok": system.idempotent_ok,
            "contractive_ok": system.contractive_ok,
            "attains_one_ok": system.attains_one_ok,
            "rank_ok": system.rank_ok,
            "checked_pairs": system.checked_pairs,
        },
    }
    if out:
        write_json(out / "clones_report.json", doc)
    print(dumps(doc))
    return 0 if system.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amnm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("stabilize", "defect", "suite"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    pt = sub.add_parser("tsirelson")
    pt.add_argument("action", nargs="?", default="norm", choices=["norm"])
    pt.add_argument("--vector", default=None)
    pt.add_argument("--schreier", default=None)
    pt.add_argument("--out", default=None)
    pc = sub.add_parser("clones")
    pc.add_argument("--word", action="append")
    pc.add_argument("--n", type=int, default=12)
    pc.add_argument("--horizon", type=int, default=20)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "tsirelson":
            return cmd_tsirelson(args)
        if args.command == "clones":
            return cmd_clones(args)
        cfg = load_config(args.config, args.command, args.seed, args.out)
        if args.command == "stabilize":
            return cmd_stabilize(cfg)
        if args.command == "defect":
            return cmd_defect(cfg)
        return cmd_suite(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 1
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"configuration error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
