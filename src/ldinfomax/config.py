"""On-disk formats: flat key-value experiment configs and CSV tables.

A config file has one ``section.key = value`` assignment per line with
``#`` comments, diff-friendly and trivially parseable; unknown keys are
rejected. Polytopes serialize as a preset name, or as ``custom`` plus
explicit domain tags and group index lists. CSV tables format every float
with :func:`format_float`, so reruns with one seed give identical bytes.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

from .datagen import ScenarioConfig
from .ica import IcaConfig
from .polytopes import PRESET_NAMES, PolytopeSpec, preset
from .solver import SolverConfig

__all__ = [
    "ExperimentConfig",
    "experiment_from_mapping",
    "experiment_to_mapping",
    "format_float",
    "load_experiment",
    "polytope_from_fields",
    "polytope_to_fields",
    "read_kv",
    "save_experiment",
    "write_csv",
    "write_kv",
    "write_trajectory_csv",
]

ALGOS = ("ld_infomax", "ica", "both")
_CUSTOM_POLYTOPE_KEYS = ("scenario.polytope.domains", "scenario.polytope.groups")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness command needs: scenario, solvers, and run plan."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    ica: IcaConfig = field(default_factory=IcaConfig)
    algo: str = "ld_infomax"
    trials: int = 10
    rho_grid: tuple = (0.0, 0.2, 0.4, 0.6)
    starts: int = 1
    output_dir: str = "out"

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if not self.rho_grid:
            raise ValueError("rho_grid must not be empty")


def format_float(x):
    """Canonical 12-significant-digit float formatting used in all outputs.

    ``None`` is written as ``none``.
    """
    if x is None:
        return "none"
    return f"{float(x):.12g}"


def write_csv(path, header, rows):
    """Write a CSV table; float cells go through :func:`format_float`."""
    lines = [",".join(header)]
    for row in rows:
        cells = (format_float(v) if isinstance(v, float) else str(v) for v in row)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trajectory_csv(state, path):
    """Write a solver state's recorded trajectory as CSV.

    Columns are ``iteration,objective`` plus ``sinr_db`` when ground truth
    was supplied to the run.
    """
    has_sinr = any(pt.sinr_db is not None for pt in state.trajectory)
    header = ("iteration", "objective") + (("sinr_db",) if has_sinr else ())
    rows = [
        (pt.iteration, pt.objective) + ((pt.sinr_db,) if has_sinr else ())
        for pt in state.trajectory
    ]
    write_csv(path, header, rows)


def read_kv(path):
    """Parse a key-value file into an ordered dict of strings."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def write_kv(path, mapping):
    """Write an ordered mapping as a key-value file."""
    lines = [f"{key} = {value}" for key, value in mapping.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def polytope_to_fields(p, prefix="scenario.polytope"):
    """Serialize a polytope as preset name or explicit custom fields."""
    for name in PRESET_NAMES:
        if p == preset(name, p.dim):
            return {prefix: name}
    fields = {prefix: "custom"}
    fields[f"{prefix}.domains"] = ", ".join(p.domains)
    fields[f"{prefix}.groups"] = "; ".join(
        " ".join(str(i) for i in g) for g in p.l1_groups
    )
    return fields


def polytope_from_fields(mapping, dim, prefix="scenario.polytope"):
    """Inverse of :func:`polytope_to_fields`."""
    name = mapping.get(prefix, "l1_nonneg")
    if name != "custom":
        return preset(name, dim)
    domains = tuple(t.strip() for t in mapping[f"{prefix}.domains"].split(",") if t.strip())
    groups_raw = mapping.get(f"{prefix}.groups", "").strip()
    groups = tuple(
        tuple(int(i) for i in chunk.split())
        for chunk in groups_raw.split(";")
        if chunk.strip()
    )
    return PolytopeSpec(len(domains), domains, groups)


def _parse_optional_float(text):
    text = text.strip().lower()
    if text in ("none", ""):
        return None
    if text == "inf":
        return math.inf
    return float(text)


def _parse_optional_int(text):
    text = text.strip().lower()
    if text in ("none", ""):
        return None
    return int(text)


def experiment_to_mapping(cfg):
    """Flatten an :class:`ExperimentConfig` into ordered key-value pairs."""
    sc, sv, ic = cfg.scenario, cfg.solver, cfg.ica
    mapping = {
        "scenario.r": str(sc.r),
        "scenario.m": str(sc.m),
        "scenario.n": str(sc.n),
        "scenario.rho": format_float(sc.rho),
        "scenario.dof": str(sc.dof),
        "scenario.snr_db": format_float(sc.snr_db),
    }
    mapping.update(polytope_to_fields(sc.polytope))
    mapping.update(
        {
            "scenario.source_mode": sc.source_mode,
            "scenario.l1_mode": sc.l1_mode,
            "scenario.seed": str(sc.seed),
            "solver.epsilon": format_float(sv.epsilon),
            "solver.mu0": format_float(sv.mu0),
            "solver.iterations": str(sv.iterations),
            "solver.schedule": sv.schedule,
            "solver.record_every": str(sv.record_every),
            "solver.init": sv.init,
            "solver.seed": str(sv.seed),
            "ica.learning_rate": format_float(ic.learning_rate),
            "ica.max_iter": str(ic.max_iter),
            "ica.tol": format_float(ic.tol),
            "ica.n_subgauss": "none" if ic.n_subgauss is None else str(ic.n_subgauss),
            "ica.seed": str(ic.seed),
            "experiment.algo": cfg.algo,
            "experiment.trials": str(cfg.trials),
            "experiment.rho_grid": ", ".join(format_float(v) for v in cfg.rho_grid),
            "experiment.starts": str(cfg.starts),
            "experiment.output_dir": cfg.output_dir,
        }
    )
    return mapping


def experiment_from_mapping(mapping):
    """Build an :class:`ExperimentConfig` from key-value pairs.

    Missing keys fall back to the dataclass defaults.

    Raises
    ------
    ValueError
        If a key is not one :func:`experiment_to_mapping` can write.
    """
    defaults = ExperimentConfig()
    known = set(experiment_to_mapping(defaults)) | set(_CUSTOM_POLYTOPE_KEYS)
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    dsc, dsv, dic = defaults.scenario, defaults.solver, defaults.ica

    def get(key, fallback):
        return mapping.get(key, fallback)

    r = int(get("scenario.r", dsc.r))
    scenario = ScenarioConfig(
        r=r,
        m=int(get("scenario.m", dsc.m)),
        n=int(get("scenario.n", dsc.n)),
        rho=float(get("scenario.rho", dsc.rho)),
        dof=int(get("scenario.dof", dsc.dof)),
        snr_db=_parse_optional_float(str(get("scenario.snr_db", dsc.snr_db))),
        polytope=polytope_from_fields(mapping, r),
        seed=int(get("scenario.seed", dsc.seed)),
        source_mode=get("scenario.source_mode", dsc.source_mode),
        l1_mode=get("scenario.l1_mode", dsc.l1_mode),
    )
    solver = SolverConfig(
        epsilon=float(get("solver.epsilon", dsv.epsilon)),
        mu0=float(get("solver.mu0", dsv.mu0)),
        iterations=int(get("solver.iterations", dsv.iterations)),
        schedule=get("solver.schedule", dsv.schedule),
        seed=int(get("solver.seed", dsv.seed)),
        record_every=int(get("solver.record_every", dsv.record_every)),
        init=get("solver.init", dsv.init),
    )
    ica = IcaConfig(
        learning_rate=float(get("ica.learning_rate", dic.learning_rate)),
        max_iter=int(get("ica.max_iter", dic.max_iter)),
        tol=float(get("ica.tol", dic.tol)),
        seed=int(get("ica.seed", dic.seed)),
        n_subgauss=_parse_optional_int(str(get("ica.n_subgauss", "none"))),
    )
    rho_grid = tuple(
        float(v) for v in str(get("experiment.rho_grid", "0, 0.2, 0.4, 0.6")).split(",")
        if v.strip()
    )
    return ExperimentConfig(
        scenario=scenario,
        solver=solver,
        ica=ica,
        algo=get("experiment.algo", defaults.algo),
        trials=int(get("experiment.trials", defaults.trials)),
        rho_grid=rho_grid,
        starts=int(get("experiment.starts", defaults.starts)),
        output_dir=get("experiment.output_dir", defaults.output_dir),
    )


def load_experiment(path):
    return experiment_from_mapping(read_kv(path))


def save_experiment(cfg, path):
    write_kv(path, experiment_to_mapping(cfg))
