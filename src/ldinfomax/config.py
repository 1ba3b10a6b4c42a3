"""On-disk formats: flat key-value experiment configs and CSV tables.

A config file has one ``section.key = value`` assignment per line with
``#`` comments, diff-friendly and trivially parseable. The keys are the
fields of the config dataclasses in declaration order, each value parsed by
its field's type; unknown keys are rejected. Polytopes serialize as a
preset name, or as ``custom`` plus explicit domain tags and group index
lists. CSV tables format every float with :func:`format_float`, so reruns
with one seed give identical bytes.
"""

import csv
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .datagen import ScenarioConfig, _check_rho
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
    output_dir: str = "out"

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.rho_grid:
            raise ValueError("rho_grid must not be empty")
        for rho in self.rho_grid:
            _check_rho(self.scenario.r, rho)


def format_float(x):
    """Canonical 12-significant-digit float formatting used in all outputs.

    ``None`` is written as ``none``.
    """
    if x is None:
        return "none"
    return f"{float(x):.12g}"


def write_csv(path, header, rows):
    """Write a CSV table; float cells go through :func:`format_float`.

    Cells holding a comma, a quote or a newline are quoted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(format_float(v) if isinstance(v, float) else v for v in row)


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
    out = {prefix: "custom"}
    out[f"{prefix}.domains"] = ", ".join(p.domains)
    out[f"{prefix}.groups"] = "; ".join(
        " ".join(str(i) for i in g) for g in p.l1_groups
    )
    return out


def polytope_from_fields(mapping, dim, prefix="scenario.polytope"):
    """Inverse of :func:`polytope_to_fields`."""
    name = mapping[prefix]
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


def _section_items(obj):
    """(field name, type hint, value) of each field of a config dataclass."""
    hints = typing.get_type_hints(type(obj))
    return [(f.name, hints[f.name], getattr(obj, f.name)) for f in fields(obj)]


def _value_type(hint):
    """The type of a field hint without ``None``, and whether ``None`` is allowed."""
    args = typing.get_args(hint)
    if type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return hint, False


def _format_value(value, hint):
    kind, _ = _value_type(hint)
    if kind is tuple:
        return ", ".join(format_float(v) for v in value)
    if kind is float or value is None:
        return format_float(value)
    return str(value)


def _parse_value(text, hint):
    """Parse a config value as an int, float, str or tuple of floats field.

    Other field types need a case here; ``bool("false")``, for one, is true.
    """
    kind, optional = _value_type(hint)
    if optional and text.strip().lower() in ("none", ""):
        return None
    if kind is tuple:
        return tuple(float(v) for v in text.split(",") if v.strip())
    return kind(text)


def _sections(cfg):
    """(key prefix, section) pairs: each nested config, then the experiment."""
    nested = [(name, value) for name, _, value in _section_items(cfg) if is_dataclass(value)]
    return nested + [("experiment", cfg)]


def experiment_to_mapping(cfg):
    """Flatten an :class:`ExperimentConfig` into ordered key-value pairs.

    Keys are ``section.field`` in field declaration order.
    """
    mapping = {}
    for prefix, section in _sections(cfg):
        for name, hint, value in _section_items(section):
            key = f"{prefix}.{name}"
            if hint is PolytopeSpec:
                mapping.update(polytope_to_fields(value, key))
            elif not is_dataclass(value):
                mapping[key] = _format_value(value, hint)
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
    kwargs = {}
    for prefix, section in _sections(defaults):
        values = {}
        for name, hint, value in _section_items(section):
            key = f"{prefix}.{name}"
            if hint is PolytopeSpec:
                given = {**polytope_to_fields(value, key), **mapping}
                values[name] = polytope_from_fields(given, values["r"], key)
            elif is_dataclass(value):
                values[name] = kwargs[name]
            else:
                values[name] = _parse_value(mapping[key], hint) if key in mapping else value
        kwargs[prefix] = type(section)(**values)
    return kwargs["experiment"]


def load_experiment(path):
    return experiment_from_mapping(read_kv(path))


def save_experiment(cfg, path):
    write_kv(path, experiment_to_mapping(cfg))
