"""On-disk formats: flat key-value experiment configs and CSV tables.

A config file has one ``section.key = value`` assignment per line with
``#`` comments, diff-friendly and trivially parseable. The keys are the
fields of the config dataclasses in declaration order, each value parsed by
its field's type; errors name the file, line and key. Polytopes serialize as
a preset name, or as ``custom`` plus explicit domain tags and group index
lists. CSV tables format every float with :func:`format_float`, so reruns
with one seed give identical bytes.
"""

import csv
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .datagen import ScenarioConfig, _check_rho
from .ica import IcaConfig
from .polytopes import PRESET_NAMES, PolytopeSpec, preset
from .solver import SolverConfig

__all__ = [
    "ExperimentConfig",
    "format_float",
    "load_experiment",
    "save_experiment",
    "write_csv",
    "write_trajectory_csv",
]

ALGOS = ("ld_infomax", "ica", "both")
_POLYTOPE = "scenario.polytope"
_CUSTOM_POLYTOPE_KEYS = (f"{_POLYTOPE}.domains", f"{_POLYTOPE}.groups")


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


class _BadValue(ValueError):
    """A config entry the reader rejects; ``args`` are its key and the reason."""


def _parse(mapping, key, parse, *args):
    """``parse(mapping[key], *args)``, whose ``ValueError`` becomes a :class:`_BadValue` of ``key``."""
    try:
        return parse(mapping[key], *args)
    except ValueError as exc:
        raise _BadValue(key, str(exc)) from None


def _polytope_to_fields(p):
    """Serialize a polytope as preset name or explicit custom fields."""
    for name in PRESET_NAMES:
        if p == preset(name, p.dim):
            return {_POLYTOPE: name}
    domains, groups = _CUSTOM_POLYTOPE_KEYS
    return {
        _POLYTOPE: "custom",
        domains: ", ".join(p.domains),
        groups: "; ".join(" ".join(str(i) for i in g) for g in p.l1_groups),
    }


def _custom_polytope(domains, groups=""):
    """The polytope of the custom fields' texts."""
    tags = tuple(t.strip() for t in domains.split(",") if t.strip())
    index_lists = tuple(tuple(int(i) for i in g.split()) for g in groups.split(";") if g.strip())
    return PolytopeSpec(len(tags), tags, index_lists)


def _polytope_from_fields(mapping, dim):
    """Inverse of :func:`_polytope_to_fields`, a preset at dimension ``dim``."""
    domains, groups = _CUSTOM_POLYTOPE_KEYS
    name = mapping[_POLYTOPE]
    if name != "custom":
        for key in _CUSTOM_POLYTOPE_KEYS:
            if key in mapping:
                raise _BadValue(key, f"is read only when {_POLYTOPE} = custom")
        if name not in PRESET_NAMES:
            raise _BadValue(_POLYTOPE, f"expected custom or one of {PRESET_NAMES}, got {name!r}")
        return preset(name, dim)
    if domains not in mapping:
        raise _BadValue(_POLYTOPE, f"custom needs {domains}")
    p = _parse(mapping, domains, _custom_polytope)  # so that a bad tag names its own line
    if groups in mapping:
        p = _parse(mapping, groups, lambda text: _custom_polytope(mapping[domains], text))
    return p


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
    try:
        if kind is tuple:
            return tuple(float(v) for v in text.split(",") if v.strip())
        return kind(text)
    except ValueError:
        expected = "comma-separated floats" if kind is tuple else kind.__name__
        raise ValueError(f"expected {expected}, got {text!r}") from None


def _experiment_to_mapping(cfg, section="experiment"):
    """Flatten a config into ``section.field`` key-value pairs in declaration order;
    a nested config's fields take its field name as their section, so ``scenario.*``,
    ``solver.*`` and ``ica.*`` come before ``experiment.*``."""
    mapping = {}
    for name, hint, value in _section_items(cfg):
        if hint is PolytopeSpec:
            mapping.update(_polytope_to_fields(value))
        elif is_dataclass(value):
            mapping.update(_experiment_to_mapping(value, name))
        else:
            mapping[f"{section}.{name}"] = _format_value(value, hint)
    return mapping


def _experiment_from_mapping(mapping, cfg, section="experiment"):
    """``cfg`` with the values ``mapping`` gives for its keys, the inverse of
    :func:`_experiment_to_mapping`; raises :class:`_BadValue` naming a key whose
    value its field cannot take, or that the dataclass rejects on its own for
    the reason it rejects them all."""
    values = {}
    for name, hint, value in _section_items(cfg):
        key = f"{section}.{name}"
        if hint is PolytopeSpec:
            given = {**_polytope_to_fields(value), **mapping}
            values[name] = _polytope_from_fields(given, values.get("r", cfg.r))
        elif is_dataclass(value):
            values[name] = _experiment_from_mapping(mapping, value, name)
        elif key in mapping:
            values[name] = _parse(mapping, key, _parse_value, hint)
    try:
        return replace(cfg, **values)
    except ValueError as exc:
        for name, value in values.items():
            if f"{section}.{name}" in mapping and _rejection(cfg, name, value) == str(exc):
                raise _BadValue(f"{section}.{name}", str(exc)) from None
        raise


def _rejection(cfg, name, value):
    """The message with which ``cfg``'s dataclass rejects ``value`` for field
    ``name`` alone, or None."""
    try:
        replace(cfg, **{name: value})
    except ValueError as exc:
        return str(exc)
    return None


def load_experiment(path):
    """Read an :class:`ExperimentConfig` from a config file; keys it leaves out take their defaults.

    Raises ``ValueError`` as ``path:line: key: reason`` for a key that is
    unknown or repeated or holds a value its field cannot take, or that a
    config dataclass rejects on its own, and as ``path: reason`` for values
    the config dataclasses reject only together.
    """
    defaults = ExperimentConfig()
    known = set(_experiment_to_mapping(defaults)) | set(_CUSTOM_POLYTOPE_KEYS)
    mapping, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: {key}: unknown key")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: {key}: given again (first on line {lines[key]})")
            mapping[key], lines[key] = value, lineno
    try:
        return _experiment_from_mapping(mapping, defaults)
    except _BadValue as exc:
        key, reason = exc.args
        raise ValueError(f"{path}:{lines[key]}: {key}: {reason}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_experiment(cfg, path):
    """Write an :class:`ExperimentConfig` that :func:`load_experiment` reads back equal."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in _experiment_to_mapping(cfg).items())
