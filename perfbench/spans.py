"""Timing spans installed around the package's layer entry points.

The spans are recorded from outside the package: :class:`Tracer` replaces a
fixed list of module attributes with wrappers that time each call and link it
to the span that was open when it started. :meth:`Tracer.uninstall` puts the
original functions back, so untraced runs execute the package unmodified.

A layer is a module of the package; a span's layer is the part of its name
before the first dot. A span's self time is its duration minus the durations
of its child spans.
"""

import functools
import time


def projection_family(p):
    """Name the projection path a polytope takes: box, l1, simplex or mixed."""
    if not p.l1_groups:
        return "box"
    if len(p.l1_groups) == 1:
        tags = {p.domains[i] for i in p.l1_groups[0]}
        if tags == {"signed"}:
            return "l1"
        if tags == {"nonneg"}:
            return "simplex"
    return "mixed"


def _patch_points(pkg):
    """(module, attribute, span name) for every wrapped entry point.

    ``span name`` is a string or a function of the call's arguments. The
    solver binds ``project_columns`` and the CLI binds ``make_scenario`` by
    name at import, so those are patched where they are called from.
    A ``solver.run`` span also records the iterations it ran as its work.
    """
    cli, datagen, evaluation, ica, solver = (
        pkg.cli, pkg.datagen, pkg.evaluation, pkg.ica, pkg.solver
    )
    return [
        (cli, "main", "cli.main"),
        (solver, "run", "solver.run"),
        (solver, "initialize", "solver.initialize"),
        (solver, "canonical_orientation", "solver.canonical_orientation"),
        (
            solver,
            "project_columns",
            lambda p, *a, **k: f"polytopes.project_columns.{projection_family(p)}",
        ),
        (evaluation, "sinr_db", "evaluation.sinr_db"),
        (datagen, "make_scenario", "datagen.make_scenario"),
        (cli, "make_scenario", "datagen.make_scenario"),
        (ica, "ica_separate", "ica.ica_separate"),
    ]


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "work")

    def __init__(self, name, parent, phase):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0
        self.work = 0

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Span recorder for one benchmark process; keeps every span in memory."""

    def __init__(self, pkg):
        self.points = _patch_points(pkg)
        self.spans = []
        self.phase = "setup"
        self._open = []
        self._saved = None

    def install(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        self._saved = [getattr(mod, attr) for mod, attr, _ in self.points]
        for (mod, attr, name), fn in zip(self.points, self._saved):
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        if self._saved is None:
            return
        for (mod, attr, _), fn in zip(self.points, self._saved):
            setattr(mod, attr, fn)
        self._saved = None

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = Span(label, self._open[-1] if self._open else None, self.phase)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if label == "solver.run":
                    span.work = result.k
                return result
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    def self_seconds(self, phase=None):
        """Map each span to its self time, over spans of ``phase`` (or all)."""
        chosen = [s for s in self.spans if phase is None or s.phase == phase]
        own = {id(s): s.seconds for s in chosen}
        for s in chosen:
            if s.parent is not None and id(s.parent) in own:
                own[id(s.parent)] -= s.seconds
        return [(s, own[id(s)]) for s in chosen]

    def calls(self, name, phase=None):
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        ]
