"""Per-layer tracing by wrapping the program's functions from outside.

The wrappers are installed at the names the modules call through (for
example ``solver.graver_basis``, the name ``solve_ip`` and
``find_feasible`` look up), so nothing under ``src/`` is edited.  Layer
boundaries record a span with its parent; the hot predicates inside the
completion loop and the augmentation only count calls, because a span
per call would cost more than the call.  Spans stay in memory and are
written out once, at the end of the run.

A wrapped name that no longer exists is listed as absent, its metrics
read 0, and the run goes on.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module, attribute the program calls through, span name, what to record)
SPANS = (
    ("game", "find_equilibrium", "game.find_equilibrium", None),
    ("game", "equilibrium_instance", "game.equilibrium_instance", None),
    ("game", "build_nash_matrix", "nfold.build", None),
    ("game", "build_multitype_matrix", "nfold.build", None),
    ("nfold", "build_nash_matrix", "nfold.build", None),
    ("game", "solve_ip", "solver.solve_ip", None),
    ("solver", "find_feasible", "solver.find_feasible", None),
    ("solver", "greedy_augment", "solver.greedy_augment", "augmentations"),
    ("solver", "graver_basis", "graver.graver_basis", "basis"),
    ("graver", "graver_basis", "graver.graver_basis", "basis"),
    ("cli", "graver_basis", "graver.graver_basis", "basis"),
    ("graver", "kernel_lattice_basis", "linalg.kernel_lattice_basis", None),
    ("cli", "main", "cli.main", None),
    ("cli", "solve_iiop", "inverse.solve_iiop", "shifts"),
    ("inverse", "rational_lp_feasibility", "lp.rational_lp_feasibility", "lp"),
)

# (module, attribute, counter name); "Class.method" wraps a method
COUNTS = (
    ("graver", "conformal_reduce", "graver.reduce_calls"),
    ("graver", "conformal_leq", "graver.leq_calls"),
    ("solver", "best_step", "solver.best_step_calls"),
    ("costs", "SeparableObjective.value", "costs.objective_evals"),
)

# The serialize layer is every public function of the module, wrapped on
# the module itself because the CLI calls it as ``serialize.name``.
SERIALIZE_SPAN = "serialize"

TIME_METRICS = (
    "graver.phase1_s",
    "solver.feasible_self_s",
    "graver.basis_s",
    "linalg.kernel_s",
    "nfold.build_s",
    "game.instance_s",
    "solver.augment_s",
    "lp.simplex_s",
    "inverse.self_s",
    "cli.self_s",
    "serialize.s",
    "trace.suite_s",
    "trace.overhead_s",
)
COUNT_METRICS = (
    "graver.phase1_elements",
    "graver.basis_calls",
    "graver.elements",
    "graver.reduce_calls",
    "graver.leq_calls",
    "graver.leq_hits",
    "graver.distinct_matrices",
    "linalg.kernel_calls",
    "solver.augmentations",
    "solver.best_step_calls",
    "costs.objective_evals",
    "lp.calls",
    "lp.rows",
    "lp.farkas",
    "inverse.shifts",
)

# metric -> wrapped names it is computed from, for reporting absences
SOURCES = {
    "graver.phase1_s": ("solver.find_feasible", "graver.graver_basis"),
    "graver.phase1_elements": ("solver.find_feasible", "graver.graver_basis"),
    "solver.feasible_self_s": ("solver.find_feasible",),
    "graver.basis_s": ("graver.graver_basis",),
    "graver.basis_calls": ("graver.graver_basis",),
    "graver.elements": ("graver.graver_basis",),
    "graver.distinct_matrices": ("graver.graver_basis",),
    "graver.reduce_calls": ("graver.reduce_calls",),
    "graver.leq_calls": ("graver.leq_calls",),
    "graver.leq_hits": ("graver.leq_calls",),
    "linalg.kernel_s": ("linalg.kernel_lattice_basis",),
    "linalg.kernel_calls": ("linalg.kernel_lattice_basis",),
    "nfold.build_s": ("nfold.build",),
    "game.instance_s": ("game.equilibrium_instance",),
    "solver.augment_s": ("solver.greedy_augment",),
    "solver.augmentations": ("solver.greedy_augment",),
    "solver.best_step_calls": ("solver.best_step_calls",),
    "costs.objective_evals": ("costs.objective_evals",),
    "lp.simplex_s": ("lp.rational_lp_feasibility",),
    "lp.calls": ("lp.rational_lp_feasibility",),
    "lp.rows": ("lp.rational_lp_feasibility",),
    "lp.farkas": ("lp.rational_lp_feasibility",),
    "inverse.self_s": ("inverse.solve_iiop",),
    "inverse.shifts": ("inverse.solve_iiop",),
    "cli.self_s": ("cli.main",),
    "serialize.s": (SERIALIZE_SPAN,),
}


def _record(kind, args, result):
    """What a span keeps of its call; None if the call changed shape."""
    try:
        if kind == "basis":
            return [len(result), args[0]]
        if kind == "augmentations":
            return result.augmentation_count
        if kind == "shifts":
            return len(result.shifts)
        if kind == "lp":
            return [len(args[0]), type(result).__name__ == "FarkasRay"]
    except (AttributeError, IndexError, TypeError):
        pass
    return None


def _jsonable(name, record):
    # a basis record holds its matrix, for counting distinct ones; keep the size
    if name == "graver.graver_basis" and record:
        return record[:1]
    return record


class Tracer:
    """Spans as [name, parent index, start, end, record]; counters by name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, kind, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if kind is not None:
                record[4] = _record(kind, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        if name == "graver.leq_calls":

            @functools.wraps(fn)
            def leq(u, v):
                counts[name] += 1
                if fn(u, v):
                    counts["graver.leq_hits"] += 1
                    return True
                return False

            return leq

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, make) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._installed.append((owner, attr, original))
        return True

    def install(self, modules: dict) -> None:
        """Wrap the program's names; `modules` maps short names to modules."""
        present: set[str] = set()
        for module, attr, name, kind in SPANS:
            owner = modules.get(module)
            if owner is not None and self._replace(
                owner, attr, functools.partial(self._span, name, kind)
            ):
                present.add(name)
        for module, attr, name in COUNTS:
            owner = modules.get(module)
            if "." in attr and owner is not None:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            if owner is not None and self._replace(
                owner, attr, functools.partial(self._count, name)
            ):
                present.add(name)
        serialize = modules.get("serialize")
        if serialize is not None:
            for attr, fn in list(vars(serialize).items()):
                if (
                    not attr.startswith("_")
                    and callable(fn)
                    and getattr(fn, "__module__", None) == serialize.__name__
                    and not isinstance(fn, type)
                ):
                    self._replace(
                        serialize, attr, functools.partial(self._span, SERIALIZE_SPAN, None)
                    )
                    present.add(SERIALIZE_SPAN)
        wanted = {name for _, _, name, _ in SPANS} | {name for _, _, name in COUNTS}
        wanted.add(SERIALIZE_SPAN)
        self.absent = sorted(wanted - present)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self, suite_s: float, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced round.

        `suite_s` is the traced round's op time and `overhead_s` that minus
        the untraced round's, so every layer time can be read as a share.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def ancestors(i):
            parent = spans[i][1]
            while parent >= 0:
                yield spans[parent][0]
                parent = spans[parent][1]

        out = Counter()
        matrices = set()
        for i, (name, parent, start, end, record) in enumerate(spans):
            total = end - start
            own = total - child[i]
            if name == "graver.graver_basis":
                size, matrix = record or (0, None)
                out["graver.basis_s"] += total
                out["graver.basis_calls"] += 1
                out["graver.elements"] += size
                matrices.add(matrix)
                if "solver.find_feasible" in ancestors(i):
                    out["graver.phase1_s"] += total
                    out["graver.phase1_elements"] += size
            elif name == "solver.find_feasible":
                out["solver.feasible_self_s"] += own
            elif name == "linalg.kernel_lattice_basis":
                out["linalg.kernel_s"] += total
                out["linalg.kernel_calls"] += 1
            elif name == "nfold.build":
                out["nfold.build_s"] += total
            elif name == "game.equilibrium_instance":
                out["game.instance_s"] += total
            elif name == "solver.greedy_augment":
                out["solver.augment_s"] += total
                out["solver.augmentations"] += record or 0
            elif name == "lp.rational_lp_feasibility":
                out["lp.simplex_s"] += total
                out["lp.calls"] += 1
                rows, farkas = record or (0, False)
                out["lp.rows"] += rows
                out["lp.farkas"] += int(farkas)
            elif name == "inverse.solve_iiop":
                out["inverse.self_s"] += own
                out["inverse.shifts"] += record or 0
            elif name == "cli.main":
                out["cli.self_s"] += own
            elif name == SERIALIZE_SPAN and (parent < 0 or spans[parent][0] != SERIALIZE_SPAN):
                out["serialize.s"] += total
        out["graver.distinct_matrices"] = len(matrices - {None})
        out.update(self.counts)
        out["trace.suite_s"] = suite_s
        out["trace.overhead_s"] = overhead_s
        result = {name: float(out[name]) for name in TIME_METRICS}
        result.update({name: int(out[name]) for name in COUNT_METRICS})
        return result

    def absent_metrics(self) -> list[str]:
        return sorted(
            metric
            for metric, sources in SOURCES.items()
            if any(source in self.absent for source in sources)
        )

    def dump(self, path: str, header: dict) -> None:
        """Write every span, counter and absence as one JSON document."""
        doc = dict(header)
        doc["absent"] = self.absent
        doc["counters"] = dict(self.counts)
        doc["spans"] = [
            [name, parent, start, end, _jsonable(name, record)]
            for name, parent, start, end, record in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
