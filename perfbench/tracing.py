"""Per-layer call counts and self times recorded from outside the package.

The tracer wraps public functions of each ``scoverlap`` module and rebinds
every module-level name that refers to the original, so calls made through
``semiclassics.find_intersections`` or ``cli.overlap`` are seen as well as
calls through the defining module.  Nothing in the package is edited.

Each call is a span.  A span's self time is its duration minus the
durations of its direct children (spans nest strictly in this
single-threaded program); only the per-name totals are kept.  Counts of
outcomes (intersection points, overlap terms, quantization levels, distinct
eigensolves) are taken from the wrapped calls' arguments and results.

Points, terms and levels are fixed by the inputs, so for the same seed any
change means the program's behaviour changed.  They are labelled
lower-is-better as counts of work; a point or level that goes missing is
meant to show up in the correctness gates and accuracy diagnostics.

A wrapped name that does not exist (renamed or removed by a later change)
is listed in ``missing`` and reports zero calls; it never raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (layer module, attribute path inside it, metric name)
WRAPPED = (
    ("geometry", "find_intersections", "geometry.find_intersections"),
    ("geometry", "trace_level_curve", "geometry.trace_level_curve"),
    ("geometry", "loop_data", "geometry.loop_data"),
    ("geometry", "chart_action", "geometry.chart_action"),
    ("geometry", "reference_point", "geometry.reference_point"),
    ("semiclassics", "overlap", "semiclassics.overlap"),
    ("semiclassics", "transition_probability", "semiclassics.transition_probability"),
    ("semiclassics", "maslov_segment", "semiclassics.maslov_segment"),
    ("semiclassics", "bohr_sommerfeld_levels", "semiclassics.bohr_sommerfeld_levels"),
    ("semiclassics", "compose_kernels", "semiclassics.compose_kernels"),
    ("semiclassics", "_PairGeometry.cross_hessian", "semiclassics.hessian_stencil"),
    ("oracle", "build_weyl_operator", "oracle.build_weyl_operator"),
    ("oracle", "eigensystem", "oracle.eigensystem"),
    ("starprod", "moyal_product", "starprod.moyal_product"),
    ("starprod", "associativity_defect", "starprod.associativity_defect"),
    ("starprod", "weyl_operator_of", "starprod.weyl_operator_of"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
)

# ``overlap(..., light=True)`` skips the Hessian and Maslov work, so it is
# reported as its own span name.
LIGHT_OVERLAP = "semiclassics.overlap_light"

SPAN_NAMES = tuple(name for _, _, name in WRAPPED) + (LIGHT_OVERLAP,)
MODULES = ("geometry", "semiclassics", "oracle", "starprod", "cli")

PACKAGE = "scoverlap"


def _resolve(owner, path: str):
    """(holder, attribute, raw value) for a dotted path, or None if absent."""
    *parents, attr = path.split(".")
    holder = owner
    for part in parents:
        holder = getattr(holder, part, None)
        if holder is None:
            return None
    if isinstance(holder, type):
        # only a plain function binds as a method once replaced by the wrapper
        raw = vars(holder).get(attr)
        return (holder, attr, raw) if inspect.isfunction(raw) else None
    raw = getattr(holder, attr, None)
    return (holder, attr, raw) if callable(raw) else None


def _light_position(fn) -> int | None:
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return names.index("light") if "light" in names else None


class Tracer:
    """Owns the counters of one traced run."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.points = 0
        self.terms_full = 0
        self.terms_light = 0
        self.levels = 0
        self.overlaps_in_compose = 0
        self.eigen_inputs: set = set()  # of the current pass
        self.eigen_distinct = 0  # summed over finished passes
        self.n_cubed = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # [start, child time]
        self._compose_depth = 0
        self._bound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Rebind every wrapped name in every loaded ``scoverlap`` module."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        self.missing = []
        for module_name, path, name in WRAPPED:
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            found = _resolve(home, path)
            if found is None:
                self.missing.append(name)
                continue
            holder, attr, original = found
            wrapper = self._wrap(name, original)
            if isinstance(holder, type):
                self._rebind(holder, attr, original, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, original, wrapper)

    def uninstall(self) -> None:
        """Restore the originals; ends the pass, as each pass is a new job."""
        for holder, attr, original in reversed(self._bound):
            setattr(holder, attr, original)
        self._bound = []
        self.eigen_distinct += len(self.eigen_inputs)
        self.eigen_inputs.clear()

    def _rebind(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._bound.append((holder, attr, original))

    # -- spans --------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        light_at = _light_position(fn) if name == "semiclassics.overlap" else None
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if light_at is not None:
                light = kwargs.get("light", args[light_at] if len(args) > light_at else False)
                label = LIGHT_OVERLAP if light else name
            tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(label)
            if observe is not None:
                observe(label, args, result)
            return result

        return wrapper

    def _enter(self, label: str) -> None:
        if label == "semiclassics.compose_kernels":
            self._compose_depth += 1
        elif self._compose_depth and label in ("semiclassics.overlap", LIGHT_OVERLAP):
            self.overlaps_in_compose += 1
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, label: str) -> None:
        end = time.perf_counter()
        start, child = self._stack.pop()
        duration = end - start
        self.calls[label] += 1
        self.self_s[label] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        if label == "semiclassics.compose_kernels":
            self._compose_depth -= 1

    # -- outcome counts -----------------------------------------------------
    def _observe_find_intersections(self, label, args, result) -> None:
        self.points += len(result)

    def _observe_overlap(self, label, args, result) -> None:
        n = len(getattr(result, "terms", ()))
        if label == LIGHT_OVERLAP:
            self.terms_light += n
        else:
            self.terms_full += n

    def _observe_bohr_sommerfeld_levels(self, label, args, result) -> None:
        self.levels += len(result)

    def _observe_eigensystem(self, label, args, result) -> None:
        gq = args[0] if args else None
        grid = getattr(gq, "grid", None)
        key = (str(getattr(gq, "observable", id(gq))), grid, getattr(gq, "h", None))
        self.eigen_inputs.add(key)
        self.n_cubed += int(getattr(grid, "points", 0)) ** 3

    # -- metrics ------------------------------------------------------------
    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass averages of every layer metric, as (value, unit)."""
        per = 1.0 / max(passes, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] * per, "count")
            out[f"{name}.self_s"] = (self.self_s[name] * per, "s")
        for module in MODULES:
            total = sum(v for k, v in self.self_s.items() if k.split(".")[0] == module)
            out[f"{module}.self_s"] = (total * per, "s")
        overlaps = self.calls["semiclassics.overlap"] + self.calls[LIGHT_OVERLAP]
        terms = self.terms_full + self.terms_light
        eig_calls = self.calls["oracle.eigensystem"]
        composes = self.calls["semiclassics.compose_kernels"]
        out["geometry.find_intersections.points"] = (self.points * per, "count")
        out["semiclassics.overlap.terms"] = (self.terms_full * per, "count")
        out["semiclassics.bohr_sommerfeld_levels.levels"] = (self.levels * per, "count")
        out["geometry.loop_data.per_level"] = (
            _ratio(self.calls["geometry.loop_data"], self.levels), "ratio")
        out["geometry.chart_action.per_term"] = (
            _ratio(self.calls["geometry.chart_action"], terms), "ratio")
        out["semiclassics.overlap.per_compose"] = (
            _ratio(self.overlaps_in_compose, composes), "ratio")
        out["geometry.trace_level_curve.per_overlap"] = (
            _ratio(self.calls["geometry.trace_level_curve"], overlaps), "ratio")
        out["oracle.eigensystem.distinct_frac"] = (
            _ratio(self.eigen_distinct, eig_calls), "ratio")
        out["oracle.eigensystem.n_cubed"] = (self.n_cubed * per, "count_computed")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
