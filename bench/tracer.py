"""Span tracer for the benchmark's per-layer run.

The tracer wraps public functions of the ``c0lat`` package in timing
spans.  Several modules import these functions by name (``from .subspace
import meet``), so installing a wrapper rebinds the name in every loaded
module of the package that holds the original, and classmethods and
methods are patched on their class.  ``uninstall`` puts every original
back.

Each span records its name, start, end, parent span and thread.  Parents
come from a per-thread stack, so spans opened inside the suites' worker
threads never claim a span of the submitting thread as their parent.
Spans stay in memory until :meth:`Tracer.write` saves them.
"""

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module, qualified name) of every traced function; "Class.name" patches
# a classmethod or method on its class.
TRACED = (
    ("jordan", "theorem97_verifier"),
    ("jordan", "theorem_x3_verifier"),
    ("jordan", "lattice_preimage"),
    ("jordan", "lattice_map"),
    ("jordan", "intertwiner_space"),
    ("jordan", "find_quasiaffinity"),
    ("jordan", "jordan_model"),
    ("jordan", "check_lattice_isomorphism"),
    ("jordan", "brute_force_lat"),
    ("subspace", "meet"),
    ("subspace", "join"),
    ("subspace", "contains"),
    ("subspace", "equals"),
    ("subspace", "distance"),
    ("subspace", "Subspace.from_span"),
    ("subspace", "op_norm"),
    ("subspace", "check_modular_triple"),
    ("subspace", "is_invariant"),
    ("subspace", "cyclic_subspace"),
    ("modelspace", "compressed_shift"),
    ("modelspace", "ModelSpace.divisor_subspace"),
    ("modelspace", "enumerate_lattice"),
    ("calculus", "apply_blaschke"),
    ("calculus", "eigenstructure"),
    ("calculus", "minimal_function"),
    ("calculus", "classify_c0"),
    ("calculus", "radial_validate"),
    ("blaschke", "gcd"),
    ("blaschke", "lcm"),
    ("blaschke", "divide"),
    ("blaschke", "divides"),
    ("blaschke", "divisors"),
    ("blaschke", "equiv"),
    ("sampling", "sample_invariant_subspaces"),
    ("sampling", "certifiable_c0"),
    ("cli", "report_render"),
)

# Modules whose trial-level calls make up the suites.overlap numerator.
OVERLAP_MODULES = ("jordan", "calculus")


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    job: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps ``targets`` of ``package`` in spans between install and
    uninstall.  ``job`` tags every span recorded until it changes; the
    benchmark sets it to the index of the job in flight, and spans opened
    while it is None are not kept."""

    def __init__(self, package: str = "c0lat", targets=TRACED):
        self.package = package
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.grid_points: dict = defaultdict(int)  # job -> summed quadrature points
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    # -- installing -------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for module_name, qualname in self.targets:
            module = sys.modules[f"{self.package}.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                self._patch_class_attr(module, qualname, name)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
        self._patch_model_space_init()

    def _patch_class_attr(self, module, qualname, name):
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name))
        else:
            replacement = self._wrap(raw, name)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def _patch_model_space_init(self):
        # modelspace.grid_points: quadrature points of every ModelSpace built
        module = sys.modules.get(f"{self.package}.modelspace")
        cls = getattr(module, "ModelSpace", None)
        if cls is None:
            return
        original = cls.__dict__["__init__"]
        tracer = self

        def __init__(space, *args, **kwargs):
            original(space, *args, **kwargs)
            if tracer.job is not None:
                tracer.grid_points[tracer.job] += int(space.quadrature_points)

        self._restore.append((cls, "__init__", original))
        cls.__init__ = __init__

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), job)
                )

        return functools.wraps(fn)(traced)

    # -- reading ----------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> self time in seconds: its duration minus the
        durations of its child spans (children share the parent's thread
        and nest inside it, so their intervals do not overlap)."""
        child_total: dict = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] += s.duration
        return {s.sid: s.duration - child_total[s.sid] for s in self.spans}

    def layer_totals(self) -> dict:
        """Name -> (calls, self seconds) over every recorded span."""
        selfs = self.self_times()
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += selfs[s.sid]
        return {name: (calls[name], self_s[name]) for name in calls}

    def trial_level_seconds(self, jobs) -> float:
        """Summed duration of spans in ``OVERLAP_MODULES`` that have no
        ancestor in those modules, over the given job indices."""
        def counted(span):
            return span.name.split(".")[0] in OVERLAP_MODULES

        jobs = set(jobs)
        by_id = {s.sid: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s.job not in jobs or not counted(s):
                continue
            ancestor = by_id.get(s.parent)
            while ancestor is not None and not counted(ancestor):
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                total += s.duration
        return total

    def write(self, path):
        """One JSON object per span, in the order spans ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict()) + "\n")
