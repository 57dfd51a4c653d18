"""Span tracing of gasketlab from outside the package.

``Tracer.install`` wraps every public function and every public method of
the seven layer modules, and rebinds each wrapper at every module global of
the package that binds the original (``ids`` and ``spectra`` import
``assemble`` by name, for example) and at the class attribute that holds a
method.  ``Tracer.uninstall`` puts every original back.  Spans are kept in
memory as (id, name, start, end, parent, thread id, size).

A span's parent is the innermost open span of its own thread.  A span that
opens on a thread with no open span (a trial worker of ``ids``) takes the
innermost open span of the installing thread as its parent, so trial work
is charged to the ``estimate_ids`` call that started it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import weakref

PACKAGE = "gasketlab"
LAYERS = ("lattice", "operators", "spectra", "decimation", "ids",
          "verification", "cli")

#: Verification suite name -> the function in ``verification`` that runs it.
SUITE_FUNCTIONS = {
    "counting": "counting_suite",
    "interlacing": "interlacing_suite",
    "psd": "psd_suite",
    "branch": "branch_suite",
    "temple": "temple_suite",
    "containment": "containment_suite",
    "kernel6": "kernel_suite",
    "decay": "decay_suite",
}

#: Functions whose spans note whether their first argument is new to them;
#: ``count_below`` builds its factorization structure on first use.
FIRST_USE_TRACKED = frozenset({"spectra.count_below"})

_MARK = "__bench_traced__"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "size",
                 "first")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.size = None
        self.first = False
        self.start = time.perf_counter()
        self.end = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _size(result):
    try:
        return len(result)
    except TypeError:
        return None


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def installed_wrappers() -> list[str]:
    """Names of package globals and class attributes that hold a wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{value.__name__}.{name}"
                          for name, member in vars(value).items()
                          if hasattr(member, _MARK)]
    return found


class Tracer:
    """Records spans of the package's public calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._home_thread = None
        self._seen = {name: weakref.WeakSet() for name in FIRST_USE_TRACKED}
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[Span]) -> Span:
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._home_stack[-1].id
            except IndexError:
                parent = None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, parent, threading.get_ident())
        stack.append(span)
        return span

    def _first_use(self, name: str, args) -> bool:
        try:
            seen = self._seen[name]
            if args[0] in seen:
                return False
            seen.add(args[0])
        except (IndexError, TypeError):
            pass  # no argument, or one that cannot be remembered
        return True

    def _wrap(self, name: str, fn):
        tracer = self
        track_first = name in FIRST_USE_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._open(name, stack)
            if track_first:
                span.first = tracer._first_use(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            span.size = _size(result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home_thread = threading.get_ident()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    for name, member in list(vars(value).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            self._patch(value, name, self._wrap(
                                f"{layer}.{attr}.{name}", member))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._home_thread = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# per-layer metrics

def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        covered = _union_length((lo, hi) for lo, hi in clipped if hi > lo)
        out[s.id] = s.duration - covered
    return out


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    by_id = {s.id: s for s in spans}
    picked = []
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            picked.append(s)
    return picked


def _total(spans, names) -> float:
    return sum((s.duration for s in _outermost(spans, names)), 0.0)


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in seconds)."""
    count_below = [s for s in spans if s.name == "spectra.count_below"]
    builds = _outermost(spans, {"lattice.build_triangle", "lattice.build_ball"})
    estimates = _outermost(spans, {"ids.estimate_ids"})
    estimate_wall = sum((s.duration for s in estimates), 0.0)
    estimate_ids_set = {s.id for s in estimates}
    trial_busy = sum(s.duration for s in spans if s.parent in estimate_ids_set)
    decimation_names = {s.name for s in spans if s.layer == "decimation"}
    metrics = {
        "spectra.count_below_s": _total(spans, {"spectra.count_below"}),
        "spectra.count_below_calls": len(count_below),
        "spectra.count_below_first_s": sum(
            (s.duration for s in count_below if s.first), 0.0),
        "spectra.dense_s": _total(spans, {"spectra.eigenvalues_dense"}),
        "spectra.dense_calls": sum(s.name == "spectra.eigenvalues_dense"
                                   for s in spans),
        "operators.assemble_s": _total(spans, {"operators.assemble"}),
        "operators.assemble_calls": sum(s.name == "operators.assemble"
                                        for s in spans),
        "operators.sample_s": _total(spans, {"operators.sample_potential"}),
        "lattice.build_s": _total(spans, {"lattice.build_triangle",
                                          "lattice.build_ball"}),
        "lattice.build_calls": len(builds),
        "lattice.vertices_built": sum(s.size or 0 for s in builds),
        "ids.estimate_s": estimate_wall,
        "ids.trial_concurrency": (trial_busy / estimate_wall
                                  if estimate_wall > 0 else 0.0),
        "decimation.s": _total(spans, decimation_names),
        "verification.records": sum(
            s.size or 0 for s in _outermost(spans, {"verification.run_suite"})),
    }
    for suite, fn in SUITE_FUNCTIONS.items():
        metrics[f"verification.{suite}_s"] = _total(
            spans, {f"verification.{fn}"})
    own = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            (own[s.id] for s in spans if s.layer == layer), 0.0)
    return metrics
