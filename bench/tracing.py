"""Spans around liplab's public entry points, recorded from outside the package.

While a ``Tracer`` is installed, each coarse entry point below is replaced by
a wrapper in every ``liplab`` module that imported it (``from .lipschitz
import ...`` copies the name), and ``ExactSampler.__init__``/``draw`` are
patched on the class.  Installing and removing the wrappers around each traced
round leaves untraced rounds running the unmodified code.

Only coarse entry points are wrapped: wrapping the per-call entropy helpers
doubled ``liplab verify``.  Enumerations are generators, so their span is
open from the first ``next`` to exhaustion and its busy time sums the time
spent inside ``next`` only (a timer per yielded member).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, busy]``; ``busy``
    is ``end - start`` except for generator spans.  ``counts`` holds counters
    read from the wrapped calls' arguments and return values."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, i: int) -> None:
        self._stack.pop()
        span = self.spans[i]
        span[2] = time.perf_counter()
        span[4] = span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            it = fn(*args, **kwargs)
            busy = 0.0
            members = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    members += 1
                    yield item
            finally:
                it.close()
                span[2] = time.perf_counter()
                span[4] = busy
                self.counts[f"{name}.members"] += members

        return wrapper

    def summary(self) -> dict:
        """Per span name: ``calls``, ``time_s`` (busy time of the outermost
        span of that name) and ``self_s`` (busy time minus the busy time of
        child spans), plus the counters."""
        child_busy = [0.0] * len(self.spans)
        for name, _, _, parent, busy in self.spans:
            if parent >= 0:
                child_busy[parent] += busy
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, parent, busy) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += busy - child_busy[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.time_s"] += busy
        out.update(self.counts)
        return dict(out)


def _arg(args, kwargs, index: int, key: str):
    return kwargs[key] if key in kwargs else args[index]


def _count_nodes(counts, result, args, kwargs):
    counts["lipschitz.count.nodes"] += result.nodes_explored


def _count_steps(counts, result, args, kwargs):
    counts["lipschitz.glauber.steps"] += _arg(args, kwargs, 3, "steps")


def _count_subset_pairs(counts, result, args, kwargs):
    n = _arg(args, kwargs, 0, "g").n
    counts["expanders.exhaustive.subset_pairs"] += ((1 << n) - 1) ** 2


def _count_instances(counts, result, args, kwargs):
    counts["flaws.ground_state_lemma.instances"] += result["instances_checked"]


def _count_sets(counts, result, args, kwargs):
    counts["containers.linked_sets.sets"] += len(result)


def _count_cover(counts, result, args, kwargs):
    counts["containers.cover.attempts"] += result.attempts
    counts["containers.cover.met_bound"] += int(result.met_bound)


def _count_pairs(counts, result, args, kwargs):
    counts["containers.family.pairs"] += len(result.pairs)


def _count_checks(counts, result, args, kwargs):
    counts["entropy.properties.checks"] += sum(result["checked"].values())


# (module, attribute, span name, counter); a name ending in ".enumerate" is a generator.
TARGETS = (
    ("graphs", "generate", "graphs.generate", None),
    ("lipschitz", "count_onepoint", "lipschitz.count", _count_nodes),
    ("lipschitz", "count_groundstate", "lipschitz.count", _count_nodes),
    ("lipschitz", "ExactSampler.__init__", "lipschitz.sampler_build", None),
    ("lipschitz", "ExactSampler.draw", "lipschitz.sampler_draw", None),
    ("lipschitz", "enumerate_onepoint", "lipschitz.enumerate", None),
    ("lipschitz", "enumerate_groundstate", "lipschitz.enumerate", None),
    ("lipschitz", "glauber_chain", "lipschitz.glauber", _count_steps),
    ("expanders", "spectral_lambda", "expanders.spectral", None),
    ("expanders", "exhaustive_lambda", "expanders.exhaustive", _count_subset_pairs),
    ("expanders", "verify_expander_props", "expanders.props", None),
    ("flaws", "conditional_tail_profile", "flaws.tail_profile", None),
    ("flaws", "flaw_decomposition", "flaws.decomposition", None),
    ("flaws", "verify_ground_state_lemma", "flaws.ground_state_lemma", _count_instances),
    ("flaws", "boundary_ordering", "flaws.boundary_ordering", None),
    ("containers", "enumerate_linked_sets", "containers.linked_sets", _count_sets),
    ("containers", "build_mutual_cover", "containers.cover", _count_cover),
    ("containers", "refine_to_approx_pair", "containers.refine", None),
    ("containers", "build_container_family", "containers.family", _count_pairs),
    ("entropy", "check_entropy_properties", "entropy.properties", _count_checks),
    ("entropy", "shearer_check", "entropy.shearer", None),
    ("experiments", "run_range_experiment", "experiments.range", None),
    ("experiments", "run_tail_experiment", "experiments.tail", None),
    ("experiments", "run_covering_check", "experiments.covering", None),
    ("experiments", "run_verify_suite", "experiments.verify", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Route every target through ``tracer`` for the duration of the block."""
    package = [m for name, m in sys.modules.items() if name == "liplab" or name.startswith("liplab.")]
    undo = []
    try:
        for module, attr, name, count in TARGETS:
            owner = importlib.import_module(f"liplab.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                undo.append((cls, meth, fn))
                setattr(cls, meth, tracer.wrap(name, fn, count))
                continue
            fn = getattr(owner, attr)
            wrapper = (tracer.wrap_generator(name, fn) if name.endswith(".enumerate")
                       else tracer.wrap(name, fn, count))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for obj, key, fn in reversed(undo):
            setattr(obj, key, fn)
