"""In-memory span recorder that measures datacause's layers from outside.

A span is one call across a layer boundary: its name, its start and end
(``time.perf_counter`` seconds), the index of the span that caused it and
the explanation it belongs to. The recorder wraps a module-level function
in every ``datacause`` namespace that binds it (``datacause.engine.compose``
as well as ``datacause.transforms.compose``), and a method on its class.
Spans stay in memory until the caller writes them out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    explanation: int | None = None
    work: int = 0  # boundary-specific amount, e.g. cells normalised by a Dataset build
    error: str | None = None  # exception class name when the call raised


Work = Callable[[tuple, dict], int]


class SpanRecorder:
    """Records nested spans for the callables it wraps; single-threaded.

    Use as a context manager: every wrapper is restored on exit, also when
    the body raises.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.explanation: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_function(self, module: str, attr: str, name: str, work: Work | None = None) -> None:
        """Wrap ``module.attr`` in every loaded ``datacause`` module that binds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrapper(original, name, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "datacause" and not mod_name.startswith("datacause."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, work: Work | None = None) -> None:
        self._patch(cls, attr, self._wrapper(cls.__dict__[attr], name, work))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(self, fn, name: str, work: Work | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None,
                        explanation=self.explanation,
                        work=work(args, kwargs) if work else 0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON list of objects."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - _covered(kids) for s, kids in zip(spans, children)]


@dataclass
class Layer:
    calls: int = 0
    inclusive_s: float = 0.0  # spans nested inside a span of the same name are not added twice
    self_s: float = 0.0
    work: int = 0
    errors: dict[str, int] = field(default_factory=dict)  # exception class name -> count


def summarise(spans: list[Span], explanations: bool = True) -> dict[str, Layer]:
    """Per span name: calls, inclusive and self seconds, summed work and errors.

    With ``explanations`` only spans that belong to an explanation count;
    without it only the others (set-up) do.
    """
    own = self_times(spans)
    out: dict[str, Layer] = {}
    for i, span in enumerate(spans):
        if (span.explanation is not None) != explanations:
            continue
        layer = out.setdefault(span.name, Layer())
        layer.calls += 1
        layer.self_s += own[i]
        layer.work += span.work
        if span.error:
            layer.errors[span.error] = layer.errors.get(span.error, 0) + 1
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            layer.inclusive_s += span.end - span.start
    return out


# --- the boundaries of each datacause module -----------------------------------

#: (defining module, function, span name, work) for module-level functions
FUNCTIONS: tuple[tuple[str, str, str, Work | None], ...] = (
    ("datacause.tabular", "select_where", "tabular.select_where", None),
    ("datacause.tabular", "load_csv", "tabular.load_csv", None),
    ("datacause.tabular", "save_csv", "tabular.save_csv", None),
    ("datacause.profiles", "discover_profiles", "profiles.discover", None),
    ("datacause.profiles", "violation", "profiles.violation", None),
    ("datacause.profiles", "enumerate_selectivity_predicates", "profiles.enumerate_predicates", None),
    ("datacause.transforms", "transform", "transforms.transform", None),
    ("datacause.transforms", "compose", "transforms.compose", lambda a, kw: len(a[0])),
    ("datacause.transforms", "coverage", "transforms.coverage", None),
    ("datacause.graph", "best_bisection", "graph.bisection", None),
    ("datacause.graph", "random_balanced_split", "graph.bisection", None),
    ("datacause.engine", "explain", "engine.explain", None),
    ("datacause.engine", "discriminative_pvts", "engine.discriminative", None),
    ("datacause.engine", "benefit_score", "engine.benefit", None),
    ("datacause.engine", "make_minimal", "engine.minimality", None),
    ("datacause.synth", "generate", "synth.generate", None),
    ("datacause.cli", "main", "cli.main", None),
)


def _cells(args, kwargs) -> int:
    dataset = args[0]
    return len(dataset.columns) * (len(dataset.columns[0]) if dataset.columns else 0)


def _oracle_miss(args, kwargs) -> int:
    """1 when the oracle will invoke its scorer, 0 when its cache answers."""
    oracle, dataset = args[0], args[1] if len(args) > 1 else kwargs["dataset"]
    return 0 if oracle.is_cached(dataset) else 1


def trace_oracle(recorder: SpanRecorder) -> None:
    """Only the oracle boundary: what the untraced run needs to split
    engine time from oracle time."""
    oracle = sys.modules["datacause.oracle"]
    recorder.wrap_method(oracle.MalfunctionOracle, "evaluate", "oracle.evaluate", _oracle_miss)


def trace_all(recorder: SpanRecorder) -> None:
    """Every layer boundary the benchmark reports on."""
    for module, attr, name, work in FUNCTIONS:
        recorder.wrap_function(module, attr, name, work)
    tabular = sys.modules["datacause.tabular"]
    recorder.wrap_method(tabular.Dataset, "__post_init__", "tabular.dataset_build", _cells)
    trace_oracle(recorder)
