"""Span tracer that wraps blurbench's public functions from outside.

The package is not edited: `Tracer.install` rebinds each traced function
in every blurbench module that looks it up by name (``blurbench.cli``
imports ``build_idf`` from ``blurbench.cider``, so both bindings are
wrapped). Each call records a span ``(name, start, end, parent, call id,
detail)`` in memory; ``detail`` is a small per-call fact such as a byte
count. Nothing is aggregated while the workload runs.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import blurbench.imaging

_LEVEL_OF_TAPS = {taps: level.name
                  for level, taps in blurbench.imaging.TAP_SIZES.items()}


def _first_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


#: Traced functions, as (span name, module, attribute, detail extractor).
#: The extractor's value is kept with the span: a byte/row/entry count, the
#: blur level, or the input whose distinctness gives a useful ratio.
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "blurbench.cli", "main", None),
    ("cli.atomic_write", "blurbench.cli", "_atomic_write",
     lambda args, result: len(args[1])),
    ("imaging.load_image", "blurbench.imaging", "load_image", _first_len),
    ("imaging.save_image", "blurbench.imaging", "save_image", _result_len),
    ("imaging.apply_blur", "blurbench.imaging", "apply_blur",
     lambda args, result: _LEVEL_OF_TAPS[(args[1].tap_width, args[1].tap_height)]),
    ("ingest.parse_captions", "blurbench.ingest", "parse_captions", _first_len),
    ("ingest.parse_predictions", "blurbench.ingest", "parse_predictions", _first_len),
    ("ingest.parse_blur_flags", "blurbench.ingest", "parse_blur_flags", None),
    ("ingest.filter_by_blur_flag", "blurbench.ingest", "filter_by_blur_flag", None),
    ("ingest.parse_feature_counts", "blurbench.ingest", "parse_feature_counts",
     _result_len),
    ("cider.build_idf", "blurbench.cider", "build_idf", None),
    ("cider.corpus_cider_d", "blurbench.cider", "corpus_cider_d", None),
    ("cider.cider_d", "blurbench.cider", "cider_d", None),
    ("cider.tokenize", "blurbench.cider", "tokenize", lambda args, result: args[0]),
    ("cider.ngram_counts", "blurbench.cider", "ngram_counts",
     lambda args, result: (tuple(args[0]), args[1] if len(args) > 1 else None)),
    ("schedule.plan_dataset", "blurbench.schedule", "plan_dataset",
     lambda args, result: len(result.entries)),
    # manifests are ASCII JSON lines, so characters are bytes
    ("schedule.write_manifest", "blurbench.schedule", "write_manifest", _result_len),
    ("schedule.read_manifest", "blurbench.schedule", "read_manifest", _first_len),
    ("report.parse_scores_csv", "blurbench.report", "parse_scores_csv", None),
    ("report.degradation_deltas", "blurbench.report", "degradation_deltas", None),
    ("report.build_histograms", "blurbench.report", "build_histograms", None),
    ("report.render_score_table", "blurbench.report", "render_score_table", None),
    ("report.render_deltas", "blurbench.report", "render_deltas", None),
    ("report.render_subset_table", "blurbench.report", "render_subset_table", None),
    ("report.render_histograms", "blurbench.report", "render_histograms", None),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    call_id: int  # the benchmark operation (CLI call or manifest read)
    detail: object


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, detail: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.call_id, None)
            if detail is not None:
                spans[index] = spans[index]._replace(detail=detail(args, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a blurbench module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "blurbench" or n.startswith("blurbench."))]
        for name, module_name, attr, detail in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, detail)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval before merging,
    so overlapping or overhanging children are not double-counted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals: calls, self seconds, and per-span details.

    Keys follow ``<module>.<function>.<metric>``. Functions never called
    report zero.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    details: dict[str, list] = defaultdict(list)
    level_s: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += seconds
        if span.detail is not None:
            details[span.name].append(span.detail)
        if span.name == "imaging.apply_blur":
            level_s[span.detail] += seconds

    def total(name):
        return sum(details[name])

    def useful(name):
        return len(set(details[name])) / calls[name] if calls[name] else 0.0

    m = {}
    for name in ("imaging.apply_blur", "imaging.load_image", "cli.atomic_write",
                 "cider.build_idf", "cider.corpus_cider_d", "cider.cider_d",
                 "cider.tokenize", "cider.ngram_counts"):
        m[f"{name}.calls"] = calls[name]
    for name, *_ in TRACED:
        if not name.startswith("report.render_"):
            m[f"{name}.self_s"] = self_s[name]
    m["report.render.self_s"] = sum(v for k, v in self_s.items()
                                    if k.startswith("report.render_"))
    for level in _LEVEL_OF_TAPS.values():
        m[f"imaging.apply_blur.self_s.{level}"] = level_s[level]
    for name in ("imaging.load_image", "imaging.save_image", "cli.atomic_write",
                 "ingest.parse_captions", "ingest.parse_predictions",
                 "schedule.write_manifest", "schedule.read_manifest"):
        m[f"{name}.bytes"] = total(name)
    m["ingest.parse_feature_counts.rows"] = total("ingest.parse_feature_counts")
    m["schedule.plan_dataset.entries"] = total("schedule.plan_dataset")
    m["cider.tokenize.useful_ratio"] = useful("cider.tokenize")
    m["cider.ngram_counts.useful_ratio"] = useful("cider.ngram_counts")
    return m
