"""Spans recorded from outside the program, by patching its public names.

A name is patched in every module that looks it up, since
``from .pressure import hausdorff_dimension`` binds a second reference
in ``carpetdim.cli``.  ``CollapsedEngine.partition`` is wrapped on the
class; ``suffix_sum`` never is, because it recurses once per node.
Spans stay in memory; the self time of a span is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

# (module, attribute) -> span name; the name is the defining module's
PATCHES = [
    ("carpetdim.cli", "load_system", "specfile.load_system"),
    ("carpetdim.cli", "dump_document", "specfile.dump_document"),
    ("carpetdim.cli", "validate_sft", "sft.validate_sft"),
    ("carpetdim.cli", "carpet_to_factor", "sft.carpet_to_factor"),
    ("carpetdim.cli", "hausdorff_dimension", "pressure.hausdorff_dimension"),
    ("carpetdim.cli", "pressure_interval", "pressure.pressure_interval"),
    ("carpetdim.cli", "convergence_rows", "pressure.convergence_rows"),
    ("carpetdim.cli", "compensation_at_periodic", "pressure.compensation_at_periodic"),
    ("carpetdim.cli", "gibbs_scan", "measures.gibbs_scan"),
    ("carpetdim.cli", "additivity_scan", "measures.additivity_scan"),
    ("carpetdim.cli", "cesaro_defect", "measures.cesaro_defect"),
    ("carpetdim.cli", "uniqueness_report", "measures.uniqueness_report"),
    ("carpetdim.cli", "preimage_count", "counting.preimage_count"),
    ("carpetdim.pressure", "validate_sft", "sft.validate_sft"),
    ("carpetdim.pressure", "carpet_to_factor", "sft.carpet_to_factor"),
    ("carpetdim.pressure", "superadditive_constants", "pressure.superadditive_constants"),
    ("carpetdim.pressure", "pressure_interval", "pressure.pressure_interval"),
    ("carpetdim.pressure", "partition_series", "counting.partition_series"),
    ("carpetdim.pressure", "dn_count", "counting.dn_count"),
    ("carpetdim.counting", "partition_sum", "counting.partition_sum"),
    ("carpetdim.measures", "validate_sft", "sft.validate_sft"),
    ("carpetdim.measures", "superadditive_constants", "pressure.superadditive_constants"),
    ("carpetdim.measures", "pressure_interval", "pressure.pressure_interval"),
]


class Tracer:
    """Spans of one traced pass: [job, parent, name, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None
        self.engines: dict[int, int] = defaultdict(int)  # job -> engines built
        self._serial: dict[int, int] = {}  # id of a live engine -> its number
        self._numbers = itertools.count()
        self.partitions: dict[int, tuple[int, int, int]] = {}  # engine number -> counts
        self.scale: dict[int, float] = {}  # job -> factor to reference seconds
        self._undo: list = []

    def span(self, name: str, fn, on_return=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [self.job, parent, name, time.perf_counter(), None]
            self.spans.append(record)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, out)
                return out
            finally:
                self._stack.pop()
                record[4] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import importlib

        from carpetdim.counting import CollapsedEngine

        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.span(name, getattr(module, attr)))
        init = CollapsedEngine.__init__

        def counted_init(engine, *args, **kwargs):
            # ids of freed engines are reused, so number them as they are built
            self.engines[self.job] += 1
            self._serial[id(engine)] = next(self._numbers)
            init(engine, *args, **kwargs)

        def record_partition(args, ps):
            # the last PartitionSum of an engine carries its final counters
            serial = self._serial[id(args[0])]
            self.partitions[serial] = (self.job, ps.visited_nodes, ps.collapsed_nodes)

        self._patch(CollapsedEngine, "__init__", counted_init)
        self._patch(
            CollapsedEngine,
            "partition",
            self.span("counting.partition", CollapsedEngine.partition, record_partition),
        )

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, each span scaled by its job's factor."""
        child = [0.0] * len(self.spans)
        for job, parent, name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, (job, parent, name, t0, t1) in enumerate(self.spans):
            out[name] += ((t1 - t0) - child[sid]) * self.scale.get(job, 1.0)
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[2]] += 1
        return out

    def job_memo(self) -> dict[int, tuple[int, int]]:
        """Per job: (visited nodes, memo entries) summed over its engines."""
        out: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        for job, visited, entries in self.partitions.values():
            out[job][0] += visited
            out[job][1] += entries
        return {job: (v, e) for job, (v, e) in out.items()}
