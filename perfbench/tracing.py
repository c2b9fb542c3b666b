"""Spans around calls into emtshape's public functions, recorded from outside.

The tracer replaces each function that a per-layer metric names under every
name that binds it in a loaded ``emtshape`` module, e.g. ``emtshape.emt.solve_densities`` and
``emtshape.reconstruct.disk_modified_emt``, so calls that look the name up
at run time go through a wrapper.  The package source is never edited.

Spans live in flat in-memory arrays and are written as one gzipped columnar
JSON document when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

def _field_count(args, kwargs) -> int:
    fields = args[2] if len(args) > 2 else kwargs.get("fields", ())
    return len(fields)


# span name -> function of the call's arguments giving a work count
SIZES = {"transmission.solve_densities": _field_count}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("l")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    def record(self, span_name: str, start: float, end: float, parent: int = -1,
               op: int = -1, size: int = 0) -> int:
        """Append a finished span; returns its index."""
        idx = self._open(span_name, parent, op, size)
        self.start[idx], self.end[idx] = start, end
        return idx

    def _open(self, span_name: str, parent: int, op: int, size: int) -> int:
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(parent)
        self.op.append(op)
        self.size.append(size)
        return idx

    def wrap(self, span_name: str, fn):
        size_of = SIZES.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = 0
            if size_of is not None:
                try:
                    size = size_of(args, kwargs)
                except (IndexError, TypeError):
                    size = -1
            idx = self._open(span_name, self._stack[-1] if self._stack else -1,
                             self.op_id, size)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx], self.end[idx] = t0, t1

        return traced

    def install(self, span_names: list[str]) -> None:
        """Wrap each function ``layer.name`` of ``span_names`` (it lives in
        ``emtshape.layer``) wherever a loaded emtshape module binds it.
        Functions not wrapped run inside their caller's span and count in
        its self time.  Names that no longer exist are listed in
        ``self.skipped`` instead of raising."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "emtshape" or key.startswith("emtshape."))]
        self.skipped = []
        for span_name in dict.fromkeys(span_names):
            layer, attr = span_name.split(".", 1)
            fn = getattr(sys.modules.get(f"emtshape.{layer}"), attr, None)
            if not inspect.isfunction(fn):
                self.skipped.append(span_name)
                continue
            traced = self.wrap(span_name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
                        self._restore.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._restore):
            setattr(m, key, fn)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx in range(len(self.start)):
            s, e = self.start[idx], self.end[idx]
            covered = 0.0
            cur_s = cur_e = None
            for c in sorted(children.get(idx, ()), key=lambda c: self.start[c]):
                cs, ce = max(self.start[c], s), min(self.end[c], e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            out.append((e - s) - covered)
        return out

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op id -> span name -> {"self_s", "calls", "size"} summed over the op."""
        selfs = self.self_times()
        ops: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
        for idx, nid in enumerate(self.name):
            if self.op[idx] < 0:
                continue
            stats = ops[self.op[idx]].setdefault(
                self.names[nid], {"self_s": 0.0, "calls": 0, "size": 0})
            stats["self_s"] += selfs[idx]
            stats["calls"] += 1
            stats["size"] += self.size[idx]
        return ops

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op", "size"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "size": self.size.tolist(),
            "skipped": self.skipped,
        }
        with gzip.open(path, "wt") as f:
            json.dump(doc, f, separators=(",", ":"))
