"""In-memory span tracer that wraps drivecast's public callables from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each traced
function or method with a wrapper that records one span per call (name,
start, end, parent) into flat arrays, and ``uninstall`` puts the
originals back.  Module-level functions are replaced under every name
they are reachable by, because ``cli``, ``selection`` and ``evaluation``
import functions by name and a wrapper installed only in the defining
module would never see those calls.  Dict values are covered too, since
``cli.STAGE_FN`` dispatches the stages through a table.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [NO_PARENT]
        self._undo: list[tuple] = []
        # live receivers of selected methods, for counters read at the end
        self.receivers: dict[str, weakref.WeakSet] = {}

    @property
    def n_spans(self) -> int:
        return len(self.name_ids)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, track_receiver: bool = False):
        """``fn`` wrapped to record a span called ``name`` per call."""
        nid = self._intern(name)
        ids, parents, starts, ends = (self.name_ids, self.parents,
                                      self.starts, self.ends)
        stack, clock = self._stack, self.clock
        seen = (self.receivers.setdefault(name, weakref.WeakSet())
                if track_receiver else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            if seen is not None:
                seen.add(args[0])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- installing ------------------------------------------------------

    def install_function(self, name: str, module, attr: str) -> None:
        """Trace ``module.attr`` everywhere the package can look it up."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((setattr, mod, key, original))
                    setattr(mod, key, wrapper)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append(
                                (dict.__setitem__, value, k, original))
                            value[k] = wrapper

    def install_method(self, name: str, cls, attr: str,
                       track_receiver: bool = False) -> None:
        """Trace ``cls.attr`` (plain or static method) for every instance."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__))
        else:
            replacement = self.wrap(name, raw, track_receiver)
        self._undo.append((setattr, cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    # -- reading ---------------------------------------------------------

    def spans(self) -> "Spans":
        if len(self._stack) != 1:
            raise RuntimeError("spans read while a traced call is open")
        return Spans(list(self.names),
                     np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                     np.frombuffer(self.parents, dtype=np.int32).copy(),
                     np.frombuffer(self.starts, dtype=np.int64).copy(),
                     np.frombuffer(self.ends, dtype=np.int64).copy())


class Spans:
    """Finished spans as columns; a span's parent always precedes it."""

    def __init__(self, names, name_ids, parents, starts, ends):
        self.names = names
        self.name_ids = name_ids
        self.parents = parents
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.name_ids)

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    def self_times(self) -> np.ndarray:
        """Duration minus the time covered by each span's direct children.

        Calls nest strictly on one thread, so direct children never
        overlap one another and lie inside their parent."""
        dur = self.durations
        has_parent = self.parents >= 0
        covered = np.bincount(self.parents[has_parent],
                              weights=dur[has_parent],
                              minlength=len(self)).astype(np.int64)
        return dur - covered

    def mask(self, name: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Spans called ``name`` among indices [lo, hi)."""
        out = np.zeros(len(self), dtype=bool)
        if name in self.names:
            sel = self.name_ids[lo:hi] == self.names.index(name)
            out[lo:lo + len(sel)] = sel
        return out

    def has_ancestor(self, index: int, name: str) -> bool:
        if name not in self.names:
            return False
        nid = self.names.index(name)
        p = self.parents[index]
        while p >= 0:
            if self.name_ids[p] == nid:
                return True
            p = self.parents[p]
        return False

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_ids=self.name_ids, parents=self.parents,
                            starts=self.starts, ends=self.ends)
