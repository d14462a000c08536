"""Spans around the package's public functions, installed from outside.

The tracer replaces each named function or method with a wrapper while it
is installed and restores the originals afterwards; nothing under `src/` is
edited. A module-level function is replaced in every loaded `artipose`
module that holds it, so callers that imported it by name (`from .geometry
import box_iou`) are traced too.

For every traced name it keeps the call count, the inclusive time (outermost
calls only, so recursion is not counted twice) and the self time (inclusive
time minus the time of wrapped calls made under it). Count-only names skip
the clock, for functions called thousands of times per unit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "artipose"


class Stat:
    __slots__ = ("calls", "incl", "self", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.active = 0


class Tracer:
    def __init__(self, timed, counted=(), observers=None):
        """timed / counted: names such as "synth.io.generate_dataset" or
        "autodiff.Tape.backward" (module path below the package, then the
        attribute path). observers: {name: fn(args, kwargs, result)}."""
        self.timed = list(timed)
        self.counted = list(counted)
        self.observers = dict(observers or {})
        self.stats = {name: Stat() for name in self.timed + self.counted}
        self._stack = []  # child-time accumulators of the open spans
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _timed_wrapper(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        observe = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.active -= 1
                if not stat.active:
                    stat.incl += elapsed
                stat.self += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self):
        for name in self.timed:
            self._patch(name, self._timed_wrapper)
        for name in self.counted:
            self._patch(name, self._count_wrapper)
        return self

    def _patch(self, name, make_wrapper):
        parts = name.split(".")
        # longest importable module prefix, then attributes below it
        for cut in range(len(parts) - 1, 0, -1):
            try:
                module = importlib.import_module(".".join([PACKAGE, *parts[:cut]]))
                break
            except ModuleNotFoundError:
                continue
        else:
            raise LookupError(f"no module for traced name {name!r}")
        owner = module
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        attr = parts[-1]
        if not hasattr(owner, attr):
            raise LookupError(f"traced name {name!r} not found")
        original = getattr(owner, attr)
        wrapper = make_wrapper(name, original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name].calls

    def ms(self, name) -> float:
        return 1000.0 * self.stats[name].incl

    def self_ms(self, name) -> float:
        return 1000.0 * self.stats[name].self
