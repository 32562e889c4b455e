"""Span tracing of the nakafit modules from outside the package.

`Tracer.install` replaces every public function of the traced modules at
every binding site inside the package: module attributes (including names
bound by `from .x import y`) and module-level dicts that hold the function,
such as dispatch tables. Each call records a span (function, start, end,
parent span) in memory; `Tracer.collect` folds the spans of one command into
per-function self times and call counts and clears them. Nothing in the
package is edited, and `uninstall` puts every original binding back.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = (
    "specfun",
    "nakagami",
    "estimators",
    "blockwise",
    "bounds",
    "montecarlo",
    "hmrf",
    "pgm",
    "cli",
)


def public_functions(package, modules=MODULES):
    """Map each public function defined in `modules` to its 'module.name' key."""
    out = {}
    for short in modules:
        mod = importlib.import_module(f"{package}.{short}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = f"{short}.{name}"
    return out


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and their union is
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_s = run_e = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_e is None or s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = s, e
            elif e > run_e:
                run_e = e
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


class Tracer:
    """Records one span per call of a wrapped function.

    `hooks` maps a function key to `hook(counters, args, kwargs, result)`,
    called after the span closes on a normal return; it derives counts from
    public arguments and return values. Exceptions leaving a function are
    counted once per exception object and module in `errors`.
    """

    def __init__(self, package="nakafit", modules=MODULES, hooks=None, clock=time.perf_counter):
        self.package = package
        self.targets = public_functions(package, modules)
        self.hooks = hooks or {}
        self.clock = clock
        self.keys = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = defaultdict(int)
        self.errors = defaultdict(int)
        self._stack = [-1]
        self._raised = {}
        self._patches = []
        self._wrapped = {fn: self._wrap(fn, key) for fn, key in self.targets.items()}

    def _wrap(self, fn, key):
        keys, starts, ends, parents, stack = self.keys, self.starts, self.ends, self.parents, self._stack
        clock = self.clock
        hook = self.hooks.get(key)
        module = key.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(keys)
            keys.append(key)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                self._note_error(module, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def _note_error(self, module, exc):
        seen = self._raised.setdefault(id(exc), (exc, set()))[1]
        if module not in seen:
            seen.add(module)
            self.errors[(module, type(exc).__name__)] += 1

    def install(self):
        if self._patches:
            return
        wrapped = self._wrapped
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if name != self.package and not name.startswith(prefix):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((space, attr, value))
                    space[attr] = wrapped[value]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._patches.append((value, k, v))
                            value[k] = wrapped[v]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def collect(self):
        """Fold the recorded spans into per-key totals and clear them.

        Returns (self seconds by key, calls by key, counters, errors by
        (module, exception class)).
        """
        own = self_times(self.starts, self.ends, self.parents)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for key, t in zip(self.keys, own):
            self_s[key] += t
            calls[key] += 1
        out = (dict(self_s), dict(calls), dict(self.counters), dict(self.errors))
        for buf in (self.keys, self.starts, self.ends, self.parents):
            buf.clear()
        self.counters.clear()
        self.errors.clear()
        self._raised.clear()
        return out
