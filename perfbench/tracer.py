"""Outside-in tracing of the qdeg layers.

The tracer replaces chosen functions and methods of the installed ``qdeg``
package with wrappers that count calls and time spans, then restores them.
Nothing under ``src/`` knows about it.  A module-level function is rebound in
every ``qdeg`` module that holds a reference to it, so names imported with
``from .x import f`` (or under an alias such as ``_d_x``) are traced too; a
method is replaced on its class.

A span's self time is its duration minus the time covered by the spans it
encloses.  A call made while the same function is already on the stack (a
recursive ``bruhat_leq``) opens no span and is not counted, so only the
outermost call contributes calls, keys and self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: ``name`` is the metric prefix, ``qualname`` the attribute path."""

    name: str
    module: str
    qualname: str
    key: Callable | None = None  # argument key for distinct_frac; None = not recorded
    post: Callable | None = None  # result -> labels counted into `labels`
    count_only: bool = False  # no span: calls are counted, time stays with the caller


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    labels: int = 0
    keys: set = field(default_factory=set)
    active: bool = False

    def distinct_frac(self) -> float:
        """Distinct argument keys / outermost calls; 0 when never called."""
        return len(self.keys) / self.calls if self.calls else 0.0


class Tracer:
    """Install with ``with Tracer(targets) as t:``; read ``t.stats`` afterwards."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.stats = {t.name: Stat() for t in self.targets}
        self.missing: list[str] = []  # targets that no longer exist in the program
        self._stack: list[float] = []  # per open span: time covered by its children
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        owner = module
        try:
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            self.missing.append(target.name)
            return
        wrapper = self._wrap(original, self.stats[target.name], target)
        if path:  # a method: replacing it on the class reaches every caller
            self._rebind(owner, attr, original, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qdeg" or name.startswith("qdeg.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, alias, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, fn, stat: Stat, target: Target):
        if target.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        key, post = target.key, target.post

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stat.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            if key is not None:
                stat.keys.add(key(*args, **kwargs))
            stat.active = True
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.active = False
            if post is not None:
                stat.labels += post(result)
            return result

        return spanned
