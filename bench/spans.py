"""Span wrappers around pblock's public functions, for the traced run only.

Spans are aggregated as they close instead of being stored one by one: a
p = 23 verify opens about a million of them.  For every wrapped function the
tracer keeps its call count, the time of its outermost spans and their self
time (span time minus the time its child spans cover).  A call made while the
same function already has an open span (recursion, such as ``is_jm_fayers``
on quotient components or ``partitions_of`` on its tail) is counted but opens
no span, so its time stays with the outer span.

The per-bead accessors ``AbacusDisplay.runner``, ``row`` and
``beads_on_runner`` are never wrapped: ``runner`` alone runs about 120M times
at p = 23 and a span around it would swamp the numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("partitions", "hooks", "abacus", "mullineux", "blocks", "verify", "cli")


def submodule(package, name: str):
    # Not getattr: the package re-exports the function ``mullineux`` under the
    # name of its module.
    return importlib.import_module(f"{package.__name__}.{name}")

# Functions that get a span, per module.  ``verify`` is traced through the
# entries of ``verify.CHECKS`` instead (one span per check).
TRACED = {
    "abacus": ("p_core", "p_weight", "AbacusDisplay.from_partition",
               "AbacusDisplay.normal_beads", "reordered_quotient", "is_jm_fayers"),
    # enumerate_block has its own span: the first check to ask for a block
    # (jm-classification, in sorted order) would otherwise carry its cost.
    "blocks": ("enumerate_block", "to_3p", "from_3p", "classify_3p", "theta",
               "in_lambda_set", "partners", "loewy_length", "encode_notation",
               "decode_notation"),
    "hooks": ("is_jm_direct", "hook_lengths"),
    "partitions": ("partitions_of", "normal_nodes"),
    "mullineux": ("mullineux", "mullineux_symbol", "partition_from_symbol", "parity",
                  "check_good_node_compatibility"),
    "cli": ("main",),
}

CHECK_NAMES = ("jm-classification", "xi-sets", "prop31", "prop212", "lemma34",
               "mullineux-conformance", "parity-flip", "theta-table", "partner-counts",
               "loewy-partition", "oracle-equivalence")

# Functions whose functools cache is read at the end of a run.
CACHED = (("abacus", "is_jm_fayers"), ("mullineux", "mullineux"),
          ("mullineux", "mullineux_symbol"), ("blocks", "enumerate_block"))


class _Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = False


class Tracer:
    """Aggregates nested spans: calls, outermost time and self time per name."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        # Time covered by the closed children of each open span, innermost last.
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, stat: _Stat) -> float:
        stat.active = True
        self._children.append(0.0)
        return time.perf_counter()

    def _close(self, stat: _Stat, start: float) -> None:
        elapsed = time.perf_counter() - start
        stat.active = False
        stat.total += elapsed
        stat.self_time += elapsed - self._children.pop()
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, name: str, fn):
        """A function that returns what ``fn`` returns, inside a span named ``name``."""
        stat = self.stats.setdefault(name, _Stat())
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(stat, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if stat.active:
                return fn(*args, **kwargs)
            start = self._open(stat)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stat, start)

        return traced

    def _wrap_generator(self, stat: _Stat, fn):
        # Each resumption is its own span: between resumptions the consumer runs.
        def resume_in_spans(gen):
            while True:
                start = self._open(stat)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(stat, start)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if stat.active:
                return fn(*args, **kwargs)
            return resume_in_spans(fn(*args, **kwargs))

        return traced

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the TRACED functions in every module that binds them, and each check."""
        modules = [package] + [submodule(package, name) for name in MODULES]
        for module_name, names in TRACED.items():
            module = submodule(package, module_name)
            for qualname in names:
                span = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__.get(attr)
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self.wrap(span, raw.__func__)))
                    elif raw is not None:
                        self._set(cls, attr, self.wrap(span, raw))
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    continue
                traced = self.wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, traced)
        checks = submodule(package, "verify").CHECKS
        for name in list(checks):
            self._set(checks, name, self.wrap(f"verify.{name}", checks[name]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def report(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.s`` per span, and ``<module>.self_s``."""
        out = {f"{module}.self_s": 0.0 for module in MODULES}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.total
            module_self = f"{name.split('.')[0]}.self_s"
            out[module_self] = out.get(module_self, 0.0) + stat.self_time
        return out


def cache_reader(package):
    """A function returning ``hits``, ``misses`` and ``currsize`` of each CACHED function.

    It holds the cached objects themselves, so make it before
    ``Tracer.install`` replaces the module bindings.  A function without a
    cache reads as 0.
    """
    cache_infos = {}
    for module_name, name in CACHED:
        fn = getattr(submodule(package, module_name), name, None)
        cache_infos[f"{module_name}.{name}"] = getattr(fn, "cache_info", None)

    def read() -> dict[str, int]:
        out = {}
        for span, cache_info in cache_infos.items():
            info = cache_info() if cache_info else None
            for field in ("hits", "misses", "currsize"):
                out[f"{span}.{field}"] = getattr(info, field, 0)
        return out

    return read
