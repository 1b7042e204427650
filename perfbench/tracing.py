"""Spans and counters around hyp2's public entry points, installed from outside.

The wrappers live here, not in the package: `install` finds every binding of
each target function in the loaded `hyp2` modules and classes (a name bound by
`from .x import f`, a `staticmethod` holding it, `__rmul__ = __mul__`) and
replaces each one; `uninstall` puts every original object back and checks that
it is back.

Timed targets record a span: [name, start, end, parent index, op id, time
covered by child spans].  Self time is end - start - covered.  Fine-grained
targets cost about as much as the timer, so they are counted, not timed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

_MARK = "__perfbench_wrapper__"
#: Prefix of the stderr line on which a traced CLI child reports its trace.
MARKER = "PERFBENCH_TRACE "

#: (module, qualified name) of every timed target.
TIMED = (
    ("hyp2.dmodule", "DSubmodule.__init__"),
    ("hyp2.dmodule", "DSubmodule.extend"),
    ("hyp2.dmodule", "DSubmodule.contains"),
    ("hyp2.dmodule", "DSubmodule.component_contains"),
    ("hyp2.two_norm", "wedge_area_batch"),
    ("hyp2.two_norm", "axiom_check"),
    ("hyp2.two_functional", "norm_spectral"),
    ("hyp2.two_functional", "norm_bruteforce"),
    ("hyp2.two_functional", "is_bounded_check"),
    ("hyp2.hahn_banach", "full_extend"),
    ("hyp2.hahn_banach", "ExtensionTrace.audit"),
    ("hyp2.hahn_banach", "corollary_functional"),
    ("hyp2.cli", "main"),
)

#: (module, qualified name, counter) of every counted target.
COUNTED = (
    ("hyp2.hyperbolic", "Hyperbolic.__init__", "hyperbolic.scalars"),
    ("hyp2.hyperbolic", "Hyperbolic.__mul__", "hyperbolic.mul_calls"),
    ("hyp2.dmodule", "DVector.__init__", "dmodule.dvectors"),
    ("hyp2.dmodule", "DVector.from_components", "dmodule.dvectors"),
    ("hyp2.two_norm", "D2Norm.__call__", "two_norm.d2norm_calls"),
)

COUNTERS = (
    "hyperbolic.scalars",
    "hyperbolic.mul_calls",
    "hyperbolic.mul_fallbacks",
    "dmodule.dvectors",
    "two_norm.d2norm_calls",
    "two_norm.wedge_rows",
    "two_functional.bruteforce_pairs",
    "hahn_banach.steps",
    "hahn_banach.repaired",
    "hahn_banach.audit_fail.restriction",
    "hahn_banach.audit_fail.pointwise",
    "hahn_banach.audit_fail.norm",
)


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('hyp2.')}.{qualname}"


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []

    def timed(self, name: str, func, hook=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def counted_mul(self, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            counts["hyperbolic.mul_calls"] += 1
            if result is NotImplemented:
                counts["hyperbolic.mul_fallbacks"] += 1
            return result

        return wrapper

    def summary(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


# -- hooks: work counts read off a timed call's arguments or result ----------


def _wedge_rows(counts, args, kwargs, result):
    counts["two_norm.wedge_rows"] += len(result)


def _bruteforce_pairs(signature):
    def hook(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["two_functional.bruteforce_pairs"] += 2 * int(bound.arguments["budget"])

    return hook


def _extension_steps(counts, args, kwargs, result):
    counts["hahn_banach.steps"] += len(result.steps)
    counts["hahn_banach.repaired"] += int(result.repaired)


def _audit_failures(counts, args, kwargs, result):
    for check in ("restriction", "pointwise", "norm"):
        if not result[f"{check}_ok"]:
            counts[f"hahn_banach.audit_fail.{check}"] += 1


def _hook_for(name: str, func):
    if name == "two_norm.wedge_area_batch":
        return _wedge_rows
    if name == "two_functional.norm_bruteforce":
        return _bruteforce_pairs(inspect.signature(func))
    if name == "hahn_banach.full_extend":
        return _extension_steps
    if name == "hahn_banach.ExtensionTrace.audit":
        return _audit_failures
    return None


# -- finding and replacing bindings ------------------------------------------


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return _unwrap(obj)


def _namespaces():
    """Every loaded hyp2 module and every class those modules define."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if name != "hyp2" and not name.startswith("hyp2."):
            continue
        yield mod
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("hyp2") and id(value) not in seen:
                seen.add(id(value))
                yield value


def _unwrap(value):
    return value.__func__ if isinstance(value, (staticmethod, classmethod)) else value


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding of every target; returns the patches for `uninstall`."""
    import hyp2.cli  # noqa: F401  (binds the names cli and acceptance import)

    replacements = {}
    for module, qualname in TIMED:
        func = _resolve(module, qualname)
        name = span_name(module, qualname)
        replacements[id(func)] = (func, tracer.timed(name, func, _hook_for(name, func)))
    for module, qualname, key in COUNTED:
        func = _resolve(module, qualname)
        if qualname == "Hyperbolic.__mul__":
            replacements[id(func)] = (func, tracer.counted_mul(func))
        else:
            replacements[id(func)] = (func, tracer.counted(key, func))
    patches = []
    for owner in _namespaces():
        for key, value in list(vars(owner).items()):
            target = replacements.get(id(_unwrap(value)))
            if target is None or _unwrap(value) is not target[0]:
                continue
            wrapper = target[1]
            setattr(wrapper, _MARK, True)
            new = type(value)(wrapper) if isinstance(value, (staticmethod, classmethod)) else wrapper
            setattr(owner, key, new)
            patches.append((owner, key, value))
    missing = [f for f, _ in replacements.values() if not any(_unwrap(v) is f for _, _, v in patches)]
    if missing:
        raise RuntimeError(f"no binding found for {missing}")
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Put every original object back, then check that nothing wrapped is left."""
    for owner, key, value in reversed(patches):
        setattr(owner, key, value)
    for owner, key, value in patches:
        if vars(owner)[key] is not value:
            raise RuntimeError(f"{owner!r}.{key} was not restored")
    assert_pristine()


def wrapped_bindings() -> list[str]:
    return [
        f"{getattr(owner, '__name__', owner)}.{key}"
        for owner in _namespaces()
        for key, value in vars(owner).items()
        if getattr(_unwrap(value), _MARK, False)
    ]


def assert_pristine() -> None:
    """Raise if any hyp2 binding is still one of this module's wrappers."""
    left = wrapped_bindings()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


def merge(into: dict, other: dict, op: int) -> None:
    """Append a child process's spans (re-indexed, under op id `op`) and counts."""
    offset = len(into["spans"])
    for name, t0, t1, parent, _, covered in other["spans"]:
        into["spans"].append([name, t0, t1, parent + offset if parent >= 0 else -1, op, covered])
    for key, value in other["counts"].items():
        into["counts"][key] += value


def self_times(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total self seconds, total inclusive seconds)."""
    out: dict[str, list] = {}
    for name, t0, t1, _parent, _op, covered in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (t1 - t0) - covered
        row[2] += t1 - t0
    return {k: tuple(v) for k, v in out.items()}
