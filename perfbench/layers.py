"""Per-layer attribution for the traced benchmark run.

The benchmark wraps the public functions of each layer in nesting-aware
timers: every call opens a span on one stack, and a layer's self time
is its span minus the time of the spans opened inside it.  A call that
re-enters the layer it is already in (``super().tell`` inside a
strategy's ``tell``) stays part of the outer span.

Wrapping replaces every binding of a target function in every loaded
``repro`` module and class, because modules from-import these functions
(``estimate_kernel_time`` alone is bound in eight).  ``unwrapped``
re-scans for bindings still holding an original, so a lazily imported
module that bound one after installation fails the run instead of
silently dropping its calls from the split.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, qualified names).  One layer may span several
#: functions (``gemm.packing``).
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("serve.sched.submit", "repro.serve.sched.scheduler", ("AsyncScheduler.submit",)),
    ("serve.sched.step", "repro.serve.sched.scheduler", ("AsyncScheduler.step",)),
    ("serve.service.submit", "repro.serve.service", ("GemmService.submit",)),
    ("serve.service.submit_batch", "repro.serve.service", ("GemmService.submit_batch",)),
    ("serve.verify.check", "repro.serve.verify", ("FreivaldsVerifier.check",)),
    ("gemm.packing", "repro.gemm.packing", ("pack_operand", "prepare_c", "crop_c")),
    ("clsim.execute_plan", "repro.clsim.executor", ("execute_plan",)),
    ("perfmodel.estimate_kernel_time", "repro.perfmodel.model", ("estimate_kernel_time",)),
    ("codegen.emit_kernel_source", "repro.codegen.emitter", ("emit_kernel_source",)),
    ("analyze.gate", "repro.analyze.verifier", ("StaticVerifier.gate",)),
    ("analyze.analyze", "repro.analyze.verifier", ("StaticVerifier.analyze",)),
    ("tuner.measure_once", "repro.tuner.parallel", ("measure_once",)),
    ("tuner.evaluate", "repro.tuner.parallel", ("CandidateEvaluator.evaluate",)),
    ("obs.span", "repro.obs", ("Observability.span",)),
    # Entering and leaving a span is part of its cost, not another span.
    ("obs.span", "repro.obs.trace", ("Span.__enter__", "Span.__exit__")),
    ("analyze.host.parse", "repro.analyze.host.model", ("parse_source",)),
    ("analyze.host.segment", "repro.analyze.host.model", ("LintSource.segment",)),
)

#: Targets whose time counts toward their layer but whose calls do not.
UNCOUNTED = frozenset({"repro.obs.trace.Span.__enter__", "repro.obs.trace.Span.__exit__"})

#: Method families wrapped on a base class and on every subclass that
#: defines its own version: (layer template, module, base class,
#: methods).  The template takes the strategy name or rule id from the
#: instance.
FAMILIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("tuner.strategies.{name}.{method}", "repro.tuner.strategies.base",
     "SearchStrategy", ("ask", "tell")),
    ("analyze.host.rule.{rule_id}", "repro.analyze.host.engine",
     "HostRule", ("check", "finalize")),
)

#: Strategies the tune_catalog workload runs, split out per strategy.
STRATEGIES = ("exhaustive", "surrogate")

#: The nine host-lint rule ids (fixed so the metric list is static).
RULE_IDS = (
    "host.except.bare",
    "host.except.swallow",
    "host.lock.order",
    "host.obs.counter-dec",
    "host.obs.span-leak",
    "host.persist.raw-write",
    "host.race.unlocked-attr",
    "host.rng.unseeded",
    "host.time.wallclock",
)

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_ms``.
TIMED_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS)) + (
    "tuner.strategies.ask",
    "tuner.strategies.tell",
) + tuple(f"tuner.strategies.{s}.{m}" for s in STRATEGIES for m in ("ask", "tell"))


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric of a traced run, as (name, unit)."""
    names: List[Tuple[str, str]] = []
    for layer in TIMED_LAYERS:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_ms", "ms"))
    names += [(f"analyze.host.rule.{r}.self_ms", "ms") for r in RULE_IDS]
    names += [
        ("serve.sched.ops_per_step", "op"),
        ("clsim.execute_plan.calls_per_op", "count"),
        ("perfmodel.estimate_kernel_time.repeat_share", "ratio"),
        ("codegen.emit_kernel_source.repeat_share", "ratio"),
        ("trace.overhead_share", "ratio"),
        ("host.ref_loop_ms", "ms"),
    ]
    return names


def _estimate_key(args, kwargs):
    spec, params, M, N, K = (list(args) + [None] * 5)[:5]
    spec = kwargs.get("spec", spec)
    params = kwargs.get("params", params)
    return (spec.codename, params.cache_key(),
            kwargs.get("M", M), kwargs.get("N", N), kwargs.get("K", K))


def _emit_key(args, kwargs):
    return kwargs.get("params", args[0] if args else None).cache_key()


#: Layers whose distinct call keys are tracked for ``repeat_share``.
KEYED = {
    "perfmodel.estimate_kernel_time": _estimate_key,
    "codegen.emit_kernel_source": _emit_key,
}


class LayerTimer:
    """Nesting-aware call timer: calls and self seconds per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.keys: Dict[str, set] = {name: set() for name in KEYED}
        #: Open spans: [layer, seconds spent in child spans].
        self._stack: List[list] = []

    def _enter(self, layer: str) -> Optional[list]:
        if self._stack and self._stack[-1][0] == layer:
            return None
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float, counted: bool = True) -> None:
        self._stack.pop()
        layer = frame[0]
        self.calls[layer] = self.calls.get(layer, 0) + counted
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, fn: Callable, layer_of: Callable[[tuple], str],
             counted: bool = True) -> Callable:
        """A timed stand-in for ``fn``; ``layer_of(args)`` names the layer."""
        clock = self.clock
        if inspect.isgeneratorfunction(fn):
            # Time each resume, so the caller's work between items is
            # not charged to the generator's layer.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                layer = layer_of(args)
                it = fn(*args, **kwargs)
                while True:
                    frame = self._enter(layer)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            self._exit(frame, clock() - start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = layer_of(args)
            frame = self._enter(layer)
            if frame is None:
                return fn(*args, **kwargs)
            key_of = KEYED.get(layer)
            if key_of is not None:
                self.keys[layer].add(key_of(args, kwargs))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, clock() - start, counted)

        return wrapper


def _loaded_modules() -> List[object]:
    """Loaded ``repro`` modules."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _bindings(modules: Sequence[object]):
    """Yield (owner, attribute, value) for module globals and for the
    attributes of classes those modules define."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            yield module, attr, value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    yield value, cattr, cvalue


def _resolve(module_name: str, qualname: str) -> Tuple[object, str]:
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _family_layer(template: str, method: str) -> Callable[[tuple], str]:
    def layer_of(args: tuple) -> str:
        obj = args[0]
        return template.format(name=getattr(obj, "name", ""),
                               rule_id=getattr(obj, "rule_id", ""),
                               method=method)
    return layer_of


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class Instrumentation:
    """Installs a :class:`LayerTimer` over every target binding."""

    def __init__(self) -> None:
        self.timer = LayerTimer()
        #: id(original) -> (original, wrapper, description).
        self._originals: Dict[int, Tuple[Callable, Callable, str]] = {}
        #: (owner, attribute, original) of every replaced binding.
        self._replaced: List[Tuple[object, str, Callable]] = []

    def _add(self, fn: Callable, layer_of: Callable[[tuple], str], desc: str) -> None:
        if id(fn) not in self._originals:
            wrapper = self.timer.wrap(fn, layer_of, counted=desc not in UNCOUNTED)
            self._originals[id(fn)] = (fn, wrapper, desc)

    def install(self) -> int:
        """Wrap every target; returns the number of bindings replaced."""
        for layer, module_name, qualnames in TARGETS:
            for qualname in qualnames:
                owner, attr = _resolve(module_name, qualname)
                self._add(vars(owner)[attr], lambda args, _l=layer: _l,
                          f"{module_name}.{qualname}")
        for template, module_name, base_name, methods in FAMILIES:
            base = getattr(importlib.import_module(module_name), base_name)
            for cls in _subclasses(base):
                for method in methods:
                    fn = vars(cls).get(method)
                    if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                        self._add(fn, _family_layer(template, method),
                                  f"{cls.__module__}.{cls.__qualname__}.{method}")
        for owner, attr, (original, wrapper, _) in self._held_originals():
            setattr(owner, attr, wrapper)
            self._replaced.append((owner, attr, original))
        return len(self._replaced)

    def _held_originals(self):
        """(owner, attribute, entry) for each binding holding an original."""
        for owner, attr, value in _bindings(_loaded_modules()):
            entry = self._originals.get(id(value))
            if entry is not None and entry[0] is value:
                yield owner, attr, entry

    def uninstall(self) -> None:
        """Put every replaced binding back."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def unwrapped(self) -> List[str]:
        """Bindings that still hold an original target function."""
        left = []
        for owner, attr, (_, _, desc) in self._held_originals():
            where = (f"{owner.__module__}.{owner.__qualname__}"
                     if isinstance(owner, type) else owner.__name__)
            left.append(f"{where}.{attr} is {desc}")
        return sorted(left)

    def report(self, ops: int) -> Dict[str, float]:
        """Per-layer metric values (ms, counts and ratios)."""
        timer = self.timer
        calls, self_s = dict(timer.calls), dict(timer.self_s)
        for method in ("ask", "tell"):
            agg = f"tuner.strategies.{method}"
            for layer in [k for k in calls if k.startswith("tuner.strategies.")
                          and k.endswith("." + method) and k != agg]:
                calls[agg] = calls.get(agg, 0) + calls[layer]
                self_s[agg] = self_s.get(agg, 0.0) + self_s[layer]
        values: Dict[str, float] = {}
        for layer in TIMED_LAYERS:
            values[f"{layer}.calls"] = calls.get(layer, 0)
            values[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1e3
        for rule in RULE_IDS:
            values[f"analyze.host.rule.{rule}.self_ms"] = (
                self_s.get(f"analyze.host.rule.{rule}", 0.0) * 1e3)
        steps = calls.get("serve.sched.step", 0)
        values["serve.sched.ops_per_step"] = ops / steps if steps else 0.0
        values["clsim.execute_plan.calls_per_op"] = (
            calls.get("clsim.execute_plan", 0) / ops if ops else 0.0)
        for layer in KEYED:
            n = calls.get(layer, 0)
            values[f"{layer}.repeat_share"] = (
                1.0 - len(timer.keys[layer]) / n if n else 0.0)
        return values
