"""Per-module timing of dvfsim from outside the program.

``Tracer.install`` rebinds, in every dvfsim module's namespace, each name that
refers to a function defined in another dvfsim module to a timing wrapper
attributed to the callee's module. A call the CLI makes to ``load_scenario``
is therefore charged to ``config`` whatever the function is called. Inside
``engine`` three families of functions are also wrapped for the calls the
module makes to itself, so that they can be reported on their own: the run
entry point (``simulate``), the scenario validator (names containing
``validate``) and trace sampling (names containing ``trace``). ``uninstall``
restores every binding. Nothing under ``src/`` is edited.

Times are host seconds from ``time.perf_counter`` (the worker scales them
by the pass's host-speed factor, see ``hostspeed``):

* ``incl`` (reported as ``<module>.s``) is inclusive: time while the module
  is on the call stack, counting only its outermost entry, so nested calls
  into the same module are not counted twice;
* ``excl`` is exclusive: the module's own code, minus the calls it makes into
  other modules. The exclusive times of all modules sum to ``cli.s``.
  ``cli.self_s`` reports the CLI's; ``engine.self_s`` the engine's minus
  trace sampling's own code.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "config", "engine", "workload", "transitions", "power", "thermal", "reporting")

_perf = time.perf_counter


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_per_simulate")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self, package: str, modules: dict):
        self.package = package
        self.modules = modules  # short name -> module object
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.keep_spans = False
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero every counter and drop recorded spans."""
        self.incl = dict.fromkeys(self.modules, 0.0)
        self.excl = dict.fromkeys(self.modules, 0.0)
        self.calls = dict.fromkeys(self.modules, 0)
        self.depth = dict.fromkeys(self.modules, 0)
        self.tag_incl = {"simulate": 0.0, "validate": 0.0, "trace": 0.0}
        self.tag_excl = dict.fromkeys(self.tag_incl, 0.0)
        self.tag_calls = dict.fromkeys(self.tag_incl, 0)
        self.tag_depth = dict.fromkeys(self.tag_incl, 0)
        self.results: dict[str, list] = {"simulate": [], "trace": []}
        self.spans: list[tuple] = []  # (name, module, start, end, parent index)
        self._stack: list[list] = []  # [module, tag, child seconds, span index]

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, module: str, tag: str | None = None):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        tracer = self
        name = f"{module}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][3] if stack else -1
            span = -1
            if tracer.keep_spans:
                span = len(tracer.spans)
                tracer.spans.append(None)
            frame = [module, tag, 0.0, span]
            stack.append(frame)
            tracer.depth[module] += 1
            if tag:
                tracer.tag_depth[tag] += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                tracer.excl[module] += own
                tracer.calls[module] += 1
                tracer.depth[module] -= 1
                if tracer.depth[module] == 0:
                    tracer.incl[module] += dur
                if tag:
                    tracer.tag_excl[tag] += own
                    tracer.tag_calls[tag] += 1
                    tracer.tag_depth[tag] -= 1
                    if tracer.tag_depth[tag] == 0:
                        tracer.tag_incl[tag] += dur
                if span >= 0:
                    tracer.spans[span] = (name, module, t0, t1, parent)
            if tag in tracer.results:
                tracer.results[tag].append(result)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    def _module_of(self, fn) -> str | None:
        mod = getattr(fn, "__module__", "") or ""
        prefix = self.package + "."
        if inspect.isfunction(fn) and mod.startswith(prefix):
            short = mod[len(prefix) :]
            if short in self.modules:
                return short
        return None

    @staticmethod
    def _engine_tag(name: str) -> str | None:
        if name == "simulate":
            return "simulate"
        if "validate" in name:
            return "validate"
        if "trace" in name:
            return "trace"
        return None

    def install(self) -> None:
        """Rebind cross-module function names (and engine's tagged ones) to wrappers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for short, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                callee = self._module_of(obj)
                if callee is None:
                    continue
                tag = self._engine_tag(obj.__name__) if callee == "engine" else None
                if callee != short or (short == "engine" and tag):
                    self._saved.append((module, name, obj))
                    setattr(module, name, self.wrap(obj, callee, tag))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def entry(self, fn):
        """Wrap the CLI entry point, which no dvfsim module calls."""
        return self.wrap(fn, self._module_of(fn))
