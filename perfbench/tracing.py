"""Spans around calls into the public functions of each eqsing module.

The tracer lives in the benchmark, not in the package: `install()` rebinds
every public function (and every public plain method of a public class)
defined in an eqsing layer module, in every eqsing namespace that holds
it, to a wrapper that records a span.  `uninstall()` puts the originals
back, so untraced runs execute the package exactly as shipped.

Spans nest through one stack.  A span's self time is its duration minus
the durations of its direct child spans; the case itself is the root
span, so the self times of one traced case add up to its traced time.
Inclusive time is counted for the outermost active call of each name
only, so recursion and re-entry are not double counted.
"""
import importlib
import inspect
import time

LAYERS = ("diagram", "catalog", "action", "lattice", "monodromy", "linalg",
          "localalg", "cli")
ROOT_SPAN = "bench.case"
# linalg self time is also summed separately while this span is open, to
# show how much of the closure stage is exact linear algebra
CLOSURE = "monodromy.generate_group"


def _order_if_finite(verdict):
    return verdict.order if getattr(verdict, "kind", None) == "finite" else 0


def _truncation_degree(report):
    return report.truncation_degree


# counters read off return values at the boundary where the work happens
RESULT_COUNTERS = {
    "monodromy.generate_group": ("finite_order_sum", _order_if_finite),
    "localalg.milnor_number": ("truncation_degree_sum", _truncation_degree),
}


class Tracer:
    """Collects per-name self time, inclusive time and call counts."""

    def __init__(self):
        self._stack = []
        self._active = {}
        self._targets = None
        self.reset()

    def reset(self):
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.counters = {"finite_order_sum": 0, "truncation_degree_sum": 0}
        self.linalg_in_closure_s = 0.0

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        active = self._active
        clock = time.perf_counter
        is_linalg = name.startswith("linalg.")
        is_closure = name == CLOSURE
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            in_closure = is_closure or (parent is not None and parent[1])
            frame = [0.0, in_closure]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                depth = active[name] - 1
                active[name] = depth
                own = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                self.calls[name] = self.calls.get(name, 0) + 1
                if depth == 0:
                    self.total_s[name] = self.total_s.get(name, 0.0) + duration
                if is_linalg and in_closure:
                    self.linalg_in_closure_s += own
                if counter is not None and result is not None:
                    self.counters[counter[0]] += counter[1](result)

        traced.__wrapped__ = fn
        return traced

    def _discover(self):
        """[(namespace, attribute, original, wrapper)] for every rebinding."""
        package = importlib.import_module("eqsing")
        modules = {layer: importlib.import_module(f"eqsing.{layer}") for layer in LAYERS}
        wrappers = {}
        plan = []
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        if (meth.startswith("_") or not inspect.isfunction(fn)
                                or inspect.isgeneratorfunction(fn)):
                            continue
                        wrapped = self._wrap(f"{layer}.{attr}.{meth}", fn)
                        plan.append((value, meth, fn, wrapped))
        for namespace in [package, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    plan.append((namespace, attr, value, wrappers[value]))
        return plan

    def install(self):
        if self._targets is None:
            self._targets = self._discover()
        for namespace, attr, _original, wrapped in self._targets:
            setattr(namespace, attr, wrapped)

    def uninstall(self):
        for namespace, attr, original, _wrapped in self._targets or ():
            setattr(namespace, attr, original)

    # -- running a case --------------------------------------------------

    def run(self, fn):
        """Run `fn` as the root span; returns (result, seconds)."""
        frame = [0.0, False]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            self.self_s[ROOT_SPAN] = self.self_s.get(ROOT_SPAN, 0.0) + seconds - frame[0]
        if self._stack or any(self._active.values()):
            raise RuntimeError("span stack not balanced after the case")
        accounted = sum(self.self_s.values())
        if abs(accounted - seconds) > 1e-6 * max(1.0, seconds):
            raise RuntimeError(
                f"self times add up to {accounted:.9f} s, case took {seconds:.9f} s"
            )
        return result, seconds

    def record(self):
        """The aggregates collected since the last reset, as plain data."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "linalg_in_closure_s": self.linalg_in_closure_s,
        }
