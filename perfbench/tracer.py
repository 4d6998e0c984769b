"""Outside-in span recorder for the horolab layers.

The recorder wraps each layer's public functions from outside the
package: every module namespace that binds a function gets the wrapper,
so calls made inside the package (``cocycle`` calling ``realize``) are
seen as well as calls made by the benchmark.  A span is a list
``[name, start, end, parent, failed]`` kept in memory; ``parent`` is the
index of the enclosing span, or -1.  A layer's self time is its spans'
duration minus the duration of their child spans.

Hot leaves (``maps.evaluate``, ``Linearizer._pullback``) get a counter
instead of spans, so recording them costs one dictionary update.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import math
import sys
import time

# Modules whose public functions (defined in the module itself) get spans.
SPAN_LAYERS = ("orbits", "cocycle", "quadratic", "julia", "periodic", "reports")


class Tracer:
    """Records spans and counters while installed; restores on ``uninstall``."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.stack: list[int] = []
        self.seen_values: set = set()
        self._patched: list[tuple[object, str, object]] = []
        self._find_sigma = None
        self._misses_before = 0
        self.t0 = self.clock()

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, on_exit=None):
        """A wrapper recording one span per call; ``on_exit(args, kwargs,
        result, failed)`` runs after the span closes, with the enclosing
        spans still on the stack."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if on_exit is not None:
                    on_exit(args, kwargs, result, rec[4])

        return wrapper

    def counter(self, name: str, fn):
        """A wrapper that only counts calls."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, name: str) -> bool:
        """True when a span of that name encloses the current call."""
        spans = self.spans
        return any(spans[i][0] == name for i in self.stack)

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        """Patch every horolab module namespace."""
        from horolab import cli, maps, periodic, quadratic, suite

        self._find_sigma = quadratic.find_sigma
        self._misses_before = self._find_sigma.cache_info().misses
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "horolab" or n.startswith("horolab.")]
        hooks = self._hooks()
        for layer in SPAN_LAYERS:
            module = sys.modules[f"horolab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._replace(fn, self.span(name, fn, hooks.get(name)), namespaces)

        self._replace(maps.evaluate, self.counter("maps.evaluate.calls", maps.evaluate), namespaces)

        lin = periodic.Linearizer
        for attr, wrapper in (
            ("__call__", self.span("periodic.Linearizer.__call__", lin.__call__)),
            ("_pullback", self.counter("periodic.linearizer.pullbacks", lin._pullback)),
        ):
            self._patched.append((lin, attr, lin.__dict__[attr]))
            setattr(lin, attr, wrapper)

        # Criteria are timed through the registry run_battery iterates, not
        # through the module globals, so criterion_13's own calls to
        # criterion_1 stay inside criterion 13.
        for i, fn in enumerate(list(suite.CRITERIA)):
            suite.CRITERIA[i] = self.span(f"suite.criterion_{i + 1}", fn)
            self._patched.append((suite.CRITERIA, i, fn))
        self._replace(suite.criterion_13, self.span("suite.criterion_13", suite.criterion_13), [suite])
        self._replace(cli.main, self.span("cli.main", cli.main), namespaces)
        self.t0 = self.clock()

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            if isinstance(ns, list):
                ns[attr] = original
            else:
                setattr(ns, attr, original)
        self._patched.clear()
        if self._find_sigma is not None:
            misses = self._find_sigma.cache_info().misses - self._misses_before
            self.counts["quadratic.find_sigma.misses"] += misses
            self._find_sigma = None

    # -- counters at layer boundaries ---------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def realize(args, kwargs, result, failed):
            depth = args[1] if len(args) > 1 else kwargs["depth"]
            counts["orbits.realize.points"] += depth
            if self.inside("cocycle.basic_cocycle"):
                counts["cocycle.realized_points"] += depth

        def is_in_pi_a(args, kwargs, result, failed):
            if self.inside("quadratic.sample_words"):
                counts["quadratic.sample_words.pi_checks"] += 1

        def basic_cocycle(args, kwargs, result, failed):
            x, y = args[:2]
            key = (x, y, args[2] if len(args) > 2 else kwargs["tol"])
            if key in self.seen_values:
                counts["cocycle.repeat_values"] += 1
            self.seen_values.add(key)
            if failed:
                return
            counts["cocycle.values"] += 1
            counts["cocycle.depth_used"] += result.depth_used

        def sample_words(args, kwargs, result, failed):
            if not failed:
                counts["quadratic.sample_words.words"] += len(result)

        def julia_sample(args, kwargs, result, failed):
            if not failed:
                counts["julia.inverse_iteration_sample.points"] += len(result.points)
                counts["julia.resampled_paths"] += result.params["resampled_paths"]

        def all_roots(args, kwargs, result, failed):
            if not failed:
                counts["periodic.all_roots.degree_sum"] += sum(r.multiplicity for r in result)
                counts["periodic.all_roots.nonfinite"] += sum(
                    1 for r in result if not (math.isfinite(r.value.real) and math.isfinite(r.value.imag))
                )

        def collinearity(args, kwargs, result, failed):
            if not failed:
                counts["periodic.collinearity.points"] += result.n_points

        def atomic_write(args, kwargs, result, failed):
            text = args[1] if len(args) > 1 else kwargs["text"]
            counts["reports.files"] += 1
            counts["reports.bytes"] += len(text.encode("utf-8"))

        return {
            "orbits.realize": realize,
            "orbits.is_in_Pi_a": is_in_pi_a,
            "cocycle.basic_cocycle": basic_cocycle,
            "quadratic.sample_words": sample_words,
            "julia.inverse_iteration_sample": julia_sample,
            "periodic.all_roots": all_roots,
            "periodic.collinearity_in_linearizer": collinearity,
            "reports.atomic_write_text": atomic_write,
        }

    # -- results -----------------------------------------------------------

    def per_name(self) -> dict:
        """name -> {calls, failed, total_s, self_s} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, failed) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["failed"] += failed
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics, by name, as plain numbers."""
        spans = self.per_name()
        c = self.counts

        def get(name, key):
            return spans.get(name, {}).get(key, 0)

        def layer_self(layer):
            return sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "orbits.realize.calls": get("orbits.realize", "calls"),
            "orbits.realize.points": c["orbits.realize.points"],
            "orbits.realize.self_s": get("orbits.realize", "self_s"),
            "orbits.is_in_Pi_a.calls": get("orbits.is_in_Pi_a", "calls"),
            "orbits.concatenate.calls": get("orbits.concatenate", "calls"),
            "orbits.failed": get("orbits.realize", "failed"),
            "cocycle.values": c["cocycle.values"],
            "cocycle.self_s": layer_self("cocycle"),
            "cocycle.depth_used_mean": ratio(c["cocycle.depth_used"], c["cocycle.values"]),
            "cocycle.useful_point_ratio": ratio(2 * c["cocycle.depth_used"], c["cocycle.realized_points"]),
            "cocycle.repeat_values": c["cocycle.repeat_values"],
            "cocycle.field.calls": get("cocycle.cocycle_field", "calls"),
            "cocycle.failed": get("cocycle.basic_cocycle", "failed") + get("cocycle.cocycle_field", "failed"),
            "quadratic.find_sigma.calls": get("quadratic.find_sigma", "calls"),
            "quadratic.find_sigma.misses": c["quadratic.find_sigma.misses"],
            "quadratic.find_sigma.self_s": get("quadratic.find_sigma", "self_s"),
            "quadratic.find_sigma_delta.self_s": get("quadratic.find_sigma_delta", "self_s"),
            "quadratic.sample_words.self_s": get("quadratic.sample_words", "self_s"),
            "quadratic.sample_words.accept_ratio": ratio(
                c["quadratic.sample_words.words"], c["quadratic.sample_words.pi_checks"]
            ),
            "julia.inverse_iteration_sample.calls": get("julia.inverse_iteration_sample", "calls"),
            "julia.inverse_iteration_sample.points": c["julia.inverse_iteration_sample.points"],
            "julia.inverse_iteration_sample.self_s": get("julia.inverse_iteration_sample", "self_s"),
            "julia.resampled_paths": c["julia.resampled_paths"],
            "periodic.all_roots.calls": get("periodic.all_roots", "calls"),
            "periodic.all_roots.degree_sum": c["periodic.all_roots.degree_sum"],
            "periodic.all_roots.self_s": get("periodic.all_roots", "self_s"),
            "periodic.all_roots.nonfinite": c["periodic.all_roots.nonfinite"],
            "periodic.periodic_points.self_s": get("periodic.periodic_points", "self_s"),
            "periodic.linearizer.evals": get("periodic.Linearizer.__call__", "calls"),
            "periodic.linearizer.pullbacks": c["periodic.linearizer.pullbacks"],
            "periodic.linearizer.self_s": get("periodic.Linearizer.__call__", "self_s"),
            "periodic.build_linearizer.self_s": get("periodic.build_linearizer", "self_s"),
            "periodic.collinearity.points": c["periodic.collinearity.points"],
            "periodic.collinearity.self_s": get("periodic.collinearity_in_linearizer", "self_s"),
            "maps.evaluate.calls": c["maps.evaluate.calls"],
            "reports.files": c["reports.files"],
            "reports.bytes": c["reports.bytes"],
            "reports.self_s": layer_self("reports"),
        }
        for k in range(1, 14):
            m[f"suite.criterion_{k}.s"] = get(f"suite.criterion_{k}", "total_s")
        m["cli.main.self_s"] = get("cli.main", "self_s")
        return m

    def write_spans(self, path) -> None:
        """Spans as JSON, times in seconds from installation."""
        t0 = self.t0
        rows = [[n, s - t0, e - t0, p, f] for n, s, e, p, f in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "failed"], "spans": rows}, fh)
