"""In-memory span recorder and the module-attribute wrappers of a traced run.

A traced run replaces public functions of the vasosim modules at the
attributes where their callers look them up, records one span per call
(name, parent, call id, start, end, self time) and puts every original
object back when it ends. The package itself is not modified.

High-rate inner calls (the inversion objective, the forward echo and the
risk provider, tens of thousands per command call) are not recorded one
span each: they are aggregated as count and total time under their nearest
parent span, so that tracing does not dominate what it measures.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

from vasosim import acoustics, cli, hemogrid, inversion, risk, synthdata


class _Frame:
    __slots__ = ("name", "parent", "owner", "span_id", "start", "child_s",
                 "error", "agg")

    def __init__(self, name, parent, span_id):
        self.name = name
        self.parent = parent
        self.span_id = span_id
        # nearest enclosing frame that is recorded as a span
        self.owner = self if span_id is not None else (
            parent.owner if parent is not None else None)
        self.child_s = 0.0
        self.error = None
        self.agg = None


class Tracer:
    """Records spans and per-name totals; self time = duration - children."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.call_id = None
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self s
        self.parents = Counter()   # (name, parent name) -> calls
        self.errors = Counter()    # (name, exception type) -> calls
        self.stats = Counter()     # layer counters filled by after-hooks
        self._stack = []
        self._next_id = 0
        self._patched = []

    def run(self, name, aggregate, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = None
        if not aggregate:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, parent, span_id)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            frame.error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._finish(frame, end)

    def _finish(self, frame, end):
        dur = end - frame.start
        self_s = dur - frame.child_s
        parent = frame.parent
        if parent is not None:
            parent.child_s += dur
        tot = self.totals[frame.name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += self_s
        self.parents[(frame.name, parent.name if parent else None)] += 1
        if frame.error is not None:
            self.errors[(frame.name, frame.error)] += 1
        if frame.span_id is None:
            owner = frame.owner
            if owner is not None:
                if owner.agg is None:
                    owner.agg = {}
                entry = owner.agg.setdefault(frame.name, [0, 0.0])
                entry[0] += 1
                entry[1] += dur
            return
        owner = parent.owner if parent is not None else None
        self.spans.append({
            "id": frame.span_id,
            "parent": owner.span_id if owner is not None else None,
            "call": self.call_id,
            "name": frame.name,
            "start": frame.start - self.origin,
            "end": end - self.origin,
            "self_s": self_s,
            "error": frame.error,
            "aggregated": frame.agg,
        })

    def wrap(self, name, fn, aggregate=False, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.run(name, aggregate, fn, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def patch(self, module, attr, replacement):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self):
        """Put every original back; returns the attributes that are not."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        wrong = [f"{module.__name__}.{attr}"
                 for module, attr, original in self._patched
                 if getattr(module, attr) is not original]
        self._patched = []
        return wrong

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class _TracedProvider:
    """Provider proxy: calls are aggregated, attributes pass through."""

    def __init__(self, tracer, provider):
        self._tracer = tracer
        self._provider = provider

    def __call__(self, report, step):
        return self._tracer.run("risk.provider", True, self._provider,
                                (report, step), {})

    def __getattr__(self, name):
        return getattr(self._provider, name)


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, files in os.walk(path) for name in files)


def _after_solve(tracer, args, kwargs, solution):
    tracer.stats["inversion.iterations"] += solution.iterations
    tracer.stats["inversion.converged"] += int(solution.converged)


def _after_solve_flow(tracer, args, kwargs, result):
    grid = kwargs["grid"] if "grid" in kwargs else args[1]
    _, states = result
    tracer.stats["hemogrid.steps"] += grid.nt
    tracer.stats["hemogrid.states_bytes"] += sum(
        s.area.nbytes + s.velocity.nbytes + s.pressure.nbytes for s in states)


def _after_write_dataset(tracer, args, kwargs, manifest):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.stats["synthdata.write_dataset.bytes"] += dir_bytes(path)


def _after_read_dataset(tracer, args, kwargs, sessions):
    path = kwargs["path"] if "path" in kwargs else args[0]
    with open(os.path.join(path, "manifest.json")) as fh:
        names = json.load(fh)["checksums"]
    tracer.stats["synthdata.read_dataset.bytes"] += sum(
        os.path.getsize(os.path.join(path, n))
        for n in ["manifest.json", *names])


def install(tracer):
    """Wrap the public layer functions at the attributes callers use."""
    for attr in ("cmd_pipeline", "cmd_gen_data", "cmd_assess"):
        tracer.patch(cli, attr, tracer.wrap(f"cli.{attr}", getattr(cli, attr)))
    tracer.patch(synthdata, "generate_scenario", tracer.wrap(
        "synthdata.generate_scenario", synthdata.generate_scenario))
    tracer.patch(synthdata, "write_dataset", tracer.wrap(
        "synthdata.write_dataset", synthdata.write_dataset,
        after=_after_write_dataset))
    tracer.patch(synthdata, "read_dataset", tracer.wrap(
        "synthdata.read_dataset", synthdata.read_dataset,
        after=_after_read_dataset))
    tracer.patch(hemogrid, "solve_flow", tracer.wrap(
        "hemogrid.solve_flow", hemogrid.solve_flow, after=_after_solve_flow))
    # inversion imported the name directly, so both bindings are wrapped
    synth = tracer.wrap("acoustics.synthesize_echo", acoustics.synthesize_echo,
                        aggregate=True)
    tracer.patch(acoustics, "synthesize_echo", synth)
    tracer.patch(inversion, "synthesize_echo", synth)
    tracer.patch(inversion, "objective", tracer.wrap(
        "inversion.objective", inversion.objective, aggregate=True))
    tracer.patch(inversion, "gradient", tracer.wrap(
        "inversion.gradient", inversion.gradient))
    # the registry holds invert_radii itself, so wrap what get_solver returns
    get_solver = inversion.get_solver
    tracer.patch(inversion, "get_solver", lambda name: tracer.wrap(
        "inversion.solve", get_solver(name), after=_after_solve))
    tracer.patch(acoustics, "estimate_tof", tracer.wrap(
        "acoustics.estimate_tof", acoustics.estimate_tof))
    for attr in ("likelihood_curve", "compute_tte", "dispatch_alert"):
        tracer.patch(risk, attr, tracer.wrap(f"risk.{attr}",
                                             getattr(risk, attr)))
    for attr in ("logistic_provider", "llm_provider"):
        factory = getattr(risk, attr)
        tracer.patch(risk, attr, functools.wraps(factory)(
            lambda *a, _factory=factory, **kw:
            _TracedProvider(tracer, _factory(*a, **kw))))
