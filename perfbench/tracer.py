"""Spans around lightstore's public functions, recorded from outside ``src/``.

The orchestrator binds its collaborators with ``from ... import``, so each
wrapper replaces the name where it is resolved at call time: mostly in
``lightstore.orchestrator``, and in ``lightstore.atom`` for ``steady_state``,
which ``transmission_spectrum`` calls.  ``SpectroscopyResult.from_points`` is
replaced on the class, which both fresh runs and re-analysis go through.

Pool workers: the orchestrator's ``ProcessPoolExecutor`` name is replaced by
a subclass whose worker initializer hands each worker the op id and the pool
span as the parent of its spans.  A worker appends its spans to
``spans-<pid>.jsonl`` in the trace directory whenever its outermost span
ends; :meth:`Tracer.collect` reads them back.  All times are
``time.monotonic``, one clock for every process on the machine.

A name the program no longer has stops the traced run with an error, so a
refactor that renames or inlines a traced function cannot show up as a
layer whose cost dropped to zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from stats import covered

# Layers with spans; ``cli`` is measured by the set-up probes instead.
LAYERS = ("configfile", "orchestrator", "storage", "analysis", "atom")
# The layers that do the work the orchestrator dispatches.
WORK_LAYERS = tuple(layer for layer in LAYERS if layer != "orchestrator")
ROOT = "bench.op"

# Functions whose calls and busy time are reported per op.
COUNTED = (
    "storage.simulate_storage",
    "storage.write_trace_csv",
    "storage.read_trace_csv",
    "analysis.fit_beat.input",
    "analysis.fit_beat.retrieved",
    "analysis.from_points",
    "analysis.write_fits_csv",
    "atom.steady_state",
    "configfile.dump_config",
    "configfile.load_config",
)

# The tracer installed in this process; a pool worker's initializer finds
# the (forked) tracer here, or installs a fresh one under another start method.
_ACTIVE: "Tracer | None" = None


class Span:
    __slots__ = ("sid", "parent", "op", "name", "pid", "start", "end", "attrs")

    def __init__(self, sid, parent, op, name, pid, start, end=None, attrs=None):
        self.sid, self.parent, self.op, self.name = sid, parent, op, name
        self.pid, self.start, self.end = pid, start, end
        self.attrs = {} if attrs is None else attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.sid, self.parent, self.op, self.name, self.pid,
                self.start, self.end, self.attrs]


class Tracer:
    """Records spans in memory while installed; ``op_id`` tags each span."""

    def __init__(self, trace_dir: "Path | str"):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.in_worker = False
        self.spans: list[Span] = []
        self.op_id = None
        self._root_parent = None
        self._stack: list[str] = []
        self._count = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        self._count += 1
        parent = self._stack[-1] if self._stack else self._root_parent
        span = Span(f"{self.pid}.{self._count}", parent, self.op_id, name, self.pid,
                    time.monotonic())
        self._stack.append(span.sid)
        return span

    def end(self, span: Span, stopped: "float | None" = None) -> None:
        """Close ``span`` at ``stopped`` (default: now)."""
        span.end = time.monotonic() if stopped is None else stopped
        self._stack.pop()
        self.spans.append(span)
        if self.in_worker and not self._stack:
            self.flush_worker_spans()

    def become_worker(self, op_id, parent: str) -> None:
        """Reset state inherited from the parent process at fork."""
        self.pid = os.getpid()
        self.in_worker = True
        self.spans = []
        self._stack = []
        self._count = 0
        self.op_id = op_id
        self._root_parent = parent

    def flush_worker_spans(self) -> None:
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_list()) + "\n")
        self.spans.clear()

    def collect(self) -> None:
        """Move the spans pool workers wrote into this tracer's list."""
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, original, after=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                raise
            stopped = time.monotonic()
            if after is not None:
                after(span, args, kwargs, result)
            tracer.end(span, stopped)
            return result

        return traced

    def _wrap_fit_beat(self, original, fit_error):
        tracer = self
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            kind = "retrieved" if bound.arguments["with_envelope"] else "input"
            span = tracer.begin(f"analysis.fit_beat.{kind}")
            try:
                fit = original(*args, **kwargs)
            except fit_error:
                span.attrs["failed"] = 1
                raise
            else:
                span.attrs["nfev"] = fit.n_iterations
                return fit
            finally:
                tracer.end(span)

        return traced

    def _patch(self, owner, attr: str, wrap, missing: list) -> None:
        """Replace ``owner.attr`` by ``wrap(original)``; note it in ``missing`` if absent."""
        original = vars(owner).get(attr)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> "Tracer":
        """Wrap every traced name; raise ``LookupError`` if one is gone."""
        global _ACTIVE
        from lightstore import analysis, atom, orchestrator as orch

        missing: list[str] = []

        def file_bytes(path_arg: int):
            def after(span, args, kwargs, result):
                path = args[path_arg] if len(args) > path_arg else kwargs["path"]
                span.attrs["bytes"] = os.path.getsize(path)
            return after

        def spectroscopy_points(span, args, kwargs, result):
            points = result[1].points
            span.attrs["points_attempted"] = len(points)
            span.attrs["points_usable"] = sum(not p.excluded for p in points)

        def spectrum_points(span, args, kwargs, result):
            span.attrs["points_attempted"] = len(args[0].study.dark_resonance_grid_hz)
            span.attrs["points_usable"] = len(result[0])

        plain = {
            "simulate_storage": ("storage.simulate_storage", None),
            "write_trace_csv": ("storage.write_trace_csv", file_bytes(1)),
            "read_trace_csv": ("storage.read_trace_csv", file_bytes(0)),
            "write_fits_csv": ("analysis.write_fits_csv", None),
            "dump_config": ("configfile.dump_config", None),
            "load_config": ("configfile.load_config", None),
            "transmission_spectrum": ("atom.transmission_spectrum", None),
            "run_spectroscopy": ("orchestrator.run_spectroscopy", spectroscopy_points),
            "run_control_sweep": ("orchestrator.run_control_sweep", None),
            "run_dark_resonance": ("orchestrator.run_dark_resonance", spectrum_points),
            "reanalyze_spectroscopy": ("orchestrator.reanalyze_spectroscopy", None),
            # The pool task; pickled by name, so the wrapper keeps the name.
            "_measure_point": ("orchestrator.point", None),
        }
        for attr, (name, after) in plain.items():
            self._patch(orch, attr, functools.partial(self._wrap, name, after=after), missing)
        self._patch(orch, "fit_beat",
                    lambda original: self._wrap_fit_beat(original, analysis.FitError), missing)
        self._patch(orch, "ProcessPoolExecutor", lambda original: _TracedPool, missing)
        self._patch(atom, "steady_state", functools.partial(self._wrap, "atom.steady_state"),
                    missing)
        self._patch(analysis.SpectroscopyResult, "from_points", lambda original: classmethod(
            self._wrap("analysis.from_points", original.__func__)), missing)
        if missing:
            self.uninstall()
            raise LookupError(f"cannot trace {', '.join(missing)}: not found in lightstore; "
                              "update perfbench/tracer.py to the program's new names")
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None


class _TracedPool(ProcessPoolExecutor):
    """The orchestrator's pool, as one span whose children run in workers."""

    def __init__(self, max_workers=None, *args, **kwargs):
        self._tracer = _ACTIVE
        self._span = self._tracer.begin("orchestrator.pool")
        self._span.attrs["jobs"] = max_workers
        super().__init__(
            max_workers, *args,
            initializer=_init_worker,
            initargs=(str(self._tracer.trace_dir), self._tracer.op_id, self._span.sid),
            **kwargs,
        )

    def shutdown(self, wait=True, **kwargs):
        super().shutdown(wait, **kwargs)
        if self._span is not None:
            self._tracer.end(self._span)
            self._span = None


def _init_worker(trace_dir: str, op_id, parent: str) -> None:
    tracer = _ACTIVE if _ACTIVE is not None else Tracer(trace_dir).install()
    tracer.become_worker(op_id, parent)


# -- aggregation -------------------------------------------------------------


def self_times(spans: "list[Span]") -> dict[str, float]:
    """Span id -> duration minus the time its children cover.

    Children may overlap.  The pool span's children are the points its
    workers run, so its self time is pool start-up, shutdown and idle time,
    not the wait for the workers' work.
    """
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.sid: span.duration - covered(
            (span.start, span.end), [(c.start, c.end) for c in children[span.sid]])
        for span in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: "list[Span]", main_pid: int) -> dict[str, float]:
    """Per-layer metrics, per traced op, from the spans of all processes.

    ``<layer>.self_ms`` sums self times in the benchmark's own process only;
    worker time shows in the ``busy_ms`` metrics.  ``trace.accounted_ratio``
    is the share of op wall time during which a span of a work layer
    (configfile, storage, analysis, atom) is open in some process; the rest
    is orchestrator bookkeeping, pool start-up and idle time, and code that
    no wrapped function covers.
    """
    roots = [s for s in spans if s.name == ROOT]
    n_ops = len(roots)
    if n_ops == 0:
        raise ValueError("no traced ops")
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def per_op(values) -> float:
        return sum(values) / n_ops

    def busy_ms(name: str) -> float:
        return per_op(s.duration for s in by_name[name]) * 1e3

    def attr(name: str, key: str) -> float:
        return per_op(s.attrs.get(key, 0) for s in by_name[name])

    m: dict[str, float] = {}
    for name in COUNTED:
        m[f"{name}.calls"] = len(by_name[name]) / n_ops
        m[f"{name}.busy_ms"] = busy_ms(name)
    for name in ("storage.write_trace_csv", "storage.read_trace_csv"):
        m[f"{name}.bytes"] = attr(name, "bytes")
    for name in ("analysis.fit_beat.input", "analysis.fit_beat.retrieved"):
        m[f"{name}.nfev"] = attr(name, "nfev")
        m[f"{name}.failed"] = attr(name, "failed")
    m["atom.transmission_spectrum.self_ms"] = per_op(
        selfs[s.sid] for s in by_name["atom.transmission_spectrum"]) * 1e3
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_op(
            selfs[s.sid] for s in spans if s.pid == main_pid and layer_of(s.name) == layer
        ) * 1e3

    pools = by_name["orchestrator.pool"]
    capacity = sum(s.attrs["jobs"] * s.duration for s in pools)
    worker_busy = sum(s.duration for s in by_name["orchestrator.point"] if s.pid != main_pid)
    m["orchestrator.pool.count"] = len(pools) / n_ops
    m["orchestrator.pool.worker_busy_ratio"] = worker_busy / capacity if capacity else 0.0
    m["orchestrator.reanalyze.busy_ms"] = busy_ms("orchestrator.reanalyze_spectroscopy")
    attempted = sum(s.attrs.get("points_attempted", 0) for s in spans)
    usable = sum(s.attrs.get("points_usable", 0) for s in spans)
    m["orchestrator.points.usable_ratio"] = usable / attempted if attempted else 0.0

    work: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if layer_of(span.name) in WORK_LAYERS:
            work[span.op].append((span.start, span.end))
    wall = sum(s.duration for s in roots)
    m["trace.ops"] = n_ops
    m["trace.accounted_ratio"] = sum(
        covered((s.start, s.end), work[s.op]) for s in roots) / wall
    return m
