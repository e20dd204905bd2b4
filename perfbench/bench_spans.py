"""Spans recorded from outside the program, by rebinding its module attributes.

The benchmark never edits ``src/``. It replaces names that the program's
modules look up at call time (``semnav.runner.render_depth``, the
``CbfField`` query methods, ...) with wrappers that open a span, call the
original and close the span. Spans stay in memory until the run ends.

Untraced runs install one hook only: the tick boundary on
``semnav.runner.apply_scene_events``, which the runner calls once at the
start of every tick. Traced runs also install ``install_layer_hooks``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


class HookError(RuntimeError):
    """A binding the benchmark wraps is missing, or spans do not nest."""


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Recorder.spans, -1 for a root
    episode: int
    tick: int  # -1 outside any tick
    end: float = float("nan")
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, key: str, n: float = 1) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + n


class Recorder:
    """Spans of one run. Spans of one tick share the ``(episode, tick)`` id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.episode = -1
        self.tick = -1  # ticks started in this episode, minus one
        self._tick_span: int | None = None

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        tick = -1 if self._tick_span is None and name != "tick" else self.tick
        self.spans.append(Span(name, self.clock(), parent, self.episode, tick))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise HookError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    def count(self, key: str, n: float = 1) -> None:
        """Add to a counter of the innermost open span."""
        self.spans[self._open[-1]].add(key, n)

    def _top(self) -> Span | None:
        return self.spans[self._open[-1]] if self._open else None

    def start_episode(self) -> None:
        if self._open:
            raise HookError("episode started inside an open span")
        self.episode += 1
        self.tick = -1
        self.open("episode")

    def _expect_episode_on_top(self, what: str) -> None:
        top = self._top()
        if top is None or top.name != "episode":
            raise HookError(f"{what} inside span {top.name if top else None!r}")

    def close_tick(self) -> None:
        """End the open tick, if any, at the current time."""
        if self._tick_span is not None:
            self.close(self._tick_span)
            self._tick_span = None

    def tick_boundary(self) -> None:
        self.close_tick()
        self._expect_episode_on_top("tick boundary")
        self.tick += 1
        self._tick_span = self.open("tick")

    def end_episode(self) -> None:
        self.close_tick()
        self._expect_episode_on_top("episode end")
        self.close(self._open[-1])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


class Patches:
    """Rebound attributes, restored by ``undo``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            raise HookError(f"{getattr(owner, '__name__', owner)}.{attr} is missing; update the benchmark's hooks")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spanned(rec: Recorder, name: str, count=None):
    """Wrapper factory: time each call as a span; ``count(span, args, result)`` adds counters."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if count is not None:
                count(rec.spans[index], args, result)
            return result

        return wrapper

    return make


def install_tick_hook(patches: Patches, rec: Recorder) -> None:
    import semnav.runner

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.tick_boundary()
            return fn(*args, **kwargs)

        return wrapper

    patches.rebind(semnav.runner, "apply_scene_events", make)


class _CountingNdimage:
    """Stands in for ``scipy.ndimage`` inside ``semnav.barrier`` and counts EDT calls."""

    def __init__(self, rec: Recorder, real):
        self._rec, self._real = rec, real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def distance_transform_edt(self, *args, **kwargs):
        self._rec.count("edt_calls")
        return self._real.distance_transform_edt(*args, **kwargs)


def _qp_counts(span, args, sol):
    qp = args[0]
    span.add("iterations", sol.iterations)
    span.add("degraded", int(sol.degraded))
    span.add("vars", qp.g.shape[0])
    span.add("eq_rows", qp.b_eq.shape[0])
    span.add("ineq_rows", qp.h_in.shape[0])
    res = sol.residuals
    span.add("kkt", max(res.get("stationarity", 0.0), res.get("primal", 0.0), res.get("comp", 0.0)))


def install_layer_hooks(patches: Patches, rec: Recorder) -> None:
    """Every per-layer hook of a traced run (the tick hook is installed separately)."""
    import semnav.barrier
    import semnav.mpc
    import semnav.report
    import semnav.runner
    from semnav.barrier import CbfField

    r = semnav.runner
    hooks = [
        (r, "render_depth", "world.render", lambda span, a, out: span.add("points", len(out))),
        (r, "segment_observations", "mapping.segment", None),
        (r, "associate_observations", "mapping.associate", lambda span, a, out: span.add("matched", len(out[0]))),
        (r, "compute_delta", "consistency.delta", None),
        (r, "update_consistency", "consistency.update", lambda span, a, out: span.add("degenerate", int(out[1]))),
        (r, "integrate_observation", "mapping.integrate", lambda span, a, out: span.add("integrations")),
        (r, "spawn_object", "mapping.integrate", lambda span, a, out: span.add("spawns")),
        (r, "remove_object", "mapping.remove", lambda span, a, out: span.add("removals")),
        (r, "fuse_global_tsdf", "mapping.fuse", lambda span, a, out: span.add("objects", len(a[0].records))),
        (r, "project_2p5d", "barrier.project", None),
        # labelled boundary and semantic EDF share one span, as build_plain_edf does both in one call
        (r, "extract_labeled_boundary", "barrier.edf", lambda span, a, out: span.add("cells", len(out))),
        (r, "build_semantic_edf", "barrier.edf", None),
        (r, "build_plain_edf", "barrier.edf", None),
        (r, "build_cbf_field", "barrier.cutoff", None),
        (r, "mpc_step", "mpc.step", None),
        (semnav.mpc, "solve_qp", "qp.solve", _qp_counts),
        (CbfField, "query_h_checked", "barrier.query", lambda span, a, out: span.add("clamped", int(out[1]))),
        (CbfField, "query_grad", "barrier.query", None),
        (semnav.report, "write_trajectory_csv", "report.trajectory_csv", None),
        (semnav.report, "write_field_csv", "report.field_csv", None),
        (semnav.report, "write_run_svg", "report.svg", None),
    ]
    for owner, attr, name, count in hooks:
        patches.rebind(owner, attr, spanned(rec, name, count))
    patches.rebind(semnav.barrier, "ndimage", lambda real: _CountingNdimage(rec, real))
