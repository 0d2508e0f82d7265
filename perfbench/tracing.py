"""In-memory spans around the benchmark's calls into the package.

A span records its name, start, end, parent span and the job span that
caused it.  Spans stay in memory until the run ends; ``summarize`` turns
them into per-layer metrics, ``dump`` writes them out.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def span_name(fn) -> str:
    """``<module>.<function>`` of a package function, e.g. ``kron.phasor_reduce``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        job = self.spans[self._stack[0]]["job"] if self._stack else sid
        self.spans.append({"id": sid, "name": name, "parent": parent, "job": job,
                           "start": perf_counter(), "end": None, "error": None})
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, error: BaseException | None) -> None:
        span = self.spans[sid]
        span["end"] = perf_counter()
        if error is not None:
            span["error"] = type(error).__name__
        self._stack.pop()

    @contextmanager
    def job(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        except BaseException as exc:
            self._close(sid, exc)
            raise
        self._close(sid, None)

    def call(self, fn, *args, **kwargs):
        """The traced hook: run ``fn`` inside a span named after it."""
        sid = self._open(span_name(fn))
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(sid, exc)
            raise
        self._close(sid, None)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover (seconds)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def summarize(self, job_ids=None) -> dict[str, dict]:
        """Per span name: calls, errors and the median over jobs of summed self time.

        The median is taken over the jobs (restricted to ``job_ids`` when
        given) that made at least one such call.
        """
        own = self.self_times()
        per_job: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        for s, t in zip(self.spans, own):
            if s["parent"] is None or (job_ids is not None and s["job"] not in job_ids):
                continue
            per_job[s["name"]][s["job"]] += t
            calls[s["name"]] += 1
            errors[s["name"]] += s["error"] is not None
        return {name: {"calls": calls[name], "errors": errors[name],
                       "self_ms": 1e3 * statistics.median(per_job[name].values())}
                for name in per_job}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
