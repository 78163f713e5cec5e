"""One pass, or one session of a pass, in a fresh interpreter.

Reads a job as JSON on stdin:
    {"workload": ..., "job": ..., "mode": "plain" | "spans" | "counts",
     "spans": path or null}
and prints one JSON line: the monotonic-clock time at which set-up ended
and the last task ended, each task's time and answer, the peak resident
memory, and in the "spans" and "counts" modes the tracer's summary.  Set-up is everything from
interpreter start to the end of `execute`'s set-up phase, including
`import ffrob`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ffrob  # noqa: E402,F401  (imported here so set-up includes it)

from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Runner:
    """Times the set-up phase and the tasks, and opens the tracer's roots.

    A root span covers one task, or one stretch of work (a whole `ffor`
    session) whose tasks are timed by a hook inside it.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.tasks = []
        self.output = None  # a job-level answer, checked as a whole
        self.setup_done = None
        self._root = tracer.open_root(-1) if tracer else None
        self._roots = 0

    def end_setup(self):
        if self.tracer:
            self.tracer.close_root(self._root)
            self._root = None
        self.setup_done = time.monotonic()

    def open_root(self):
        if self.setup_done is None:
            self.end_setup()
        if self.tracer:
            self._root = self.tracer.open_root(self._roots)
            self._roots += 1

    def close_root(self):
        """Close the open root; returns its traced duration, if traced."""
        if self.tracer is None or self._root is None:
            return None
        i, self._root = self._root, None
        self.tracer.close_root(i)
        return self.tracer.end[i] - self.tracer.start[i]

    def record(self, label, seconds, answer, error=None):
        self.tasks.append({"label": label, "seconds": seconds, "answer": answer, "error": error})

    def task(self, label, fn):
        """Run fn as one task under its own root; an exception fails the task."""
        self.open_root()
        start = time.perf_counter()
        answer, error = None, None
        try:
            answer = fn()
        except Exception as exc:  # a failed task is counted and the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        traced = self.close_root()
        self.record(label, seconds if traced is None else traced, answer, error)


def main() -> int:
    spec = json.loads(sys.stdin.read())
    tracer = Tracer() if spec["mode"] != "plain" else None
    if tracer:
        install(tracer, counted=spec["mode"] == "counts")
    runner = Runner(tracer)
    WORKLOADS[spec["workload"]].execute(spec["job"], runner)
    end = time.monotonic()
    result = {
        "setup_done": runner.setup_done,
        "end": end,
        "tasks": runner.tasks,
        "output": runner.output,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    if tracer and spec.get("spans"):
        tracer.write(spec["spans"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
