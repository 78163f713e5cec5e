"""Span tracer that the benchmark installs around ffrob's public functions.

Tracing happens only in a worker started with tracing on; the package
itself is never edited.  Every wrapped name is patched in each ffrob
module that holds it, because `ideals`, `frobenius`, `checks` and `cli`
import `buchberger`, `normal_form` and the rest by name.

Spans live in flat in-memory arrays (name, parent, task, start, end, time
covered by direct children, wrapper overhead) and are written out once,
when the worker ends.  A span's self time is its duration minus the time
its children cover.  The wrapper's own cost around each span, from its
first clock read to its last, is charged to the `trace` layer, not to
the caller.  What the clock reads cannot see, the Python call into the
wrapper and the return from it on the caller's side and the call through
`fn(*args, **kwargs)` on the callee's side, is measured once per worker by
`calibrate()` on a no-op function and moved from the caller's and the
callee's self time to `trace` in `summary()`.  Each task, and the set-up
phase, has one root span, so the self times of a task's spans plus the
tracer's share add up to the task's duration; `summary()` checks that,
and that every span lies inside its parent.

Counted functions (COUNTED) are far hotter than any spanned one.  Their
counting wrappers are installed in a separate counting pass, never
together with the spans, so that their cost does not land in the self
time of whatever span calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter

LAYERS = ("field", "poly", "groebner", "ideals", "frobenius", "checks", "parser", "cli")

# Functions timed as spans, by module and attribute path.
SPANNED = (
    ("poly", "PolyRing.poly"),
    ("poly", "Polynomial.mul_term"),
    ("poly", "Polynomial.__mul__"),
    ("poly", "Polynomial.frobenius_power"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "s_polynomial"),
    ("groebner", "poly_ideal_intersect"),
    ("groebner", "elimination_ideal"),
    ("groebner", "poly_divexact"),
    ("ideals", "QuotientRing.__init__"),
    ("ideals", "Ideal.groebner"),
    ("ideals", "Ideal.intersect"),
    ("ideals", "Ideal.colon"),
    ("ideals", "Ideal.colon_ideal"),
    ("ideals", "Ideal.contains"),
    ("frobenius", "bracket_power"),
    ("frobenius", "frobenius_kernel_preimage"),
    ("frobenius", "is_reduced"),
    ("frobenius", "nilradical_char_p"),
    ("checks", "check_colon"),
    ("checks", "check_principal_intersection"),
    ("checks", "check_intersection_family"),
    ("checks", "fedder_is_fpure"),
    ("checks", "regularity_probe"),
    ("checks", "sample_ideal"),
    ("checks", "sample_polynomial"),
    ("parser", "parse_polynomial"),
    ("cli", "parse_session"),
    ("cli", "run_command"),
)

# Functions too hot for a span each: only their calls are counted, in a
# pass of their own.
COUNTED = (("field", "PrimeField.inv"), ("poly", "MonomialOrder.key"))

SETUP_ROOT = "bench.setup"
TASK_ROOT = "bench.task"
INSTRUMENT = "trace.instrument"  # the tracer's own bookkeeping inside a task
WRAPPER = "trace.wrapper"  # wrapper overhead around every span, measured and calibrated
RENDER = "cli.render"  # json.dumps as called by the cli module


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.over = array("d")
        self.stack = []
        self.current_task = -2  # -1 is set-up; -2 means outside any root
        self.counts = {}
        self.buchberger_seen = set()
        self.buchberger_repeats = 0
        self.buchberger_s = 0.0  # inclusive time of all buchberger spans
        self.buchberger_repeat_s = 0.0  # ... of those whose input repeats
        self.basis_len_max = 0
        self.basis_deg_max = 0
        self.normal_form_zero = 0
        self.groebner_fills = 0
        # per-span wrapper cost outside the clock reads, from calibrate()
        self.cost_caller = 0.0
        self.cost_callee = 0.0
        self._instrument = self.name_id(INSTRUMENT)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        """Open a span; the caller has read the clock just before, as t_in."""
        i = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.task.append(self.current_task)
        self.end.append(0.0)
        self.child.append(0.0)
        self.over.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i: int, t_in: float) -> None:
        """Close span i.  The parent's children cover the whole wrapper,
        t_in to the last clock read here; the part outside the span is
        the span's overhead, charged to the trace layer."""
        t = perf_counter()
        self.end[i] = t
        stack = self.stack
        stack.pop()
        if stack:
            parent = stack[-1]
            t_out = perf_counter()
            self.over[i] = (self.start[i] - t_in) + (t_out - t)
            self.child[parent] += t_out - t_in

    def open_root(self, task: int) -> int:
        self.current_task = task
        return self.enter(self.name_id(SETUP_ROOT if task < 0 else TASK_ROOT))

    def close_root(self, i: int) -> None:
        self.exit(i, 0.0)
        self.current_task = -2

    # --- bookkeeping called from the wrappers, timed as INSTRUMENT spans ---

    def note_buchberger_input(self, gens, order) -> bool:
        """Count the call's input; returns whether it repeats an earlier one."""
        t_in = perf_counter()
        j = self.enter(self._instrument)
        parent = self.stack[-2] if len(self.stack) > 1 else -1
        if parent >= 0 and self.names[self.name[parent]] == "ideals.Ideal.groebner":
            self.groebner_fills += 1
        if gens:
            ring = gens[0].ring
            eff = order if order is not None else ring.order
            live = sorted(g.terms for g in gens if not g.is_zero)
            key = (ring.field.p, ring.names, repr(eff), tuple(live))
        else:
            key = ()
        repeat = key in self.buchberger_seen
        if repeat:
            self.buchberger_repeats += 1
        else:
            self.buchberger_seen.add(key)
        self.exit(j, t_in)
        return repeat

    def note_basis(self, basis, i: int, repeat: bool) -> None:
        """Record the output of the buchberger call timed by span i."""
        t_in = perf_counter()
        j = self.enter(self._instrument)
        took = self.end[i] - self.start[i]
        self.buchberger_s += took
        if repeat:
            self.buchberger_repeat_s += took
        self.basis_len_max = max(self.basis_len_max, len(basis))
        for g in basis:
            self.basis_deg_max = max(self.basis_deg_max, g.total_degree())
        self.exit(j, t_in)

    # --- results ---

    def summary(self) -> dict:
        """Per-name calls and self time, the counters, and the self-check."""
        names, nm, par, task = self.names, self.name, self.parent, self.task
        start, end, child, over = self.start, self.end, self.child, self.over
        wrapper = self.name_id(WRAPPER)
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        task_self = {}
        task_dur = {}
        problems = set()
        roots = {self._ids.get(SETUP_ROOT), self._ids.get(TASK_ROOT)}
        if self.stack:
            problems.add(f"{len(self.stack)} span(s) never closed")
        cost = self.cost_caller + self.cost_callee
        for i in range(len(start)):
            n = nm[i]
            s = end[i] - start[i] - child[i]
            calls[n] += 1
            self_s[n] += s
            self_s[wrapper] += over[i]
            task_self[task[i]] = task_self.get(task[i], 0.0) + s + over[i]
            p = par[i]
            if p < 0:
                if n not in roots:
                    problems.add(f"span {names[n]} outside any task")
                task_dur[task[i]] = end[i] - start[i]
                continue
            # the calibrated cost moves within the task, so the sums hold
            self_s[nm[p]] -= self.cost_caller
            self_s[n] -= self.cost_callee
            self_s[wrapper] += cost
            if not (start[p] <= start[i] and end[i] <= end[p] and task[p] == task[i]):
                problems.add(f"span {names[n]} not inside its parent {names[nm[p]]}")
        max_err = 0.0
        for t, dur in task_dur.items():
            max_err = max(max_err, abs(task_self.get(t, 0.0) - dur))
        if max_err > 1e-6:
            problems.add(f"self times miss the task time by {max_err:.3g} s")
        return {
            "spans": len(start),
            "calls": {names[k]: calls[k] for k in range(len(names)) if calls[k]},
            "self_s": {names[k]: self_s[k] for k in range(len(names)) if calls[k] or self_s[k]},
            "counts": dict(self.counts),
            "buchberger_repeats": self.buchberger_repeats,
            "buchberger_s": self.buchberger_s,
            "buchberger_repeat_s": self.buchberger_repeat_s,
            "basis_len_max": self.basis_len_max,
            "basis_deg_max": self.basis_deg_max,
            "normal_form_zero": self.normal_form_zero,
            "groebner_fills": self.groebner_fills,
            "selfsum_error_s": max_err,
            "cost_caller_s": self.cost_caller,
            "cost_callee_s": self.cost_callee,
            "problems": sorted(problems),
        }

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\ttask\tname\tstart\tend\tself_s\toverhead_s\n")
            for i in range(len(self.start)):
                s = self.end[i] - self.start[i] - self.child[i]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.task[i]}\t{names[self.name[i]]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\t{s!r}\t{self.over[i]!r}\n"
                )


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t_in = perf_counter()
        i = enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(i, t_in)

    return wrapper


def _count(tracer: Tracer, name: str, fn):
    # The COUNTED methods take one positional argument; a fixed signature
    # keeps the extra frame cheap.
    counts = tracer.counts
    counts[name] = 0

    @functools.wraps(fn)
    def wrapper(self, arg):
        counts[name] += 1
        return fn(self, arg)

    return wrapper


def _buchberger(tracer: Tracer, name: str, fn):
    timed = _span(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(gens, *args, **kwargs):
        gens = list(gens)
        order = kwargs.get("order", args[0] if args else None)
        repeat = tracer.note_buchberger_input(gens, order)
        i = len(tracer.start)  # the span that `timed` opens
        basis = timed(gens, *args, **kwargs)
        tracer.note_basis(basis, i, repeat)
        return basis

    return wrapper


def _normal_form(tracer: Tracer, name: str, fn):
    # one frame, as in _span: normal_form is hot.  The zero test is inside
    # the span, a few tens of nanoseconds of normal_form's self time.
    nid = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t_in = perf_counter()
        i = enter(nid)
        try:
            r = fn(*args, **kwargs)
            if r.is_zero:
                tracer.normal_form_zero += 1
            return r
        finally:
            exit_(i, t_in)

    return wrapper


_SPECIAL = {"groebner.buchberger": _buchberger, "groebner.normal_form": _normal_form}


class _JsonProxy:
    """Stands in for the json module inside ffrob.cli, timing dumps()."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def calibrate(tracer: Tracer, n: int = 10000, rounds: int = 3) -> None:
    """Measure the per-span cost that the wrapper's clock reads miss.

    Times a loop doing nothing, a loop calling a no-op function, and a
    loop calling it through `_span` under a root span of a scratch tracer.
    The root's self time beyond the empty loop is what each span leaves in
    its caller; the no-op span's self time beyond a plain call is what it
    adds to its callee.  Each is the smallest of `rounds` rounds.
    """

    def noop(a):
        return a

    caller, callee = [], []
    for _ in range(rounds):
        scratch = Tracer()
        wrapped = _span(scratch, "noop", noop)
        t0 = perf_counter()
        for i in range(n):
            pass
        t1 = perf_counter()
        for i in range(n):
            noop(i)
        t2 = perf_counter()
        root = scratch.open_root(0)
        for i in range(n):
            wrapped(i)
        scratch.close_root(root)
        got = scratch.summary()["self_s"]
        empty, plain = (t1 - t0) / n, (t2 - t1) / n
        caller.append(got[TASK_ROOT] / n - empty)
        callee.append(got["noop"] / n - (plain - empty))
    tracer.cost_caller = max(0.0, min(caller))
    tracer.cost_callee = max(0.0, min(callee))


def install(tracer: Tracer, counted: bool = False) -> None:
    """Wrap every SPANNED function, or with `counted` every COUNTED one,
    in every ffrob module."""
    package = importlib.import_module("ffrob")
    modules = {m: importlib.import_module(f"ffrob.{m}") for m in LAYERS}
    namespaces = [package, *modules.values()]
    if counted:
        targets = [(m, path, _count) for m, path in COUNTED]
    else:
        calibrate(tracer)
        targets = [(m, path, _span) for m, path in SPANNED]
        modules["cli"].json = _JsonProxy(_span(tracer, RENDER, json.dumps))
    for mod, path, make in targets:
        name = f"{mod}.{path}"
        make = _SPECIAL.get(name, make)
        owner, _, attr = path.rpartition(".")
        if owner:
            cls = getattr(modules[mod], owner)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                setattr(cls, attr, property(make(tracer, name, orig.fget)))
            else:
                setattr(cls, attr, make(tracer, name, orig))
            continue
        orig = getattr(modules[mod], attr)
        wrapped = make(tracer, name, orig)
        for ns in namespaces:
            for key in [k for k, v in vars(ns).items() if v is orig]:
                setattr(ns, key, wrapped)
