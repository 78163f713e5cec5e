"""The ffrob benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from a source checkout (the package is imported from src/).  This process starts
one worker interpreter at a time; each pass of a
workload runs in fresh interpreters, so nothing cached in one pass can
answer the next.  Passes cycle through the workload's input sets, which
the seed fixes, in whole cycles, until about --seconds have gone by;
on a slow machine no pass starts after 1.25 times --seconds.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 each
input set runs three times: untraced, with spans around the public
functions, and with call counters on the few functions too hot for spans;
the per-layer metrics are printed, with the tracing overhead (span pass
minus untraced pass).  Every answer is checked, in every pass; a failed
task is counted and the run goes on.  The last line of
output is one JSON object: correct, attempted, failed, metrics.  Full
per-pass records go to .perfbench/results/, the spans of one span pass to
.perfbench/spans/.

The four options are the benchmark's interface: BENCHMARK.json's command
is run with all of them, once per workload, seed and trace setting.
Without --workload every workload runs, one after the other, each for
about --seconds; without --seconds, run_seconds is read from
BENCHMARK.json.

The metric names, units and directions are read from BENCHMARK.json at
the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTED, LAYERS, SPANNED
from workloads import ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench"
# A run must end within 180 s: no pass starts after PASS_LIMIT_S, and a
# worker still running at KILL_LIMIT_S is stopped and its tasks fail.
# On a slow machine a cycle may take longer than --seconds; no pass starts
# after OVERRUN times --seconds, so that all runs together keep to their time.
PASS_LIMIT_S = 150.0
OVERRUN = 1.25
KILL_LIMIT_S = 175.0
TAIL_LADDER = (99, 95, 90, 75, 50)


def median(values):
    return statistics.median(values) if values else 0.0


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values, q: int) -> float:
    """The Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1)/100, (100-q)(n+1)/100) distribution.  It estimates the
    same percentile as one interpolated order statistic, but one fast
    or slow pass moves it much less, which matters when the percentile
    falls where the samples are sparse.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1) / 100, (100 - q) * (n + 1) / 100
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def tail_percentile(samples_per_cycle: int) -> int:
    """The highest percentile with at least ten samples beyond it, for the
    samples of one cycle (a run on a machine slow enough to hit OVERRUN
    can have fewer)."""
    for q in TAIL_LADDER:
        if samples_per_cycle * (100 - q) >= 1000:
            return q
    raise ValueError("a cycle needs at least 20 tasks")


def run_job(workload, job, mode, spans, deadline):
    """Run one worker; returns its record, or None after a crash or timeout."""
    spec = {"workload": workload.name, "job": job, "mode": mode, "spans": spans}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(0.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["setup_done"] - t_spawn
    rec["wall_s"] = rec["end"] - rec["setup_done"]
    return rec, None


def run_pass(workload, seed, k, mode, spans, deadline, failures):
    """One pass over input set k in the given worker mode; returns its record."""
    jobs = workload.jobs(seed, k)
    p = {"k": k, "mode": mode, "setup_s": 0.0, "wall_s": 0.0, "rss_mb": 0.0,
         "task_s": [], "attempted": 0, "failed": 0, "trace": []}
    for job in jobs:
        n = workload.job_tasks(job)
        p["attempted"] += n
        rec, err = run_job(workload, job, mode, spans, deadline)
        spans = None
        if rec is None:
            p["failed"] += n
            failures.append({"k": k, "mode": mode, "job": job, "error": err})
            continue
        p["setup_s"] += rec["setup_s"]
        p["wall_s"] += rec["wall_s"]
        p["rss_mb"] = max(p["rss_mb"], rec["maxrss_kb"] / 1024.0)
        tasks = rec["tasks"]
        whole = workload.check_output(job, rec["output"])
        if whole is None and len(tasks) != n:
            whole = f"{len(tasks)} tasks ran, expected {n}"
        bad = 0
        for i, task in enumerate(tasks[:n]):
            p["task_s"].append(task["seconds"])
            why = task["error"] or workload.check(job, i, task["answer"])
            if why:
                bad += 1
                failures.append({"k": k, "mode": mode, "task": task["label"], "error": why})
        if whole:
            bad = n
            failures.append({"k": k, "mode": mode, "job": job, "error": whole})
        p["failed"] += bad
        if rec["trace"] is not None:
            if rec["trace"]["problems"]:
                failures.append({"k": k, "mode": mode, "trace_check": rec["trace"]["problems"]})
            p["trace"].append(rec["trace"])
    return p


def run_workload(workload, seed, seconds, trace):
    """Whole cycles over the input sets until about `seconds` have passed."""
    t0 = time.monotonic()
    deadline = t0 + KILL_LIMIT_S
    last_pass = t0 + min(PASS_LIMIT_S, OVERRUN * seconds)
    sets = workload.trace_cycle if trace else workload.cycle
    passes, failures = [], []
    spans = None
    if trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        spans = str(OUT / "spans" / f"{workload.name}-seed{seed}.tsv")
    while True:
        t_cycle = time.monotonic()
        for k in range(sets):
            if time.monotonic() > last_pass:
                break
            passes.append(run_pass(workload, seed, k, "plain", None, deadline, failures))
            if trace:
                passes.append(run_pass(workload, seed, k, "spans", spans, deadline, failures))
                passes.append(run_pass(workload, seed, k, "counts", None, deadline, failures))
                spans = None
        now = time.monotonic()
        if now > last_pass or (now - t0) + (now - t_cycle) / 2 > seconds:
            break
    return passes, failures


def end_to_end(workload, passes):
    plain = [p for p in passes if p["mode"] == "plain" and p["task_s"]]
    pooled = [t for p in plain for t in p["task_s"]]
    q = tail_percentile(workload.tasks_per_pass * workload.cycle)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": median([p["setup_s"] for p in plain]),
        "wall_s": median([p["wall_s"] for p in plain]),
        "task_s_p50": median(pooled),
        "task_s_tail": percentile(pooled, q) if len(pooled) >= 2 else 0.0,
        "peak_rss_mb": median([p["rss_mb"] for p in plain]),
        "verified_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }
    notes = {"passes": len(plain), "tail_percentile": q, "tail_samples": len(pooled),
             "tail_samples_beyond": sum(1 for t in pooled if t > metrics["task_s_tail"])}
    return metrics, notes


def merge_trace(summaries):
    """One pass's tracer summaries (one per worker) added together."""
    m = {"calls": {}, "self_s": {}, "counts": {}, "buchberger_repeats": 0,
         "buchberger_s": 0.0, "buchberger_repeat_s": 0.0,
         "normal_form_zero": 0, "groebner_fills": 0, "basis_len_max": 0, "basis_deg_max": 0,
         "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            for name, v in s[key].items():
                m[key][name] = m[key].get(name, 0) + v
        for key in ("buchberger_repeats", "buchberger_s", "buchberger_repeat_s",
                    "normal_form_zero", "groebner_fills", "spans"):
            m[key] += s[key]
        for key in ("basis_len_max", "basis_deg_max"):
            m[key] = max(m[key], s[key])
    return m


def per_layer(passes):
    traced = [merge_trace(p["trace"]) for p in passes if p["mode"] == "spans" and p["trace"]]
    counted = [merge_trace(p["trace"]) for p in passes if p["mode"] == "counts" and p["trace"]]
    # each span pass follows the untraced pass over the same input set
    pairs = [(b["wall_s"], a["wall_s"]) for a, b in zip(passes, passes[1:])
             if b["mode"] == "spans" and a["mode"] == "plain" and a["k"] == b["k"]]

    def med(fn):
        return median([fn(t) for t in traced])

    def ratio(num, den):
        d = sum(den(t) for t in traced)
        return sum(num(t) for t in traced) / d if d else 0.0

    metrics = {}
    for mod, path in SPANNED:
        name = f"{mod}.{path}"
        metrics[f"{name}.calls"] = med(lambda t: t["calls"].get(name, 0))
        metrics[f"{name}.self_s"] = med(lambda t: t["self_s"].get(name, 0.0))
    for mod, path in COUNTED:
        name = f"{mod}.{path}"
        metrics[f"{name}.calls"] = median([t["counts"].get(name, 0) for t in counted])
    bb, nf, gb = "groebner.buchberger", "groebner.normal_form", "ideals.Ideal.groebner"
    metrics[f"{bb}.repeat_ratio"] = ratio(lambda t: t["buchberger_repeats"], lambda t: t["calls"].get(bb, 0))
    metrics[f"{bb}.repeat_time_ratio"] = ratio(lambda t: t["buchberger_repeat_s"], lambda t: t["buchberger_s"])
    metrics[f"{bb}.basis_len_max"] = max((t["basis_len_max"] for t in traced), default=0)
    metrics[f"{bb}.basis_deg_max"] = max((t["basis_deg_max"] for t in traced), default=0)
    metrics[f"{nf}.zero_ratio"] = ratio(lambda t: t["normal_form_zero"], lambda t: t["calls"].get(nf, 0))
    metrics[f"{gb}.fills"] = med(lambda t: t["groebner_fills"])
    metrics[f"{gb}.hit_ratio"] = 1.0 - ratio(lambda t: t["groebner_fills"], lambda t: t["calls"].get(gb, 0))
    metrics["cli.render_s"] = med(lambda t: t["self_s"].get("cli.render", 0.0))
    for layer in LAYERS + ("bench", "trace"):
        metrics[f"{layer}.self_s"] = med(
            lambda t: sum(v for k, v in t["self_s"].items() if k.split(".", 1)[0] == layer)
        )
    metrics["bench.traced_wall_s"] = median([w for w, _ in pairs])
    metrics["bench.untraced_wall_s"] = median([w for _, w in pairs])
    metrics["bench.trace_overhead_s"] = median([w - u for w, u in pairs])
    notes = {"traced_passes": len(traced), "spans_per_pass": med(lambda t: t["spans"])}
    return metrics, notes


def report(workload, seed, trace, passes, failures, spec, seconds):
    """Print one workload's metrics; returns (attempted, failed, metrics)."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e, notes = end_to_end(workload, passes)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        computed, layer_notes = per_layer(passes)
        notes.update(layer_notes)
    else:
        computed = e2e
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
    fail_ratio = failed / attempted if attempted else 1.0
    print(f"== {workload.name}  seed {seed}  trace {int(trace)}  passes {len(passes)}"
          f"  fail_ratio {fail_ratio:g} ({failed} of {attempted} tasks)")
    if trace:
        wall = computed["bench.traced_wall_s"]
        for layer in LAYERS + ("bench", "trace"):
            share = computed[f"{layer}.self_s"] / wall if wall else 0.0
            print(f"   share {layer:<10} {share:7.1%}")
        print(f"   tracing added {computed['bench.trace_overhead_s']:.3g} s to a pass;"
              f" the trace layer accounts for {computed['trace.self_s']:.3g} s")
    else:
        print(f"   task_s_tail is p{notes['tail_percentile']} of {notes['tail_samples']} pooled"
              f" tasks ({notes['tail_samples_beyond']} beyond it)")
    for name, m in metrics.items():
        print(f"   {name:<52} {m['value']:.6g} {m['unit']}")
    for f in failures[:10]:
        print(f"   FAILED {f}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": [workload.jobs(seed, k) for k in sorted({p["k"] for p in passes})],
        "metrics": computed, "end_to_end": e2e, "notes": notes, "failures": failures,
        "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes],
    }
    path = OUT / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "ffrob" / "__init__.py").is_file():
        print(f"perfbench: no ffrob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = ns.seconds if ns.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    attempted = failed = trace_problems = 0
    metrics = {}
    for name in names:
        wl = WORKLOADS[name]
        passes, failures = run_workload(wl, ns.seed, seconds, bool(ns.trace))
        a, f, m = report(wl, ns.seed, bool(ns.trace), passes, failures, spec, seconds)
        attempted += a
        failed += f
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
        trace_problems += sum(1 for x in failures if "trace_check" in x)
    result = {"correct": failed == 0 and trace_problems == 0 and attempted > 0,
              "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
