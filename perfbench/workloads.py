"""The three workloads: inputs made from a seed, the work one worker does,
and the checks on its answers.

A pass runs one input set.  Input set k of a run is derived from the
workload seed and k alone, so two commits measured with the same seed see
the same inputs in the same order.  The methods run.py calls (`jobs`,
`job_tasks`, `check`, `check_output`) never import ffrob; `execute`
runs in a worker, a fresh interpreter with ffrob already imported.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected"


class ProbeRegular:
    """`regularity_probe` with e_list=(1,) on regular polynomial rings.

    A regular ring makes the probe spend its whole budget.  The sampler
    cost is heavy-tailed (one in a few hundred sampled ideals has a
    Groebner basis a hundred times dearer than the median), so every
    pass draws fresh sampler seeds and the run reports medians over
    passes instead of one long pass over a single draw.
    """

    name = "probe-regular"
    cycle = 18  # input sets, i.e. passes, per cycle
    trace_cycle = 5
    # (p, variables, count): the three ROADMAP rings plus F_5[x,y,z]
    RINGS = ((2, "x,y", 100), (2, "a,b,c,d", 20), (3, "a,b,c,d,e", 10), (5, "x,y,z", 20))
    tasks_per_pass = len(RINGS)

    def jobs(self, seed: int, k: int):
        rng = random.Random(f"{self.name}:{seed}:{k}")
        rings = [[p, names, count, rng.randrange(1, 2**31)] for p, names, count in self.RINGS]
        return [{"rings": rings}]

    def execute(self, job, runner):
        import ffrob

        rings = [
            (ffrob.QuotientRing(ffrob.PrimeField(p), tuple(names.split(","))), count, s)
            for p, names, count, s in job["rings"]
        ]
        runner.end_setup()
        for (ring, count, s), spec in zip(rings, job["rings"]):
            cfg = ffrob.SamplerConfig(seed=s, count=count)

            def probe(ring=ring, cfg=cfg):
                rep = ffrob.regularity_probe(ring, cfg, e_list=(1,))
                return {
                    "verdict": rep.verdict,
                    "trials": rep.trials,
                    "structured_checks": rep.structured_checks,
                    "reduced": rep.reduced,
                }

            runner.task(f"probe F_{spec[0]}[{spec[1]}] count={count} seed={s}", probe)

    def job_tasks(self, job):
        return len(job["rings"])

    def check_output(self, job, output):
        return None

    def check(self, job, index, answer):
        p, names, count, _ = job["rings"][index]
        n = len(names.split(","))
        structured = 2 * (n + 1) * (n + comb(n, 2)) + comb(n + 1, 2)
        expected = {
            "verdict": "NO_WITNESS_FOUND",
            "trials": count,
            "structured_checks": structured,
            "reduced": True,
        }
        return None if answer == expected else f"got {answer}, expected {expected}"


class FrobeniusHighp:
    """`is_reduced` and `fedder_is_fpure` on
    F_p[x,y,z,w]/(x*y - a*z*w, x^2 - b*y*w) for p in 5, 7, 11, 13.

    a and b are drawn from F_p^x.  Scaling y by 1/b and z by 1/(a*b)
    maps each ring onto the a = b = 1 ring, so the answers (reduced, not
    F-pure) and the Groebner work do not depend on the draw.
    """

    name = "frobenius-highp"
    cycle = 13
    trace_cycle = 3
    PRIMES = (5, 7, 11, 13)
    NAMES = ("x", "y", "z", "w")
    tasks_per_pass = 2 * len(PRIMES)

    def jobs(self, seed: int, k: int):
        rng = random.Random(f"{self.name}:{seed}:{k}")
        return [{"rings": [[p, rng.randrange(1, p), rng.randrange(1, p)] for p in self.PRIMES]}]

    def execute(self, job, runner):
        import ffrob

        rings = []
        for p, a, b in job["rings"]:
            field = ffrob.PrimeField(p)
            S = ffrob.PolyRing(field, self.NAMES)
            gens = [
                ffrob.parse_polynomial(f"x*y - {a}*z*w", S),
                ffrob.parse_polynomial(f"x^2 - {b}*y*w", S),
            ]
            rings.append(ffrob.QuotientRing(field, self.NAMES, gens))
        runner.end_setup()
        for ring, (p, a, b) in zip(rings, job["rings"]):
            runner.task(f"is_reduced p={p} a={a} b={b}", lambda ring=ring: ffrob.is_reduced(ring))
            runner.task(f"fedder_is_fpure p={p} a={a} b={b}", lambda ring=ring: ffrob.fedder_is_fpure(ring))

    def job_tasks(self, job):
        return 2 * len(job["rings"])

    def check_output(self, job, output):
        return None

    def check(self, job, index, answer):
        expected = index % 2 == 0  # is_reduced is True, fedder_is_fpure is False
        return None if answer is expected else f"got {answer}, expected {expected}"


class CorpusCli:
    """Each session in sessions/ run as `ffor <session> --json`, one fresh
    interpreter per session.

    Set-up ends when `ffrob.cli.parse_session` returns: the session's
    ring, ideals and elements are then built.  A task is one command of
    the session, timed around `ffrob.cli.run_command`; each command
    answers one exact question, which gives a pass 31 tasks.  Each
    command's report, and the session's whole output and exit code, must
    match byte for byte what is recorded in perfbench/expected/ from the
    commit that introduced the benchmark.
    """

    name = "corpus-cli"
    cycle = 38
    trace_cycle = 10

    def __init__(self):
        self.exit_codes = json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))
        self.stdout = {s: (EXPECTED / f"{s}.json").read_text(encoding="utf-8") for s in self.exit_codes}
        self.reports = {s: json.loads(text) for s, text in self.stdout.items()}
        self.tasks_per_pass = sum(len(r) for r in self.reports.values())

    def jobs(self, seed: int, k: int):
        order = sorted(self.exit_codes)
        random.Random(f"{self.name}:{seed}:{k}").shuffle(order)
        return [{"session": name} for name in order]

    def job_tasks(self, job):
        return len(self.reports[job["session"]])

    def execute(self, job, runner):
        from ffrob import cli

        parse, run_command = cli.parse_session, cli.run_command
        name = job["session"]

        def parse_then_start(text):
            spec = parse(text)
            runner.open_root()
            return spec

        def timed_command(spec, cmd, *args, **kwargs):
            start = time.perf_counter()
            report = run_command(spec, cmd, *args, **kwargs)
            runner.record(f"{name} line {cmd.line}: {cmd.name}", time.perf_counter() - start, report)
            return report

        cli.parse_session = parse_then_start
        cli.run_command = timed_command
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = cli.main([f"sessions/{name}.ffor", "--json"])
        except Exception as exc:  # a crash fails the session's tasks, not the run
            code = f"raised {type(exc).__name__}: {exc}"
        if runner.setup_done is None:
            runner.end_setup()
        runner.close_root()
        runner.output = {"stdout": out.getvalue(), "exit": code}

    def check(self, job, index, answer):
        want = self.reports[job["session"]][index]
        return None if answer == want else f"report differs from the recorded {want}"

    def check_output(self, job, output):
        name = job["session"]
        if output["exit"] != self.exit_codes[name]:
            return f"exit {output['exit']}, expected {self.exit_codes[name]}"
        return None if output["stdout"] == self.stdout[name] else "stdout differs from the recording"


WORKLOADS = {w.name: w for w in (ProbeRegular(), FrobeniusHighp(), CorpusCli())}
