"""Session-file frontend.

A session is a line-oriented script: one ring declaration, named ideals
and elements, then commands.  Sessions are the reproducible fixtures of
the project; the exit-code contract (0 success, 2 identity-failure
witness found, 1 error) lets a directory of sessions double as a
shell-level test suite.

    ring p=2 vars=x,y,z,w quotient=[x^3, x^2*z + y^2*w, x*y, y^3]
    ideal I = [x]
    ideal J = [y]
    elem u = y
    check2 I J 1
    probe --count 200 --seed 1
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field as dc_field

from .checks import (
    SamplerConfig,
    check_colon,
    check_intersection_family,
    check_principal_intersection,
    fedder_is_fpure,
    jacobian_regularity_oracle,
    regularity_probe,
)
from .errors import FFrobError, ParseError
from .frobenius import (
    bracket_power,
    closure_search_bound,
    frobenius_closure_test,
    frobenius_kernel_preimage,
    frobenius_root,
    is_reduced,
    nilradical_char_p,
)
from .field import PrimeField
from .ideals import Ideal, QuotientRing
from .parser import NAME, parse_polynomial
from .poly import PolyRing

_RING_RE = re.compile(
    r"^ring\s+p=(\d+)\s+vars=([A-Za-z_0-9,]+)(?:\s+quotient=\[(.*)\])?\s*$"
)
_IDEAL_RE = re.compile(rf"^ideal\s+({NAME})\s*=\s*\[(.*)\]\s*$")
_ELEM_RE = re.compile(rf"^elem\s+({NAME})\s*=\s*(.+)$")

# what a session runs with when the command line does not say
_DEFAULTS = {"seed": 1, "count": 50, "emax": 4}

_COMMANDS = {
    "gb": ("ideal",),
    "intersect": ("ideal", "ideal"),
    "colon": ("ideal", "elem"),
    "member": ("elem", "ideal"),
    "equal": ("ideal", "ideal"),
    "sum": ("ideal", "ideal"),
    "bracket": ("ideal", "int"),
    "frobroot": ("ideal", "int+"),
    "fkernel": ("ideal",),
    "nilradical": (),
    "reduced": (),
    "fclosure": ("elem", "ideal", "int?"),
    "check2": ("ideal", "ideal", "int?"),
    "check3": ("ideal", "elem", "int?"),
    "check4": ("ideal", "elem", "int?"),
    "fedder": (),
    "jacobian": (),
    "probe": "flags",
}

# probe flag -> (least, greatest) accepted value (None: no bound); the
# sampler loops once per term and per generator, so those two are capped
_PROBE_FLAGS = {
    "--count": (0, None),
    "--seed": (None, None),
    "--max-degree": (0, None),
    "--max-terms": (1, 1000),
    "--max-generators": (1, 1000),
    "--emax": (1, None),
}


@dataclass
class Command:
    line: int
    name: str
    args: list
    flags: dict


@dataclass
class SessionSpec:
    ring: QuotientRing
    ideals: dict
    elems: dict
    commands: list = dc_field(default_factory=list)


def _split_list(text: str):
    """Split a bracketed generator list on commas (no commas nest)."""
    parts = [part.strip() for part in text.split(",")]
    return [part for part in parts if part]


def parse_session(text: str) -> SessionSpec:
    ring = None
    ideals = {}
    elems = {}
    commands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "ring":
            if ring is not None:
                raise ParseError("duplicate ring declaration", lineno)
            m = _RING_RE.match(line)
            if m is None:
                raise ParseError(f"malformed ring declaration: {line!r}", lineno)
            try:
                fieldspec = PrimeField(int(m.group(1)))
            except FFrobError as exc:
                raise ParseError(str(exc), lineno) from exc
            names = tuple(n for n in m.group(2).split(",") if n)
            if not names:
                raise ParseError(f"ring declaration names no variables: {line!r}", lineno)
            if len(set(names)) != len(names):
                raise ParseError(f"duplicate variable names in {line!r}", lineno)
            for n in names:
                if not re.fullmatch(NAME, n):
                    raise ParseError(f"variable name {n!r} is not an identifier", lineno)
            try:
                plain = PolyRing(fieldspec, names)
                qgens = [parse_polynomial(s, plain) for s in _split_list(m.group(3) or "")]
                ring = QuotientRing(fieldspec, names, qgens)
            except FFrobError as exc:
                raise ParseError(str(exc), lineno) from exc
            continue
        if ring is None:
            raise ParseError("the ring must be declared first", lineno)
        if head == "ideal":
            m = _IDEAL_RE.match(line)
            if m is None:
                raise ParseError(f"malformed ideal declaration: {line!r}", lineno)
            name = m.group(1)
            if name in ideals or name in elems:
                raise ParseError(f"duplicate name {name!r}", lineno)
            try:
                gens = [
                    parse_polynomial(s, ring.ambient) for s in _split_list(m.group(2))
                ]
            except FFrobError as exc:
                raise ParseError(str(exc), lineno) from exc
            ideals[name] = Ideal(ring, gens)
            continue
        if head == "elem":
            m = _ELEM_RE.match(line)
            if m is None:
                raise ParseError(f"malformed element declaration: {line!r}", lineno)
            name = m.group(1)
            if name in ideals or name in elems:
                raise ParseError(f"duplicate name {name!r}", lineno)
            try:
                elems[name] = parse_polynomial(m.group(2), ring.ambient)
            except FFrobError as exc:
                raise ParseError(str(exc), lineno) from exc
            continue
        commands.append(_parse_command(line, lineno, ideals, elems))
    if ring is None:
        raise ParseError("session contains no ring declaration")
    return SessionSpec(ring, ideals, elems, commands)


def _parse_command(line: str, lineno: int, ideals, elems) -> Command:
    parts = line.split()
    name, rest = parts[0], parts[1:]
    if name not in _COMMANDS:
        raise ParseError(f"unknown command {name!r}", lineno)
    shape = _COMMANDS[name]
    if shape == "flags":
        flags = {}
        i = 0
        while i < len(rest):
            if rest[i] not in _PROBE_FLAGS:
                raise ParseError(f"invalid flag {rest[i]!r} for {name}", lineno)
            if i + 1 >= len(rest) or not re.fullmatch(r"-?\d+", rest[i + 1]):
                raise ParseError(f"flag {rest[i]} needs an integer value", lineno)
            value, (least, greatest) = int(rest[i + 1]), _PROBE_FLAGS[rest[i]]
            if least is not None and value < least:
                raise ParseError(f"flag {rest[i]} must be at least {least}, got {value}", lineno)
            if greatest is not None and value > greatest:
                raise ParseError(f"flag {rest[i]} must be at most {greatest}, got {value}", lineno)
            flags[rest[i].lstrip("-").replace("-", "_")] = value
            i += 2
        return Command(lineno, name, [], flags)
    args = []
    required = sum(1 for s in shape if not s.endswith("?"))
    if not required <= len(rest) <= len(shape):
        raise ParseError(
            f"{name} takes {len(shape)} argument(s), got {len(rest)}", lineno
        )
    for spec, tok in zip(shape, rest):
        kind = spec.rstrip("?")
        if kind == "ideal":
            if tok not in ideals:
                raise ParseError(f"unknown ideal {tok!r}", lineno)
            args.append(ideals[tok])
        elif kind == "elem":
            if tok not in elems:
                raise ParseError(f"unknown element {tok!r}", lineno)
            args.append(elems[tok])
        else:
            if not re.fullmatch(r"\d+", tok):
                raise ParseError(f"expected a nonnegative integer, got {tok!r}", lineno)
            if kind == "int+" and int(tok) < 1:
                raise ParseError(f"{name} needs an exponent of at least 1, got {tok}", lineno)
            args.append(int(tok))
    return Command(lineno, name, args, {})


def _ideal_strs(I: Ideal):
    return [str(g) for g in I.groebner]


def run_command(spec: SessionSpec, cmd: Command, overrides: dict) -> dict:
    """Execute one command; returns a JSON-ready report dict with at
    least 'command' and 'result' keys; check reports add the schema of
    the regularity lab."""
    ring = spec.ring
    name, args = cmd.name, cmd.args
    out = {"command": name}
    settings = {**_DEFAULTS, **overrides}
    emax = settings["emax"]
    if name == "gb":
        out["result"] = _ideal_strs(args[0])
    elif name == "intersect":
        out["result"] = _ideal_strs(args[0].intersect(args[1]))
    elif name == "sum":
        out["result"] = _ideal_strs(args[0] + args[1])
    elif name == "colon":
        out["result"] = _ideal_strs(args[0].colon(args[1]))
    elif name == "member":
        out["result"] = args[1].contains(args[0])
    elif name == "equal":
        out["result"] = args[0] == args[1]
    elif name == "bracket":
        out["result"] = _ideal_strs(bracket_power(args[0], args[1]))
    elif name == "frobroot":
        out["result"] = _ideal_strs(frobenius_root(args[0], args[1]))
    elif name == "fkernel":
        out["result"] = _ideal_strs(frobenius_kernel_preimage(args[0]))
    elif name == "nilradical":
        res = nilradical_char_p(ring)
        out["result"] = _ideal_strs(res.ideal)
        out["steps"] = res.steps
        out["q"] = res.q
    elif name == "reduced":
        out["result"] = is_reduced(ring)
    elif name == "fclosure":
        x, I = args[0], args[1]
        bound = closure_search_bound(x, I, args[2] if len(args) > 2 else emax)
        hit, e = frobenius_closure_test(x, I, bound)
        out["result"] = hit
        out["e"] = e
        out["e_max"] = bound
    elif name in ("check2", "check3", "check4"):
        e = args[2] if len(args) > 2 else 1
        if name == "check2":
            rep = check_intersection_family(ring, [args[0], args[1]], e)
        elif name == "check3":
            rep = check_principal_intersection(ring, args[0], args[1], e)
        else:
            rep = check_colon(ring, args[0], args[1], e)
        out.update(rep.to_dict())
        out["result"] = rep.outcome
    elif name == "fedder":
        out["result"] = fedder_is_fpure(ring)
    elif name == "jacobian":
        out["result"] = jacobian_regularity_oracle(ring)
    elif name == "probe":
        flags = dict(cmd.flags)
        e_hi = flags.pop("emax", 1)
        cfg = SamplerConfig(**{"seed": settings["seed"], "count": settings["count"], **flags})
        rep = regularity_probe(ring, cfg, e_list=range(1, e_hi + 1))
        out.update(rep.to_dict())
        out["result"] = rep.verdict
    else:  # pragma: no cover - guarded by _COMMANDS
        raise ValueError(name)
    return out


def _has_witness(report: dict) -> bool:
    return report.get("outcome") in ("FAIL", "NOT_REGULAR")


def _render_text(report: dict) -> str:
    bits = [report["command"]]
    result = report["result"]
    if isinstance(result, list):
        bits.append("-> [" + ", ".join(result) + "]")
    elif isinstance(result, bool):
        bits.append("-> " + ("true" if result else "false"))
    else:
        bits.append(f"-> {result}")
    if report.get("outcome") == "FAIL" and "witness" in report:
        w = report["witness"]
        bits.append(f"separator={w['separator']} side={w['side']} e={w['e']}")
    if report["command"] == "fclosure" and report["result"]:
        bits.append(f"e={report['e']}")
    if report["command"] == "nilradical":
        bits.append(f"steps={report['steps']} q={report['q']}")
    if report.get("outcome") == "NOT_REGULAR" and "witness" in report:
        w = report["witness"]
        bits.append(f"identity={w['identity']} separator={w['witness']['separator']}")
    return " ".join(bits)


def run_session(spec: SessionSpec, overrides: dict):
    """Execute all commands; returns (reports, exit_code)."""
    reports = [run_command(spec, cmd, overrides) for cmd in spec.commands]
    code = 2 if any(_has_witness(r) for r in reports) else 0
    return reports, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ffor",
        description="Frobenius ideal operations and regularity probes over F_p",
    )
    ap.add_argument("session", help="path to a session file")
    ap.add_argument("--json", action="store_true", help="emit a JSON report array")
    ap.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="default probe seed")
    ap.add_argument("--count", type=int, default=_DEFAULTS["count"], help="default probe trial count")
    ap.add_argument("--emax", type=int, default=_DEFAULTS["emax"], help="default Frobenius closure bound")
    ns = ap.parse_args(argv)
    try:
        with open(ns.session, encoding="utf-8") as fh:
            text = fh.read()
        for flag, value in (("--count", ns.count), ("--emax", ns.emax)):
            if value < 0:
                raise ParseError(f"{flag} must be at least 0, got {value}")
        spec = parse_session(text)
        overrides = {"seed": ns.seed, "count": ns.count, "emax": ns.emax}
        reports, code = run_session(spec, overrides)
    except (OSError, FFrobError) as exc:
        print(f"ffor: error: {exc}", file=sys.stderr)
        return 1
    if ns.json:
        print(json.dumps(reports, indent=2))
    else:
        for r in reports:
            print(_render_text(r))
    return code


if __name__ == "__main__":
    sys.exit(main())
