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

`_COMMANDS` is the one definition of the commands: it maps each name to
its argument kinds, which `_parse_command` checks and resolves against
the declared ideals and elements, and to the handler `run_command`
calls with the ring, the session's settings and those arguments.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple

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
from .parser import NAME, parse_polynomial, read_int
from .poly import PolyRing

_RING_RE = re.compile(r"^ring\s+p=(\d+)\s+vars=([A-Za-z_0-9,]+)(?:\s+quotient=\[(.*)\])?\s*$")
# declaration -> (its pattern: name, then body; the noun its errors use)
_DECLARATIONS = {
    "ideal": (re.compile(rf"^ideal\s+({NAME})\s*=\s*\[(.*)\]\s*$"), "ideal"),
    "elem": (re.compile(rf"^elem\s+({NAME})\s*=\s*(.+)$"), "element"),
}

# what a session runs with when the command line does not say
_DEFAULTS = {"seed": 1, "count": 50, "emax": 4}


def _basis(I: Ideal):
    return {"result": [str(g) for g in I.groebner]}


def _outcome(report):
    fields = report.to_dict()
    return {**fields, "result": fields["outcome"]}


def _nilradical(ring, settings):
    res = nilradical_char_p(ring)
    return {**_basis(res.ideal), "steps": res.steps, "q": res.q}


def _fclosure(ring, settings, x, I, e_max=None):
    bound = closure_search_bound(x, I, settings["emax"] if e_max is None else e_max)
    hit, e = frobenius_closure_test(x, I, bound)
    return {"result": hit, "e": e, "e_max": bound}


def _probe(ring, settings, flags):
    sampler = {"seed": settings["seed"], "count": settings["count"], **flags}
    e_hi = sampler.pop("emax", 1)
    return _outcome(regularity_probe(ring, SamplerConfig(**sampler), e_list=range(1, e_hi + 1)))


# command -> (argument kinds, handler).  A kind is "ideal", "elem", "int"
# (at least 0), "int+" (at least 1) or "int?" (optional); "flags" is a run
# of probe flags, passed on as one dict.  A handler takes (ring, settings,
# *args) and returns the report fields that follow "command".
_COMMANDS = {
    "gb": (("ideal",), lambda ring, s, I: _basis(I)),
    "intersect": (("ideal", "ideal"), lambda ring, s, I, J: _basis(I.intersect(J))),
    "colon": (("ideal", "elem"), lambda ring, s, I, x: _basis(I.colon(x))),
    "member": (("elem", "ideal"), lambda ring, s, x, I: {"result": I.contains(x)}),
    "equal": (("ideal", "ideal"), lambda ring, s, I, J: {"result": I == J}),
    "sum": (("ideal", "ideal"), lambda ring, s, I, J: _basis(I + J)),
    "bracket": (("ideal", "int"), lambda ring, s, I, e: _basis(bracket_power(I, e))),
    "frobroot": (("ideal", "int+"), lambda ring, s, I, e: _basis(frobenius_root(I, e))),
    "fkernel": (("ideal",), lambda ring, s, I: _basis(frobenius_kernel_preimage(I))),
    "nilradical": ((), _nilradical),
    "reduced": ((), lambda ring, s: {"result": is_reduced(ring)}),
    "fclosure": (("elem", "ideal", "int?"), _fclosure),
    "check2": (
        ("ideal", "ideal", "int?"),
        lambda ring, s, I, J, e=1: _outcome(check_intersection_family([I, J], e)),
    ),
    "check3": (
        ("ideal", "elem", "int?"),
        lambda ring, s, I, x, e=1: _outcome(check_principal_intersection(I, x, e)),
    ),
    "check4": (
        ("ideal", "elem", "int?"),
        lambda ring, s, I, x, e=1: _outcome(check_colon(I, x, e)),
    ),
    "fedder": ((), lambda ring, s: {"result": fedder_is_fpure(ring)}),
    "jacobian": ((), lambda ring, s: {"result": jacobian_regularity_oracle(ring)}),
    "probe": ("flags", _probe),
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


class Command(namedtuple("Command", ("line", "name", "args"))):
    __slots__ = ()


class SessionSpec(namedtuple("SessionSpec", ("ring", "ideals", "elems", "commands"))):
    __slots__ = ()


def _split_list(text: str):
    """Split a bracketed generator list on commas (no commas nest)."""
    parts = [part.strip() for part in text.split(",")]
    return [part for part in parts if part]


def _parse_ring(line: str, lineno: int) -> QuotientRing:
    m = _RING_RE.match(line)
    if m is None:
        raise ParseError(f"malformed ring declaration: {line!r}", lineno)
    fieldspec = PrimeField(read_int(m.group(1)))
    names = tuple(n for n in m.group(2).split(",") if n)
    if not names:
        raise ParseError(f"ring declaration names no variables: {line!r}", lineno)
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate variable names in {line!r}", lineno)
    for n in names:
        if not re.fullmatch(NAME, n):
            raise ParseError(f"variable name {n!r} is not an identifier", lineno)
    plain = PolyRing(fieldspec, names)
    qgens = [parse_polynomial(s, plain) for s in _split_list(m.group(3) or "")]
    return QuotientRing(fieldspec, names, qgens)


def parse_session(text: str) -> SessionSpec:
    spec = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        try:
            if head == "ring":
                if spec is not None:
                    raise ParseError("duplicate ring declaration", lineno)
                spec = SessionSpec(_parse_ring(line, lineno), {}, {}, [])
            elif spec is None:
                raise ParseError("the ring must be declared first", lineno)
            elif head in _DECLARATIONS:
                _declare(spec, head, line, lineno)
            else:
                spec.commands.append(_parse_command(line, lineno, spec.ideals, spec.elems))
        except FFrobError as exc:
            if isinstance(exc, ParseError) and exc.line is not None:
                raise
            raise ParseError(str(exc), lineno) from exc
    if spec is None:
        raise ParseError("session contains no ring declaration")
    return spec


def _declare(spec: SessionSpec, head: str, line: str, lineno: int):
    pattern, noun = _DECLARATIONS[head]
    m = pattern.match(line)
    if m is None:
        raise ParseError(f"malformed {noun} declaration: {line!r}", lineno)
    name, body = m.groups()
    if name in spec.ideals or name in spec.elems:
        raise ParseError(f"duplicate name {name!r}", lineno)
    ambient = spec.ring.ambient
    if head == "ideal":
        spec.ideals[name] = Ideal(spec.ring, [parse_polynomial(s, ambient) for s in _split_list(body)])
    else:
        spec.elems[name] = parse_polynomial(body, ambient)


def _parse_command(line: str, lineno: int, ideals, elems) -> Command:
    name, *rest = line.split()
    if name not in _COMMANDS:
        raise ParseError(f"unknown command {name!r}", lineno)
    shape = _COMMANDS[name][0]
    if shape == "flags":
        flags = {}
        for i in range(0, len(rest), 2):
            if rest[i] not in _PROBE_FLAGS:
                raise ParseError(f"invalid flag {rest[i]!r} for {name}", lineno)
            if i + 1 >= len(rest) or not re.fullmatch(r"-?\d+", rest[i + 1]):
                raise ParseError(f"flag {rest[i]} needs an integer value", lineno)
            value, (least, greatest) = read_int(rest[i + 1]), _PROBE_FLAGS[rest[i]]
            if least is not None and value < least:
                raise ParseError(f"flag {rest[i]} must be at least {least}, got {value}", lineno)
            if greatest is not None and value > greatest:
                raise ParseError(f"flag {rest[i]} must be at most {greatest}, got {value}", lineno)
            flags[rest[i].lstrip("-").replace("-", "_")] = value
        return Command(lineno, name, [flags])
    args = []
    required = sum(1 for s in shape if not s.endswith("?"))
    if not required <= len(rest) <= len(shape):
        raise ParseError(f"{name} takes {len(shape)} argument(s), got {len(rest)}", lineno)
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
            value = read_int(tok)
            if kind == "int+" and value < 1:
                raise ParseError(f"{name} needs an exponent of at least 1, got {tok}", lineno)
            args.append(value)
    return Command(lineno, name, args)


def run_command(spec: SessionSpec, cmd: Command, overrides: dict) -> dict:
    """Execute one command; returns a JSON-ready report dict with at
    least 'command' and 'result' keys; check reports add the schema of
    the regularity lab."""
    handler = _COMMANDS[cmd.name][1]
    return {"command": cmd.name, **handler(spec.ring, {**_DEFAULTS, **overrides}, *cmd.args)}


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


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ParseError, so that it exits 1, not 2."""

    def error(self, message):
        raise ParseError(message)


def main(argv=None) -> int:
    ap = _ArgumentParser(
        prog="ffor",
        description="Frobenius ideal operations and regularity probes over F_p",
    )
    ap.add_argument("session", help="path to a session file")
    ap.add_argument("--json", action="store_true", help="emit a JSON report array")
    # read as text, so that a malformed or overlong value exits 1, not 2
    ap.add_argument("--seed", default=str(_DEFAULTS["seed"]), help="default probe seed")
    ap.add_argument("--count", default=str(_DEFAULTS["count"]), help="default probe trial count")
    ap.add_argument("--emax", default=str(_DEFAULTS["emax"]), help="default Frobenius closure bound")
    try:
        ns = ap.parse_args(argv)
        with open(ns.session, encoding="utf-8") as fh:
            text = fh.read()
        overrides = {}
        for name in _DEFAULTS:
            token = getattr(ns, name)
            if not re.fullmatch(r"-?\d+", token):
                raise ParseError(f"--{name} needs an integer value, got {token!r}")
            overrides[name] = value = read_int(token)
            if name != "seed" and value < 0:
                raise ParseError(f"--{name} must be at least 0, got {value}")
        spec = parse_session(text)
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
