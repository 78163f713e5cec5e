import io
import json
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrob import ExponentOverflowError, ParseError, PolyRing, PrimeField, cli, parse_polynomial
from ffrob.cli import parse_session, run_session

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
EXPECTED = ROOT / "perfbench" / "expected"

F5 = PrimeField(5)
R5 = PolyRing(F5, ("x", "y"))


def test_parse_polynomial_examples():
    f = parse_polynomial("x^2*y + 3", R5)
    assert [(m, c) for m, c in f.terms] == [((2, 1), 1), ((0, 0), 3)]
    R2 = PolyRing(PrimeField(2), ("x",))
    assert parse_polynomial("x + x", R2).is_zero
    assert parse_polynomial("2*x - 7", R5) == parse_polynomial("2*x + 3", R5)
    assert parse_polynomial("(x+y)^2", R5) == parse_polynomial(
        "x^2 + 2*x*y + y^2", R5
    )


@pytest.mark.parametrize("bad", ["x^", "z", "x^0", "x^-2", "x ++", "", "x)"])
def test_parse_polynomial_errors(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad, R5)


def test_tokenizer_names_the_stray_character_and_skips_trailing_space():
    with pytest.raises(ParseError, match=re.escape("unexpected character '$' in 'x $ y'")):
        parse_polynomial("x $ y", R5)
    assert parse_polynomial("x + 1   ", R5) == parse_polynomial("x+1", R5)


def test_parse_round_trip():
    for text in ("x^2*y + 3", "x*y + 4*x + 1", "x^3 + 2*y^3"):
        f = parse_polynomial(text, R5)
        assert parse_polynomial(str(f), R5) == f


COUNTEREXAMPLE_SESSION = """\
ring p=2 vars=x,y,z,w quotient=[x^3, x^2*z + y^2*w, x*y, y^3]
ideal I = [x]
ideal J = [y]
check2 I J 1
"""


def test_parse_session_counterexample():
    spec = parse_session(COUNTEREXAMPLE_SESSION)
    assert len(spec.ring.quotient_gens) == 4
    assert set(spec.ideals) == {"I", "J"}
    assert len(spec.commands) == 1


def test_parse_session_dual_numbers():
    spec = parse_session("ring p=2 vars=x quotient=[x^2]\nreduced\n")
    assert spec.ring.describe() == "F_2[x]/(x^2)"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ring p=4 vars=x\n", "not prime"),
        ("ideal I = [x]\n", "ring must be declared first"),
        ("ring p=2 vars=x\nideal I = [x]\nideal I = [x]\n", "duplicate name"),
        ("ring p=2 vars=x\ncheck3 I u 1\n", "unknown ideal"),
        ("ring p=2 vars=x\nprobe --bogus 3\n", "invalid flag"),
        ("ring p=2 vars=x\nring p=3 vars=y\n", "duplicate ring"),
        ("ring p=2 vars=x\nfrobboot\n", "unknown command"),
        ("ring p=2 vars=x,x\n", "duplicate variable names"),
        ("ring p=2 vars=x\nprobe --count -5\n", "--count must be at least 0"),
        ("ring p=2 vars=x\nprobe --emax 0\n", "--emax must be at least 1"),
        ("ring p=2 vars=x\nprobe --max-terms 0\n", "--max-terms must be at least 1"),
        ("ring p=2 vars=x\nprobe --max-generators 0\n", "--max-generators must be at least 1"),
        ("ring p=2 vars=x\nideal I = [x]\nfrobroot I 0\n", "line 3: frobroot needs an exponent of at least 1"),
        ("ring p=2 vars=,\nprobe --count 0\n", "line 1: ring declaration names no variables"),
        ("ring p=2 vars=x,1\nideal I = [1]\ngb I\n", "line 1: variable name '1' is not an identifier"),
        ("ring p=2 vars=2x,y\n", "line 1: variable name '2x' is not an identifier"),
    ],
)
def test_parse_session_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert fragment in str(err.value)


def test_run_session_exit_codes():
    spec = parse_session(COUNTEREXAMPLE_SESSION)
    reports, code = run_session(spec, {})
    assert code == 2
    assert reports[0]["outcome"] == "FAIL"
    assert reports[0]["witness"]["separator"] == "x^2*z"

    ok_spec = parse_session("ring p=2 vars=x quotient=[x^2]\nreduced\n")
    reports, code = run_session(ok_spec, {})
    assert code == 0
    assert reports[0]["result"] is False


def test_bracket_zero_prints_input_unchanged():
    spec = parse_session("ring p=2 vars=x,y\nideal I = [x^2+y]\nbracket I 0\ngb I\n")
    reports, _ = run_session(spec, {})
    assert reports[0]["result"] == reports[1]["result"]


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "ffrob.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_corpus_exit_codes():
    assert _run_cli([str(SESSIONS / "dualnumbers.ffor")]).returncode == 0
    assert _run_cli([str(SESSIONS / "polyring.ffor")]).returncode == 0
    assert _run_cli([str(SESSIONS / "cusp.ffor")]).returncode == 2
    assert _run_cli([str(SESSIONS / "counterexample_p2.ffor")]).returncode == 2
    missing = _run_cli(["no-such-session.ffor"])
    assert missing.returncode == 1
    assert "error" in missing.stderr


def test_cli_oversized_bracket_exponent_is_an_error(tmp_path):
    session = tmp_path / "big.ffor"
    session.write_text("ring p=2 vars=x,y\nideal I = [x^2+y]\nbracket I 20000\n")
    out = _run_cli([str(session)])
    assert out.returncode == 1
    assert out.stderr.startswith("ffor: error:")
    assert "Traceback" not in out.stderr


def test_cli_division_past_the_exponent_budget_is_an_error(tmp_path):
    # reducing u by y + x replaces y with x, which makes x^(2^32)
    session = tmp_path / "budget.ffor"
    session.write_text(
        "ring p=2 vars=y,x quotient=[y+x]\nideal I = []\nelem u = x^4294967295*y\nmember u I\n"
    )
    out = _run_cli([str(session)])
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("ffor: error: exponent 4294967296 exceeds 2^32")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "expr, exponent", [("(x+y+1)^4294967296", 4294967296), ("x^99999999999", 99999999999)]
)
def test_cli_power_past_the_exponent_budget_fails_before_multiplying(tmp_path, expr, exponent):
    # f^n holds x_i^(n*e_i), so the budget is checked before any squaring;
    # otherwise the first power squares dense polynomials up to degree 2^31
    R3 = PolyRing(PrimeField(3), ("x", "y"))
    start = time.perf_counter()
    with pytest.raises(ExponentOverflowError, match=f"^exponent {exponent} exceeds"):
        parse_polynomial(expr, R3)
    assert time.perf_counter() - start < 1
    session = tmp_path / "power.ffor"
    session.write_text(f"ring p=3 vars=x,y\nelem u = {expr}\n")
    cmd = [sys.executable, "-m", "ffrob.cli", str(session)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr == f"ffor: error: line 2: exponent {exponent} exceeds 2^32\n"
    # the largest power in budget still parses
    top = parse_polynomial("(x*y^2)^2147483647", R5)
    assert top == R5.poly({(2147483647, 4294967294): 1})


def _run_capped(session):
    """`ffor session` in a child capped at 1 GiB of address space and 60 s."""
    cap = 2**30
    return subprocess.run(
        [sys.executable, "-m", "ffrob.cli", str(session)],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_cli_probe_past_the_pool_limit_is_an_error(tmp_path):
    # x,y have C(100002, 2) monomials of degree at most 100000; the pool
    # is refused before it is built, so the child never nears its 1 GiB cap
    session = tmp_path / "pool.ffor"
    session.write_text("ring p=2 vars=x,y\nprobe --max-degree 100000\n")
    out = _run_capped(session)
    assert out.returncode == 1
    assert out.stderr == (
        "ffor: error: 2 variables have 5000150001 monomials of degree at most"
        " 100000, more than the 1048576 a pool may hold\n"
    )


@pytest.mark.parametrize("flag", ["--max-terms", "--max-generators"])
def test_cli_probe_past_the_sampler_limit_is_an_error(tmp_path, flag):
    # the sampler loops once per term and per generator, so a huge bound
    # would run without end; it is refused while the session is parsed
    session = tmp_path / "sampler.ffor"
    session.write_text(f"ring p=2 vars=x,y\nprobe --count 1 {flag} 1000000000\n")
    out = _run_capped(session)
    assert out.returncode == 1
    assert out.stderr == f"ffor: error: line 2: flag {flag} must be at most 1000, got 1000000000\n"
    session.write_text(f"ring p=2 vars=x,y\nprobe --count 1 {flag} 1000\n")
    assert _run_cli([str(session)]).returncode == 0


@pytest.mark.parametrize(
    "expr, bound", [("(x+1)^4294967295", 4294967296), ("(x+1)^2047*(y+1)^2047", 4194304)]
)
def test_cli_product_past_the_term_limit_is_an_error(tmp_path, expr, bound):
    # n*e = 2^32 - 1 is within the exponent budget, but (x+1)^(2^32 - 1)
    # over F_2 has 2^32 terms: the whole power is bounded before the first
    # squaring, and a product of factors before it is multiplied
    session = tmp_path / "product.ffor"
    session.write_text(f"ring p=2 vars=x,y\nelem u = {expr}\n")
    out = _run_capped(session)
    assert out.returncode == 1
    assert out.stderr == (
        f"ffor: error: line 2: a product could have {bound} terms, more than the"
        " 1048576 a parsed polynomial may hold\n"
    )
    # the bound counts both factors' terms and their degrees
    assert len(parse_polynomial("(x+1)^1024", PolyRing(PrimeField(3), ("x",))).terms) == 144
    R2 = PolyRing(PrimeField(2), ("x", "y"))
    assert parse_polynomial("(x+y)^1048576", R2) == R2.poly({(2**20, 0): 1, (0, 2**20): 1})


def test_cli_negative_default_count_is_an_error():
    out = _run_cli([str(SESSIONS / "polyring.ffor"), "--count", "-5"])
    assert out.returncode == 1
    assert out.stderr.startswith("ffor: error: --count must be at least 0")


def test_cli_fclosure_stops_at_largest_fitting_exponent(tmp_path):
    # x^2 raised to 2^31 would need exponent 2^32, so e = 30 is the last
    # exponent searched, and the report says so
    session = tmp_path / "fclosure.ffor"
    session.write_text("ring p=2 vars=x,y\nideal I = [x^2]\nelem u = y\nfclosure u I 40\n")
    out = _run_cli([str(session), "--json"])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [
        {"command": "fclosure", "result": False, "e": None, "e_max": 30}
    ]


def test_cli_fclosure_of_constants_asks_once(tmp_path):
    # with x and every generator of I constant, each e asks the same
    # question, so only e = 0 is asked and reported; the timeout turns
    # asking it once per e up to e_max into a failure
    session = tmp_path / "fclosure.ffor"
    session.write_text("ring p=2 vars=x\nideal Z = []\nelem u = 1\nfclosure u Z 99999999999999999999\n")
    out = subprocess.run(
        [sys.executable, "-m", "ffrob.cli", str(session), "--json"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [{"command": "fclosure", "result": False, "e": None, "e_max": 0}]


def test_cli_element_checks_pass_on_elements_zero_in_the_ring(tmp_path):
    # 0, and y^2+x^3, which lies in Q: (I : 0) is the unit ideal, and so is
    # (I^[q] : 0), so both element identities hold
    session = tmp_path / "zero.ffor"
    lines = ["ring p=2 vars=x,y quotient=[y^2+x^3]", "ideal I = [x]", "elem z = 0", "elem q = y^2+x^3"]
    for u in ("z", "q"):
        lines += [f"check3 I {u} 1", f"check4 I {u} 1", f"check3 I {u} 2", f"check4 I {u} 2", f"colon I {u}"]
    session.write_text("\n".join(lines) + "\n")
    out = _run_cli([str(session)])
    assert out.returncode == 0, out.stderr
    answers = ["check3 -> PASS", "check4 -> PASS"] * 2 + ["colon -> [1]"]
    assert out.stdout.splitlines() == answers * 2


def test_cli_huge_frobroot_exponent_answers_as_at_32(tmp_path):
    # every exponent is below 2^32 <= p^32, so the root is the same for all
    # e >= 32; the timeout turns building p^e for a huge e into a failure
    session = tmp_path / "frobroot.ffor"
    session.write_text(
        "ring p=2 vars=x\nideal I = [x]\nfrobroot I 99999999999999999999\nfrobroot I 32\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "ffrob.cli", str(session), "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    huge, at_32 = json.loads(out.stdout)
    assert huge == at_32 == {"command": "frobroot", "result": ["1"]}


def test_cli_huge_probe_emax_is_an_error(tmp_path):
    # the probe runs e = 1, 2, ... and stops at the first p^e past the
    # exponent budget; it never builds the list of all requested exponents
    session = tmp_path / "probe.ffor"
    session.write_text("ring p=2 vars=x\nprobe --emax 99999999999\n")
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "ffrob.cli", str(session)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert out.returncode == 1
    assert out.stderr.startswith("ffor: error:")
    assert "Traceback" not in out.stderr


def test_cli_ring_names_never_collide_with_fresh_variables(tmp_path):
    # `__f_x` was the kernel preimage's fresh name for x
    session = tmp_path / "collide.ffor"
    session.write_text(
        "ring p=2 vars=x,__f_x\nideal I = [x^2]\nfkernel I\nreduced\nprobe --count 2\n"
    )
    out = _run_cli([str(session)])
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "fkernel -> [x]",
        "reduced -> true",
        "probe -> NO_WITNESS_FOUND",
    ]


@pytest.mark.parametrize("session", sorted(p.stem for p in SESSIONS.glob("*.ffor")))
def test_cli_corpus_json_is_byte_identical_to_recording(session):
    exit_codes = json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))
    out = subprocess.run(
        [sys.executable, "-m", "ffrob.cli", str(SESSIONS / f"{session}.ffor"), "--json"],
        capture_output=True,
    )
    assert out.returncode == exit_codes[session]
    assert out.stdout == (EXPECTED / f"{session}.json").read_bytes()


def test_cli_json_deterministic():
    runs = [
        _run_cli([str(SESSIONS / "cusp.ffor"), "--json", "--seed", "1"])
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    reports = json.loads(runs[0].stdout)
    for rep in reports:
        assert "command" in rep
        if rep.get("outcome") == "FAIL":
            assert set(rep["witness"]) >= {"I", "x", "e", "separator", "side"}


def test_cli_json_reparse_round_trip():
    out = _run_cli([str(SESSIONS / "polyring.ffor"), "--json"])
    reports = json.loads(out.stdout)
    ring = parse_session("ring p=2 vars=x,y\n").ring
    by_cmd = {r["command"]: r for r in reports}
    original = ring.ideal([parse_polynomial(s, ring.ambient) for s in ("x^2+y", "x*y")])
    reparsed = ring.ideal(
        [parse_polynomial(s, ring.ambient) for s in by_cmd["gb"]["result"]]
    )
    assert reparsed == original


# `ffor <session>` exit code and text stdout; perfbench/expected/ pins only
# the --json bytes, and _render_text reads the dicts the handlers build
CORPUS_TEXT = {
    "counterexample_p2": (
        2,
        "intersect -> [x^3, y^3, x^2*z, y^2*w, x*y]\n"
        "member -> true\n"
        "reduced -> false\n"
        "nilradical -> [x, y] steps=2 q=4\n"
        "check2 -> FAIL separator=x^2*z side=rhs e=1\n",
    ),
    "cusp": (
        2,
        "reduced -> true\n"
        "jacobian -> SINGULAR\n"
        "fedder -> false\n"
        "check3 -> FAIL separator=x^3 side=lhs e=1\n"
        "check4 -> FAIL separator=1 side=rhs e=1\n"
        "probe -> NOT_REGULAR identity=PRINCIPAL_INTERSECTION separator=x^3\n",
    ),
    "dualnumbers": (
        0,
        "reduced -> false\n"
        "jacobian -> SINGULAR\n"
        + "check2 -> PASS\n" * 6
        + "fclosure -> true e=1\n",
    ),
    "polyring": (
        0,
        "gb -> [x^2 + y, x*y, y^2]\n"
        "intersect -> [x*y, y^2]\n"
        "colon -> [x^2, y]\n"
        "bracket -> [x^4 + y^2, x^2*y^2, y^4]\n"
        "frobroot -> [1]\n"
        "check2 -> PASS\n"
        "check3 -> PASS\n"
        "check4 -> PASS\n"
        "fedder -> true\n"
        "jacobian -> REGULAR\n"
        "probe -> NO_WITNESS_FOUND\n",
    ),
}


@pytest.mark.parametrize("session", sorted(p.stem for p in SESSIONS.glob("*.ffor")))
def test_cli_corpus_text_is_pinned(session):
    code, stdout = CORPUS_TEXT[session]
    out = _run_cli([str(SESSIONS / f"{session}.ffor")])
    assert (out.returncode, out.stdout) == (code, stdout)


_POLY = "ring p=2 vars=x,y\nideal I = [x^2+y, x*y]\nideal J = [y]\nelem u = x+y\n"
_CUSP = "ring p=2 vars=x,y quotient=[y^2+x^3]\nideal I = [x]\nelem u = y\n"
_DUAL = "ring p=2 vars=x quotient=[x^2]\nideal Z = []\nelem u = x\n"
_CUSP_RING = "F_2[x,y]/(x^3 + y^2)"
_CUSP_WITNESS = {"I": ["x"], "x": "y", "e": 1, "separator": "x^3", "side": "lhs"}

# command -> (session, its exit code, its one JSON report); optional
# arguments are left out where a default exists
EVERY_COMMAND = {
    "gb": (_POLY + "gb I", 0, {"result": ["x^2 + y", "x*y", "y^2"]}),
    "intersect": (_POLY + "intersect I J", 0, {"result": ["x*y", "y^2"]}),
    "colon": (_POLY + "colon I u", 0, {"result": ["x^2", "y"]}),
    "member": (_POLY + "member u I", 0, {"result": False}),
    "equal": (_POLY + "equal I J", 0, {"result": False}),
    "sum": (_POLY + "sum I J", 0, {"result": ["x^2", "y"]}),
    "bracket": (_POLY + "bracket I 1", 0, {"result": ["x^4 + y^2", "x^2*y^2", "y^4"]}),
    "frobroot": (_POLY + "frobroot I 1", 0, {"result": ["1"]}),
    "fkernel": (_POLY + "fkernel I", 0, {"result": ["x^2", "y"]}),
    "nilradical": (_DUAL + "nilradical", 0, {"result": ["x"], "steps": 1, "q": 2}),
    "reduced": (_CUSP + "reduced", 0, {"result": True}),
    "fclosure": (_DUAL + "fclosure u Z", 0, {"result": True, "e": 1, "e_max": 4}),
    "check2": (
        _POLY + "check2 I J",
        0,
        {"identity": "INTERSECTION_FAMILY", "ring": "F_2[x,y]", "trials": 1, "outcome": "PASS", "result": "PASS"},
    ),
    "check3": (
        _CUSP + "check3 I u",
        2,
        {
            "identity": "PRINCIPAL_INTERSECTION", "ring": _CUSP_RING, "trials": 1,
            "outcome": "FAIL", "witness": _CUSP_WITNESS, "result": "FAIL",
        },
    ),
    "check4": (
        _CUSP + "check4 I u 2",
        2,
        {
            "identity": "COLON", "ring": _CUSP_RING, "trials": 1, "outcome": "FAIL",
            "witness": {"I": ["x"], "x": "y", "e": 2, "separator": "1", "side": "rhs"}, "result": "FAIL",
        },
    ),
    "fedder": (_CUSP + "fedder", 0, {"result": False}),
    "jacobian": (_CUSP + "jacobian", 0, {"result": "SINGULAR"}),
    "probe": (
        _CUSP + "probe --count 3 --seed 2 --emax 1",
        2,
        {
            "identity": "PROBE", "ring": _CUSP_RING, "trials": 0, "structured_checks": 3,
            "outcome": "NOT_REGULAR", "reduced": True, "note": "",
            "witness": {
                "identity": "PRINCIPAL_INTERSECTION", "ring": _CUSP_RING, "trials": 1,
                "outcome": "FAIL", "witness": _CUSP_WITNESS,
            },
            "result": "NOT_REGULAR",
        },
    ),
}


def test_every_command_has_a_case():
    assert set(EVERY_COMMAND) == set(cli._COMMANDS)


@pytest.mark.parametrize("name", sorted(EVERY_COMMAND))
def test_every_command_answers(name):
    text, code, fields = EVERY_COMMAND[name]
    reports, got = run_session(parse_session(text + "\n"), {})
    assert json.loads(json.dumps(reports)) == [{"command": name, **fields}]
    assert got == code


def test_readme_quick_start_and_command_lists():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines()[0] == "FAIL"
    listed = re.findall(r"`([^`]+)`", readme.split("\nCommands: ", 1)[1].split("\n\n", 1)[0])
    assert {w for w in listed if not w.startswith("--")} == set(cli._COMMANDS)
    assert {w for w in listed if w.startswith("--")} == set(cli._PROBE_FLAGS)


def test_power_past_the_term_limit_is_refused_before_multiplying():
    # (x+1)^(2^32 - 1) over F_2 has 2^32 terms; the whole power is bounded
    # before the first squaring
    R2 = PolyRing(PrimeField(2), ("x", "y"))
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^a product could have 4294967296 terms"):
        parse_polynomial("(x+1)^4294967295", R2)
    assert time.perf_counter() - start < 1


LONG = "1" * 5000  # past the 4,300 digits that int() reads


def test_cli_long_coefficient_is_read_mod_p(tmp_path, capsys):
    # a coefficient is needed only mod p; 111111 = 7 * 15873
    assert parse_polynomial(LONG + "*x", PolyRing(PrimeField(7), ("x",))).terms == (((1,), 4),)
    session = tmp_path / "long.ffor"
    session.write_text(f"ring p=2 vars=x\nelem u = {LONG}\nideal I = [x + {LONG}]\nideal Z = []\ngb I\nmember u Z\n")
    assert cli.main([str(session)]) == 0
    assert capsys.readouterr().out == "gb -> [x + 1]\nmember -> false\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("ring p=2 vars=x\nideal I = [x]\nbracket I {n}\n", 3),
        ("ring p=2 vars=x\nelem u = x^{n}\n", 2),
        ("ring p=2147483647 vars=x\nelem u = 3^{n}\n", 2),
        ("ring p={n} vars=x\n", 1),
        ("ring p=2 vars=x\nprobe --count 1 --seed -{n}\n", 2),
    ],
)
def test_cli_long_integer_past_its_bound_is_an_error(tmp_path, capsys, text, line):
    # an exponent, a command's integer, p or a flag value is read exactly,
    # and one of more than 4,000 digits is refused before int() sees it
    session = tmp_path / "long.ffor"
    session.write_text(text.format(n=LONG))
    assert cli.main([str(session)]) == 1
    assert capsys.readouterr().err == f"ffor: error: line {line}: an integer may have at most 4000 digits, got 5000\n"
    session.write_text(text.format(n="9" * 4000))
    cli.main([str(session)])  # read; then answered, or refused by its own bound
    assert "digits" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--count", "abc", "--count needs an integer value, got 'abc'"),
        ("--emax", "x", "--emax needs an integer value, got 'x'"),
        ("--seed", LONG, "an integer may have at most 4000 digits, got 5000"),
    ],
)
def test_cli_malformed_default_is_an_error(capsys, flag, value, message):
    # exit code 2 means a witness was found; a bad option value is an error
    assert cli.main([str(SESSIONS / "polyring.ffor"), flag, value]) == 1
    assert capsys.readouterr().err == f"ffor: error: {message}\n"


POLYRING = str(SESSIONS / "polyring.ffor")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([POLYRING, "--bogus"], "unrecognized arguments: --bogus"),
        ([POLYRING, "--count"], "argument --count: expected one argument"),
        ([POLYRING, "--count", "-x"], "argument --count: expected one argument"),
        ([], "the following arguments are required: session"),
    ],
)
def test_cli_usage_error_is_an_error(capsys, argv, message):
    # argparse's own exit code, 2, means a witness was found
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"ffor: error: {message}\n"


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([POLYRING, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ffor")


def test_power_by_base_p_digits_is_fast(tmp_path, capsys):
    # (x+1)^(3^20) over F_3 is x^(3^20) + 1, one Frobenius power of x + 1;
    # square-and-multiply on the whole exponent builds (x+1)^(2^k) on the
    # way, which is far larger
    session = tmp_path / "power.ffor"
    session.write_text("ring p=3 vars=x\nelem u = (x+1)^3486784401\nideal J = [(x+1)^3486784401]\ngb J\n")
    start = time.perf_counter()
    assert cli.main([str(session)]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "gb -> [x^3486784401 + 1]\n"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.sampled_from((2, 3, 5)),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3),
    st.integers(1, 30),
)
def test_power_by_base_p_digits_matches_repeated_products(p, monomials, n):
    # f^n as the product of (f^d_j)^[p^j] over the base-p digits d_j of n
    ring = PolyRing(PrimeField(p), ("x", "y"))
    f = ring.poly({m: 1 for m in monomials})
    expected = ring.one()
    for _ in range(n):
        expected = expected * f
    assert parse_polynomial(f"({f})^{n}", ring) == expected
