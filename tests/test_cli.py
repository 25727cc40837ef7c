import json
import re
from pathlib import Path

import pytest

from reesval.cli import _RING_GRAMMAR, _Session, main, parse_session, run
from reesval.errors import PreconditionError
from reesval.ideals import ASSERTIONS

PAPER_SESSION = """
# worked example
ring { vars: x1 x2 x3; field: QQ; mod: x1*x2 + x3^3; order: grevlex;
       assert: normal domain }
ideal m = x1, x2, x3
ideal p = x1, x3
cmd: gb m
cmd: multiplicity
cmd: multiplicity --f x1
cmd: ord m x1*x2 --nmax 6
cmd: rees m
cmd: check main-a --p p --q m --nmax 2
"""


def test_parse_session_structure():
    s = parse_session(PAPER_SESSION)
    assert s.ring["vars"] == ("x1", "x2", "x3")
    assert s.ring["mod"] == ["x1*x2 + x3^3"]
    assert s.ring["assert"] == ["normal", "domain"]
    assert [name for name, _ in s.ideals] == ["m", "p"]
    assert len(s.commands) == 6


def test_parse_errors():
    with pytest.raises(PreconditionError):
        parse_session("ideal m = x, y")  # no ring block
    with pytest.raises(PreconditionError):
        parse_session("ring { vars: x }\nring { vars: y }")
    with pytest.raises(PreconditionError, match=r"^unknown field 'GF 9'$"):
        parse_session("ring { vars: x; field: GF 9 }")
    with pytest.raises(PreconditionError, match=r"^unknown order 'block'$"):
        parse_session("ring { vars: x; order: block }")
    with pytest.raises(PreconditionError, match=r"^repeated ring key 'field'$"):
        parse_session("ring { vars: x; field: Fp  7 ;field: QQ }")
    with pytest.raises(PreconditionError, match=r"^unknown assert 'domian'$"):
        run(parse_session("ring { vars: x; assert: normal domian }"))
    with pytest.raises(PreconditionError):
        parse_session("ring { vars: x }\nideal a = x\nideal a = x")
    with pytest.raises(PreconditionError):
        parse_session("ring { vars: x }\nwhat is this")


def test_parse_errors_name_the_file_line():
    ring = "ring { vars: x y;\n       mod: x*y;\n       order: lex }\n"
    with pytest.raises(PreconditionError, match=r"^line 5: unrecognized line"):
        parse_session(ring + "ideal m = x, y\nbogus line\n")
    with pytest.raises(PreconditionError, match=r"^line 6: empty command$"):
        parse_session("# ring below\n" + ring + "cmd: gb m\ncmd:\n")


def test_prime_field_session():
    s = parse_session("ring { vars: x y; field: Fp 32003 }\nideal m = x, y\ncmd: gb m")
    report, ok = run(s)
    assert ok
    assert report["commands"][0]["result"]["basis"] == ["y", "x"]


def test_run_paper_session_results():
    report, ok = run(parse_session(PAPER_SESSION))
    assert ok
    by_name = {}
    for c in report["commands"]:
        by_name.setdefault(c["name"], []).append(c)
    assert by_name["multiplicity"][0]["result"] == {"e": 2}
    assert by_name["multiplicity"][1]["result"] == {"e": 3}
    assert by_name["ord"][0]["result"] == {"ord": 3, "confirmed": True}
    rees = by_name["rees"][0]["result"]
    assert rees["variables"] == ["y1", "y2", "y3", "u"]
    assert rees["relations"] == ["y3^3*u + y1*y2"]
    assert by_name["check"][0]["verdict"] == "pass"


def test_reports_identical_across_runs():
    blobs = []
    for _ in range(2):
        report, _ = run(parse_session(PAPER_SESSION))
        blobs.append(json.dumps(report, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_timings_opt_in():
    report, _ = run(parse_session("ring { vars: x }\nideal a = x\ncmd: gb a"))
    assert "timing_ms" not in report["commands"][0]
    report, _ = run(
        parse_session("ring { vars: x }\nideal a = x\ncmd: gb a"), timings=True
    )
    assert "timing_ms" in report["commands"][0]


def test_errors_recorded_and_exit_flag():
    s = parse_session("ring { vars: x }\nideal a = x\ncmd: gb nope\ncmd: gb a")
    report, ok = run(s)
    assert not ok
    assert "error" in report["commands"][0]
    assert "result" in report["commands"][1]
    report, ok = run(s, fail_fast=True)
    assert len(report["commands"]) == 1


def test_budget_does_not_leak_into_later_runs():
    paper = PAPER_SESSION.split("ideal m")[0] + "ideal p = x1, x3\ncmd: symbolic-power p 2\n"
    report, ok = run(parse_session(paper), budget=1)
    assert not ok and "budget" in report["commands"][0]["error"]
    report, ok = run(parse_session(paper))
    assert ok and "result" in report["commands"][0]


CURVE_SQUARE = parse_session(
    "ring { vars: x y z; field: QQ; order: grevlex }\n"
    "ideal P = y^2 - x*z, x^2*y - z^2, x^3 - y*z\n"
    "cmd: symbolic-power P 2 --separator x\n"
)


def test_budget_bounds_the_whole_command():
    # the command's Groebner computations together take 112 reduction
    # steps; the largest single one takes 35
    report, ok = run(CURVE_SQUARE, budget=111)
    assert not ok
    assert report["commands"][0]["error"] == "reduction-step budget exhausted"
    report, ok = run(CURVE_SQUARE, budget=112)
    assert ok and "result" in report["commands"][0]


def test_no_answer_carries_into_a_later_run():
    report, ok = run(CURVE_SQUARE)
    assert ok
    report, ok = run(CURVE_SQUARE, budget=1)
    assert not ok
    assert report["commands"][0]["error"] == "reduction-step budget exhausted"


@pytest.mark.parametrize(
    "command",
    [
        "power m",
        "saturate m",
        "check zariski-nagata --q m",
        "power m abc",
        "translate-origin 1/0,0",
        "translate-origin a,0",
        # one number grammar: coordinates read as polynomials do
        "translate-origin 0.5,0",
        "translate-origin 1e3,0",
        "translate-origin +1,0",
        "translate-origin x,0",
        "ord m 3/0*x",
        "symbolic-power m 2 --separator x*",
        "briancon-skoda m 0",
        "briancon-skoda m -1",
        "symbolic_power m 2",
        # an empty sweep would pass vacuously
        "check zariski-nagata --p m --q m --nmax 0",
        "check zariski-nagata --p m --q m --nmax -2",
        "check main-a --p m --q m --nmax 0",
        "check chevalley --p m --q m --nmax 0",
        "ord m x --nmax 0",
        "ord m x --nmax -3",
        # arguments the command does not read
        "ord m x*y --nmx 2",
        "gb m extra",
        "gb m --what 1",
        "gb --ideal m",
        "multiplicity m",
        "check main-a extra --p m --q m --nmax 1",
        "check zariski-nagata --p m --q m --fs x",
        # a flag given twice
        "ord m x --nmax 2 --nmax 9",
    ],
)
def test_malformed_command_recorded(command):
    s = parse_session(f"ring {{ vars: x y }}\nideal m = x, y\ncmd: {command}\ncmd: gb m")
    report, ok = run(s)
    assert not ok
    assert "error" in report["commands"][0]
    assert "result" in report["commands"][1]


def test_coefficient_with_no_value_in_fp_is_recorded():
    s = parse_session(
        "ring { vars: x y; field: Fp 7 }\nideal m = x, y\ncmd: ord m 1/7*x\ncmd: gb m"
    )
    report, ok = run(s)
    assert not ok
    assert report["commands"][0]["error"] == "1/7 has no value in Fp(7)"
    assert "result" in report["commands"][1]


def test_unread_argument_error_names_it():
    s = parse_session("ring { vars: x y }\nideal m = x, y\ncmd: ord m x*y --nmx 2")
    report, ok = run(s)
    assert not ok
    assert "nmx" in report["commands"][0]["error"]


def test_exponent_over_the_limit_is_a_command_error(tmp_path, capsys):
    text = "ring { vars: x y; order: lex }\nideal I = x^16777216 - y, x*y - 1\ncmd: gb I\n"
    report, ok = run(parse_session(text))
    assert not ok
    assert report["commands"][0]["error"] == (
        "an exponent exceeds 16777215 = 2^24 - 1, the Groebner limit"
    )
    path = tmp_path / "large.session"
    path.write_text(text)
    assert main([str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["power m -1", "closure m -2"])
def test_negative_power_is_a_command_error(command, tmp_path, capsys):
    text = f"ring {{ vars: x y }}\nideal m = x, y\ncmd: {command}\n"
    report, ok = run(parse_session(text))
    assert not ok
    assert report["commands"][0]["error"] == "negative power"
    path = tmp_path / "negative.session"
    path.write_text(text)
    assert main([str(path)]) == 1
    capsys.readouterr()


def test_translate_origin():
    s = parse_session(
        "ring { vars: x y; mod: x*y - y }\n"
        "ideal m = x, y\n"
        "cmd: translate-origin 1,0\n"
        "cmd: multiplicity"
    )
    report, ok = run(s)
    assert ok
    # after moving the point (1,0) to the origin the curve xy = y
    # becomes xy = 0: a node, multiplicity 2... but (1,0) lies on the
    # component y = 0 only where x*y - y = (x-1)y vanishes; shifted
    # modulus is x*y, a node at the origin
    assert report["commands"][0]["result"]["modulus"] == ["x*y"]
    assert report["commands"][1]["result"] == {"e": 2}


def test_translate_origin_reads_coordinates_as_constants():
    s = parse_session(
        "ring { vars: x y; mod: x - y^2 }\nideal m = x, y\ncmd: translate-origin -1,1/2"
    )
    report, ok = run(s)
    assert ok
    assert report["commands"][0]["result"]["modulus"] == ["-y^2 + x - y - 5/4"]


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.session"
    good.write_text("ring { vars: x y }\nideal m = x, y\ncmd: gb m\n")
    out = tmp_path / "report.json"
    assert main([str(good), "--json", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["version"] == "2" and "seed" not in blob
    capsys.readouterr()

    # nothing is random, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main([str(good), "--seed", "7"])
    assert exc.value.code == 2
    capsys.readouterr()

    bad = tmp_path / "bad.session"
    bad.write_text("no ring here\n")
    assert main([str(bad)]) == 2
    capsys.readouterr()

    for budget in ("0", "-3"):
        assert main([str(good), "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    failing = tmp_path / "failing.session"
    failing.write_text("ring { vars: x y }\nideal m = x, y\ncmd: gb nope\n")
    assert main([str(failing)]) == 1
    capsys.readouterr()


def test_monomial_commands():
    s = parse_session(
        "ring { vars: x y }\n"
        "ideal I = x^2, y^3\n"
        "cmd: newton I\n"
        "cmd: closure I 1\n"
        "cmd: monomial-multiplicity I\n"
        "cmd: briancon-skoda I 4\n"
        "cmd: length-table I 6\n"
        "cmd: symbolic-power I 2 --separator x"
    )
    report, ok = run(s)
    res = [c["result"] for c in report["commands"]]
    facets = [f for f in res[0]["facets"] if f["bounded"]]
    assert facets == [{"normal": [3, 2], "offset": 6, "bounded": True}]
    assert set(res[1]["generators"]) == {"x^2", "x*y^2", "y^3"}
    assert res[2] == {"e": 6}
    assert res[3] == {"B": 1}
    assert res[4]["e"] == 6 and res[4]["stabilized"]
    s = parse_session(
        "ring { vars: x y z w }\n"
        "ideal J = x^2, y^2, z^2, w^2, x*y*z*w\n"
        "cmd: monomial-multiplicity J"
    )
    report, ok = run(s)
    assert ok and report["commands"][0]["result"] == {"e": 16}


@pytest.mark.parametrize(
    "text",
    [
        "ring { vars: x y }\nideal m = x, y$\ncmd: gb m\n",
        "ring { vars: x y }\nideal m = x, z\ncmd: gb m\n",
        "ring { vars: x y; field: Fp 4 }\nideal m = x, y\ncmd: gb m\n",
        "ring { vars: x y; field: Fp 1000000000000000001 }\nideal m = x, y\ncmd: gb m\n",
        "ring { vars: x y; order: block 0 }\nideal m = x, y\ncmd: gb m\n",
        "ring { vars: x y; order: block 7 }\nideal m = x, y\ncmd: gb m\n",
        "ring { vars: x y; field: Fp 7 }\nideal a = 1/7*x, y\ncmd: gb a\n",
        "ring { vars: x y; field: Fp 7; mod: 1/14*x }\nideal m = x, y\ncmd: gb m\n",
        "ring { vars: x y; mod: 3/0*x }\nideal m = x, y\ncmd: gb m\n",
        "ring { vars: x y }\nideal a = 1/0*x\ncmd: gb a\n",
        "ring { vars: 1x y }\nideal m = y\ncmd: gb m\n",
        "ring { vars: x-y }\ncmd: graded-multiplicity\n",
        "ring { vars: x y; mod: x; mod: y }\nideal m = x, y\ncmd: gb m\n",
        "ring { vars: x y; assert: normal domian }\nideal m = x, y\ncmd: gb m\n",
        None,
    ],
    ids=[
        "bad-polynomial",
        "unknown-variable",
        "non-prime-field",
        "large-composite-field",
        "block-0",
        "block-7",
        "fp-coefficient-in-ideal",
        "fp-coefficient-in-mod",
        "zero-denominator-in-mod",
        "zero-denominator-in-ideal",
        "variable-starts-with-digit",
        "variable-with-minus",
        "repeated-ring-key",
        "unknown-assert-word",
        "missing-file",
    ],
)
def test_session_build_error_exits_2(text, tmp_path, capsys):
    path = tmp_path / "s.session"
    if text is not None:
        path.write_text(text)
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error: ")


def test_readme_lists_every_command():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    listed = readme[readme.index("Commands: ") : readme.index("Flags: ")]
    names = set(re.findall(r"`([a-z-]+)", listed))
    methods = {n[4:].replace("_", "-") for n in dir(_Session) if n.startswith("cmd_")}
    assert names == methods


def test_readme_gives_the_ring_grammar():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    keys, words = readme.split("Ring keys: ")[1].split("Assert words: ")
    words = words.split(".")[0]
    assert re.findall(r"`(\w+):`", keys) == [key for key, _ in _RING_GRAMMAR]
    assert tuple(re.findall(r"`(\w+)`", words)) == ASSERTIONS


def test_length_table_needs_one_row():
    text = "ring { vars: x y }\nideal m = x, y\ncmd: length-table m 0"
    report, ok = run(parse_session(text))
    assert not ok
    assert report["commands"][0]["error"] == "N must be at least 1, got 0"


def _results(text):
    report, ok = run(parse_session(text))
    assert ok
    return [c["result"] for c in report["commands"]]


def test_auxiliary_names_avoid_ring_variables():
    # each ring uses a name an internal construction also wants; the results
    # are those of the same sessions with the ring variables renamed
    mult, rees = _results(
        "ring { vars: u y1 w }\nideal m = u, y1, w\ncmd: multiplicity\ncmd: rees m"
    )
    assert mult == {"e": 1}
    assert len(rees["variables"]) == 4
    assert not set(rees["variables"]) & {"u", "y1", "w"}
    assert rees["relations"] == [] and rees["weights"] == [1, 1, 1, -1]
    sat, sym = _results(
        "ring { vars: x _t }\nideal m = x, _t\nideal p = x\n"
        "cmd: saturate m x\ncmd: symbolic-power p 2"
    )
    assert sat == {"generators": ["1"], "steps": 1}
    assert sym["generators"] == ["x^2"] and sym["certificate"]["status"] == "exact"
    (main_a,) = _results(
        "ring { vars: X0 x; mod: X0^2 - x^3 }\nideal m = X0, x\nideal p = X0, x\n"
        "cmd: check main-a --p p --q m --nmax 1"
    )
    assert main_a["passed"] and main_a["details"] == {"e(S)": 3}


PAPER_RING = """ring { vars: x1 x2 x3; field: QQ; mod: x1*x2 + x3^3; order: grevlex;
       assert: normal domain }
ideal m = x1, x2, x3
ideal p = x1, x3
"""


def _paper_check(args):
    """The report entry of one `check` command on the paper ring."""
    report, _ = run(parse_session(PAPER_RING + f"cmd: check {args}\n"))
    (entry,) = report["commands"]
    return entry


def test_chevalley_constants_reach_the_report():
    flags = "--C 3 --E 2 --e 2 --A 1 --B 1"
    given = _paper_check(f"chevalley --p p --q m --nmax 2 {flags}")["result"]
    assert given["passed"]
    assert given["details"] == {"t": 1, "C_emp": 2, "formula_constant": 192}
    assert given["inputs"]["constants"] == {"A": 1, "B": 1, "C": 3, "E": 2, "e": 2}
    # the CLI's defaults give formula constant 1, below C_emp
    default = _paper_check("chevalley --p p --q m --nmax 2")["result"]
    assert not default["passed"] and default["verdicts"] == {"1": "fail"}
    assert default["details"] == {"t": 1, "C_emp": 2, "formula_constant": 1}
    assert default["inputs"]["constants"] == {"A": 0, "B": 0, "C": 1, "E": 1, "e": 1}
    same = _paper_check("chevalley --p m --q m --nmax 2")["result"]
    assert same["passed"] and same["details"]["C_emp"] == 1


def test_a_budget_check_reads_as_budget():
    # the entry verdict follows verify's rule: any fail gives fail, else any
    # budget gives budget; a budget entry has not passed, so the run is not ok
    session = parse_session(PAPER_RING + "cmd: check izumi-mult --q m --fs x1^13;x1\n")
    report, ok = run(session)
    (entry,) = report["commands"]
    assert entry["result"]["verdicts"] == {"0": "budget", "1": "pass"}
    assert entry["verdict"] == "budget" and not ok


def test_theorem_a_and_izumi_read_e_of_the_closure():
    main_a = _paper_check("main-a --p p --q m --nmax 1")["result"]
    assert main_a == {
        "check": "main-theorem-a",
        "details": {"e(S)": 3},
        "inputs": {"e(S)": 3, "p": ["x1", "x3"], "q": ["x1", "x2", "x3"]},
        "n_range": [1, 1],
        "passed": True,
        "relied_on": ["p prime", "q prime", "closure normal", "domain", "normal"],
        "verdicts": {"1": "pass"},
    }
    izumi = _paper_check("izumi-mult --q m --fs x1")["result"]
    assert izumi == {
        "check": "uniform-izumi-multiplicity",
        "details": {"x1": {"bound": 3, "e": 3, "ord": 1}},
        "inputs": {"C": 3, "fs": ["x1"], "q": ["x1", "x2", "x3"]},
        "n_range": [0, 0],
        "passed": True,
        "relied_on": ["q prime", "domain", "normal"],
        "verdicts": {"0": "pass"},
    }


@pytest.mark.parametrize(
    "args, flag",
    [
        ("main-a --p p --q m --nmax 1 --eS 3", "eS"),
        ("izumi-mult --q m --fs x1 --C 3", "C"),
    ],
)
def test_closure_multiplicity_is_not_a_flag(args, flag):
    entry = _paper_check(args)
    assert "result" not in entry
    assert entry["error"] == (
        f"bad arguments: got an unexpected keyword argument '{flag}'"
    )


def test_graded_commands_on_the_cubic_cone():
    check, mult = _results(
        "ring { vars: X0 X1 X2 X3; mod: X0*X1*X2 + X3^3;\n"
        "       assert: standard_graded normal domain }\n"
        "cmd: check order-ideal-graded --F X3\ncmd: graded-multiplicity\n"
    )
    assert check == {
        "check": "order-ideal-theorem-graded",
        "inputs": {"F": "X3"},
        "n_range": [1, 1],
        "verdicts": {"1": "pass"},
        "relied_on": ["S normal domain", "domain", "normal", "standard_graded"],
        "details": {"e(S)": 3, "ord": 1, "e(S/F)": 3},
        "passed": True,
    }
    assert mult == {"e": 3}


def test_power_command():
    (power,) = _results(PAPER_RING + "cmd: power m 2\n")
    assert power == {
        "generators": ["x3^2", "x2*x3", "x1*x3", "x2^2", "x1*x2", "x1^2"]
    }


def test_block_order_session_eliminates_the_first_block():
    (gb,) = _results(
        "ring { vars: t x y; order: block 1 }\n"
        "ideal I = x - t^2, y - t^3\ncmd: gb I\n"
    )
    assert gb == {"basis": ["x^3 - y^2", "t*y - x^2", "t*x - y", "t^2 - x"]}


@pytest.mark.parametrize(
    "text, error",
    [
        ("ring { vars: x y; field }\n", "bad ring field 'field'"),
        ("ring { vars: x; colour: red }\n", "unknown ring field 'colour'"),
        ("ring { field: QQ }\n", "ring block needs vars"),
        ("ring { vars: x }\nideal = x\n", "line 2: bad ideal definition"),
    ],
)
def test_session_parse_error_message(text, error, tmp_path, capsys):
    path = tmp_path / "s.session"
    path.write_text(text)
    assert main([str(path)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {error}\n")


@pytest.mark.parametrize(
    "command, error",
    [
        ("ord m x --nmax", "flag --nmax needs a value"),
        ("translate-origin 1", "one coordinate per variable"),
        ("check bogus", "unknown check 'bogus'"),
    ],
)
def test_command_error_message(command, error):
    s = parse_session(f"ring {{ vars: x y }}\nideal m = x, y\ncmd: {command}\n")
    report, ok = run(s)
    assert not ok
    assert report["commands"][0] == {
        "name": command.split()[0],
        "args": command.split()[1:],
        "error": error,
    }
