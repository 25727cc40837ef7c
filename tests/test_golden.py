"""Golden report: pins the exact output of two sessions across refactors.

The sessions cover saturation, Rees presentations, symbolic powers (auto
and explicit separators), length tables and the main-theorem-A check, on
the paper ring and on the prime of the monomial curve (t^3, t^4, t^5).
Regenerate with `PYTHONPATH=src python tests/test_golden.py` only when a
change to the reports is intended, and say why in the change description.
"""

import json
from pathlib import Path

from reesval.cli import parse_session, run

GOLDEN = Path(__file__).parent / "golden" / "paper_session.json"

SESSIONS = {
    "paper": """\
ring { vars: x1 x2 x3; field: QQ; mod: x1*x2 + x3^3; order: grevlex;
       assert: normal domain }
ideal m = x1, x2, x3
ideal p = x1, x3
ideal s = x3^3, x1*x3
cmd: saturate s x1
cmd: rees m
cmd: symbolic-power p 2
cmd: length-table m 6 --f x1
cmd: check main-a --p p --q m --nmax 2
""",
    "curve": """\
ring { vars: x y z; field: QQ; order: grevlex; assert: normal domain }
ideal P = y^2 - x*z, x^2*y - z^2, x^3 - y*z
ideal I = x^2*y, x*y^2
ideal m = x, y, z
cmd: saturate I x
cmd: rees P
cmd: symbolic-power P 2 --separator x
cmd: symbolic-power P 3 --separator x
cmd: length-table m 6
""",
}


def golden_blob():
    reports = {name: run(parse_session(text))[0] for name, text in SESSIONS.items()}
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def test_golden_report_byte_identical():
    assert golden_blob() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(golden_blob(), encoding="utf-8")
