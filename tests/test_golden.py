"""Golden `analyze --json` reports: every field but `elapsed` must match the
recorded fixture byte for byte.

The fixture was recorded before the analysis pipeline was reorganised to
build each page, the minimal model and the gauge check only once.  The
geometry cases (the `.mcx` of `jacobi_multicomplex` for so3 as the pair
(w, 0) and for the contact pair, truncations 4 to 6) were recorded before
the minimal model's isomorphism moved onto A itself; their gauge notes pin
that isomorphism on inputs of a few hundred dimensions.  To re-record it on
purpose (only when a report is meant to change):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os

from multicx.cli import cmd_generate, main
from multicx.derham import FormAlgebra, PolyVector, jacobi_multicomplex
from multicx.formats import print_multicomplex
from multicx.generators import staircase4
from test_geometry_golden import CONTACT_E, CONTACT_W, SO3

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "data", "analyze_golden.json")

# (name, file contents, extra analyze arguments)
CASES = [("staircase4", lambda: print_multicomplex(staircase4()), []),
         ("staircase4-pages1", lambda: print_multicomplex(staircase4()), ["--pages", "1"])]
for _profile in "ab":
    for _seed in range(5):
        CASES.append(("%s%d" % (_profile, _seed),
                      lambda p=_profile, s=_seed: cmd_generate(p, s), ["--seed", str(_seed)]))


def _jacobi_file(w, e, trunc):
    return print_multicomplex(jacobi_multicomplex(w, e, FormAlgebra(3, trunc, weight=True))
                              .multicomplex)


for _trunc in (4, 5, 6):
    CASES.append(("so3-jacobi-%d" % _trunc,
                  lambda t=_trunc: _jacobi_file(SO3, PolyVector.zero(3), t), []))
    CASES.append(("contact-jacobi-%d" % _trunc,
                  lambda t=_trunc: _jacobi_file(CONTACT_W, CONTACT_E, t), []))


def golden_reports(workdir) -> dict:
    """The JSON report of every case, without `elapsed` and with the input
    file named by its base name."""
    out = {}
    for name, text, extra in CASES:
        path = os.path.join(workdir, name + ".mcx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text())
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["analyze", path, "--json"] + extra)
        report = json.loads(buf.getvalue())
        report.pop("elapsed")
        report["inputs"]["file"] = os.path.basename(path)
        out[name] = {"exit": code, "report": report}
    return out


def test_analyze_reports_match_golden(tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden_reports(str(tmp_path))
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        reports = golden_reports(tmp)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
