"""Golden `geometry` reports: the JSON report without `elapsed`, the text
report, and the sha256 of the written `.mcx` file must match the recorded
fixture, with every path replaced by its base name.

This also pins the note `induced operator order at most one` and the order
ladder verdicts.  To re-record the fixture on purpose (only when a report is
meant to change):

    PYTHONPATH=src python3 tests/test_geometry_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

from multicx.cli import main
from multicx.derham import PolyVector
from multicx.formats import print_structure

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "data", "geometry_golden.json")

SO3 = PolyVector(3, {((0, 0, 1), (0, 1)): 1,
                     ((1, 0, 0), (1, 2)): 1,
                     ((0, 1, 0), (0, 2)): -1})
CONTACT_W = PolyVector(3, {((0, 0, 0), (0, 1)): 1, ((0, 1, 0), (1, 2)): -1})
CONTACT_E = PolyVector(3, {((0, 0, 0), (2,)): -1})

STRUCTURES = {"so3": print_structure(3, SO3),
              "contact": print_structure(3, CONTACT_W, CONTACT_E)}

# (name, structure, kind, truncation)
CASES = [("so3-poisson-%d" % t, "so3", "poisson", t) for t in (2, 3)]
CASES += [("contact-%s-%d" % (kind, t), "contact", kind, t)
          for kind in ("jacobi", "basic") for t in (3, 4)]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def golden_reports(workdir) -> dict:
    """Exit codes, reports and `.mcx` digests of every case, with paths
    replaced by their base names.  `geometry` writes into MULTICX_OUTDIR,
    which the caller points at workdir."""
    out = {}
    for name, structure, kind, trunc in CASES:
        path = os.path.join(workdir, structure + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(STRUCTURES[structure])
        argv = ["geometry", "--kind", kind, "--dim", "3", "--trunc", str(trunc),
                "--structure", path]
        code, text = _run(argv + ["--json"])
        report = json.loads(text)
        report.pop("elapsed")
        report["inputs"]["structure"] = os.path.basename(path)
        mcx = report["notes"]["multicomplex file"]
        report["notes"]["multicomplex file"] = os.path.basename(mcx)
        with open(mcx, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        text_code, text = _run(argv)
        text = text.replace(mcx, os.path.basename(mcx))
        text = text.replace(path, os.path.basename(path))
        out[name] = {"exit": code, "report": report, "text_exit": text_code,
                     "text": text.splitlines(), "mcx_sha256": digest}
    return out


def test_geometry_reports_match_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTICX_OUTDIR", str(tmp_path))
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden_reports(str(tmp_path))
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["MULTICX_OUTDIR"] = tmp
        reports = golden_reports(tmp)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
