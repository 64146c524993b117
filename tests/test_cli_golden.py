"""Byte-for-byte golden reports of the seven exact subcommands.

`cli_golden.json` pins the exit code and the full stdout, in text and in
--json mode, of analyze7, analyze6, cohom1, poscurv, normalize, wu and
wcp on the README examples, seeded small and 30-digit inputs, and
exit-1 and exit-2 cases.  After an intended report change, rewrite the
recorded outputs for the same argv list with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from su3orbifolds.cli import run

CORPUS_PATH = Path(__file__).with_name("cli_golden.json")
CORPUS = json.loads(CORPUS_PATH.read_text())


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_golden_report(case):
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    assert out == case["stdout"]


if __name__ == "__main__":
    for case in CORPUS:
        case["exit_code"], case["stdout"] = run_cli(case["argv"])
    CORPUS_PATH.write_text(json.dumps(CORPUS, indent=1) + "\n")
