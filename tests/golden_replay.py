"""Replay the golden corpus `golden.json` through `cli.main` in process.

    PYTHONPATH=src python tests/golden_replay.py

prints each command whose stdout digest, stderr or exit code differs from
its pinned entry, then a count, and exits 1 on any mismatch.  It needs only
the standard library, so it runs on interpreters without pytest;
`test_cli.py::TestGoldenCorpus::test_in_process` calls `replay` per entry,
and `test_under_optimize` runs this script under `python -O`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from incidence_scrolls.cli import main

# command line -> sha256 of stdout, stderr text and exit code, pinned with
# COLUMNS=80, which sets the width of argparse's messages; a change that
# alters output edits only the entries it alters
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


def replay(command: str) -> dict:
    """The entry that `main` gives for `command` now."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return {"stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue(), "exit": code}


if __name__ == "__main__":
    failed = 0
    for command, pinned in GOLDEN.items():
        got = replay(command)
        if got != pinned:
            failed += 1
            print(f"MISMATCH {command}\n  pinned: {pinned}\n  got:    {got}")
    print(f"{sys.version.split()[0]}: {len(GOLDEN) - failed} of {len(GOLDEN)} "
          f"golden entries match")
    sys.exit(1 if failed else 0)
