"""Byte-identity guard for the CLI reports.

Every listed command runs in-process through ``quiverext.cli.main``.  Its
stdout, stderr and exit code are hashed with SHA-256, after the directory
of the bundled workspaces is stripped from the output, and compared with
the digests committed in ``report_digests.txt`` next to this file.  The
commands are ``hom``, ``ext1``, ``ext2`` and ``e-tangent`` on every module
pair of f1-f3, ``certify`` and ``psi`` on every declared sequence,
``witness f2 M S1 V`` and ``verify all``, each over Q and F101.

    python tests/test_report_digests.py           # check, naming each changed command
    python tests/test_report_digests.py --write   # regenerate the digest file
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from importlib import resources
from pathlib import Path

from quiverext.cli import main
from quiverext.fixtures import FIXTURE_NAMES, load_fixture

DIGESTS = Path(__file__).with_name("report_digests.txt")
DATA = resources.files("quiverext") / "data"
FIELDS = ("Q", "F101")


def commands():
    """The listed commands, each a list of words with the workspace by name."""
    out = []
    for field in FIELDS:
        for name in FIXTURE_NAMES:
            ws = load_fixture(name)
            modules = sorted(ws.modules)
            for command in ("hom", "ext1", "ext2", "e-tangent"):
                out.extend([command, name, a, b, "--field", field]
                           for a in modules for b in modules)
            for command in ("certify", "psi"):
                out.extend([command, name, ses, "--field", field]
                           for ses in sorted(ws.sequences))
        out.append(["witness", "f2", "M", "S1", "V", "--field", field])
        out.append(["verify", "all", "--field", field])
    return out


def digest(words) -> str:
    """SHA-256 of the stdout, stderr and exit code of one command."""
    argv = list(words)
    if argv[0] != "verify":
        argv[1] = str(DATA / f"{argv[1]}.qv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    prefix = str(DATA) + "/"
    text = "\0".join((stdout.getvalue(), stderr.getvalue(), str(code)))
    return hashlib.sha256(text.replace(prefix, "").encode()).hexdigest()


def read_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return dict(reversed(line.rstrip("\n").split("  ", 1)) for line in fh)


def changed_commands() -> list:
    """The listed commands whose digest differs from the committed one."""
    want = read_digests()
    got = {" ".join(words): digest(words) for words in commands()}
    if set(got) != set(want):
        raise AssertionError("the command list differs from the digest file; "
                             "regenerate it with --write")
    return [key for key in got if got[key] != want[key]]


def test_cli_reports_are_byte_identical():
    assert changed_commands() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            for words in commands():
                fh.write(f"{digest(words)}  {' '.join(words)}\n")
        sys.exit(0)
    changed = changed_commands()
    for key in changed:
        print(f"report changed: quiverext {key}")
    print(f"{len(changed)} changed reports")
    sys.exit(1 if changed else 0)
