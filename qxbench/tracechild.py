"""Run one quiverext command under the tracer; spans go to a file.

Usage: python3 qxbench/tracechild.py SPANS_FILE COMMAND [ARGS...]

The command's report and exit code are those of the plain command.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import quiverext.cli  # noqa: E402  (imports the whole package first)
import tracer  # noqa: E402

if __name__ == "__main__":
    t = tracer.Tracer()
    t.install()
    t.phase, t.enabled = "query", True
    try:
        code = sys.modules["quiverext.cli"].main(sys.argv[2:])
    finally:
        t.enabled = False
        t.dump(sys.argv[1])
    sys.exit(code)
