"""Every README command prints exactly its recorded stdout.

The ten report commands are recorded in ``perfbench/golden`` (read here,
never written); the two ``hilbert`` commands in ``tests/golden``.  Each
command runs in-process through ``cli.main`` twice and must exit 0 both
times with the same stdout, since the parser is built once per process.
"""

import contextlib
import io
import json
import os
import shlex

import pytest

from quadralab import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIRS = (
    os.path.join(HERE, "..", "perfbench", "golden"),
    os.path.join(HERE, "golden"),
)


def _recorded():
    out = []
    for directory in GOLDEN_DIRS:
        with open(os.path.join(directory, "commands.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        for entry in manifest:
            path = os.path.join(directory, entry["stdout"])
            out.append(pytest.param(entry["command"], path, id=entry["stdout"]))
    return out


@pytest.mark.parametrize("command, stdout_path", _recorded())
def test_stdout_is_byte_identical(command, stdout_path):
    with open(stdout_path, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(shlex.split(command))
        assert code == 0
        assert out.getvalue() == expected
