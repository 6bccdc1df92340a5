"""Record the stdout of each README command (hilbert excepted) as golden output.

    python3 perfbench/record_golden.py

Run from the root of a checkout.  Writes ``perfbench/golden/commands.json``
and one ``.stdout`` file per command; the ``reports`` workload compares its
output with these byte for byte.  Re-record only when a change documents
why the output of a command changed.
"""

from __future__ import annotations

import json
import os
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

README_COMMANDS = [
    "points --abc 2,3,5 --format json",
    "verify-gamma --alpha 4 --beta 9 --gamma 25 --abc 2,3,5",
    "minors --format json",
    "autos --abc 2,3,5 --format json",
    "center --alpha 2 --beta 3 --gamma 5",
    "chl classify --abcd=-2i,1,-i,2 --format json",
    "chl params --abcd 1,2,-4,2 --format json",
    "chl center --abcd 1,2,-4,2",
    "identities --format json",
    "iso-invariants --alpha 2 --beta 3 --gamma 5",
]


def main():
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    manifest = []
    for k, command in enumerate(README_COMMANDS, 1):
        argv = shlex.split(command)
        code, out = workloads.run_cli(argv)
        if code != 0:
            sys.exit(f"error: `quadralab {command}` exited with {code}")
        name = f"{k:02d}-{'-'.join(argv[:2] if argv[0] == 'chl' else argv[:1])}.stdout"
        with open(os.path.join(workloads.GOLDEN_DIR, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(out)
        manifest.append({"command": command, "stdout": name})
    with open(os.path.join(workloads.GOLDEN_DIR, "commands.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
