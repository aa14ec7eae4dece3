"""What a cold process loads: ``import rmx`` and the query commands load
neither ``dataclasses`` nor the representation oracle, its linear-algebra
kernel, ``schur_weyl`` or ``selfcheck``; ``rmx dorey`` loads the oracle.

Run as a script, ``python tests/test_cold_import.py`` checks the installed
package; as a test it checks the package it imports.
"""

import os
import subprocess
import sys
from pathlib import Path

COLD_CHECKS = r"""
import sys

def loaded(*names):
    return sorted(n for n in names if n in sys.modules)

ORACLE = ("rmx.rep_oracle", "rmx.linalg")
UNREAD = ("dataclasses", *ORACLE, "rmx.schur_weyl", "rmx.selfcheck")

import rmx
assert not loaded(*ORACLE), loaded(*ORACLE)

from rmx import cli
for argv in (["ctilde", "--type", "A", "--rank", "2"],
             ["denominator", "--type", "E", "--rank", "8", "--i", "1", "--j", "1"],
             ["pole-order", "A", "2", "--x", "1,0", "--y", "2,3"],
             ["irreducible", "A", "2", "--x", "1,0", "--y", "2,1"]):
    assert cli.main(argv) == 0, argv
    assert not loaded(*UNREAD), (argv, loaded(*UNREAD))

assert cli.main(["dorey", "A", "2", "--x", "2,-1", "--y", "2,1"]) == 0
assert loaded("rmx.rep_oracle") == ["rmx.rep_oracle"]
assert not loaded("rmx.selfcheck", "rmx.schur_weyl"), loaded("rmx.selfcheck", "rmx.schur_weyl")
"""


def run_cold_checks(env=None) -> None:
    done = subprocess.run([sys.executable, "-c", COLD_CHECKS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_query_commands_load_only_the_layers_they_read():
    import rmx

    src = str(Path(rmx.__file__).resolve().parents[1])
    run_cold_checks({**os.environ, "PYTHONPATH": src})


if __name__ == "__main__":
    run_cold_checks()
    print("cold imports: no dataclasses and no unread rmx layer")
