"""Run one CLI campaign in a child process; report its wall time and peak RSS.

Usage (from the root of a checkout)::

    PYTHONPATH=src python scripts/paper_scale.py [--] ARGS... [> FILE]

runs ``python -m repro ARGS...`` with the current interpreter and
environment; its standard output is this script's.  The last line
printed on standard error is ``paper-scale: wall <s> s, peak RSS <MB>
MB, exit <code>``, measured with ``os.wait4`` on the child.  The exit
status is the child's.  ``make paper-scale`` runs Table I at the
paper's own sizes (``table1 --scale 1.0 --no-cache``) through it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time


def main(args: list[str]) -> int:
    if args[:1] == ["--"]:
        args = args[1:]
    t0 = time.monotonic()
    child = subprocess.Popen([sys.executable, "-m", "repro", *args])
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - t0
    code = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    print(
        f"paper-scale: wall {wall:.1f} s, peak RSS {usage.ru_maxrss / 1024:.0f} MB, "
        f"exit {code}",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
