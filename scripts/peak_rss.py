#!/usr/bin/env python3
"""Run a command and fail when its own peak memory is above a limit.

    python scripts/peak_rss.py NAME LIMIT_MB -- CMD [ARG ...]

The peak is the command's own ``ru_maxrss``, read from ``os.wait4`` when it
exits, not the largest peak of every child so far (``RUSAGE_CHILDREN``), so
guards may run in any order and beside other runs.  Prints ``NAME peak RSS
... MB``; exits non-zero when the command fails or its peak is above
LIMIT_MB.
"""

import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        sys.exit(__doc__)
    name, limit, cmd = argv[0], float(argv[1]), argv[3:]
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024  # Linux reports kilobytes
    print(f"{name} peak RSS {peak_mb:.0f} MB")
    code = os.waitstatus_to_exitcode(status)
    if code:
        sys.exit(f"{name} exited with status {code}")
    if peak_mb > limit:
        sys.exit(f"{name} peak RSS {peak_mb:.0f} MB is above {limit:g} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
