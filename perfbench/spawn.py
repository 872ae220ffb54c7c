"""Run one command; record its wall time, peak RSS and exit code.

Usage: python3 spawn.py RESULT_JSON TIMEOUT_S ARG...

Linux starts a child's ru_maxrss at the high-water mark of the process
that forked it, so the benchmark, which holds the generated inputs in
memory, does not start stages itself. This small process does, and
writes {"wall_s", "maxrss_mb", "code"} to RESULT_JSON. The command is
killed after TIMEOUT_S seconds.
"""

import contextlib
import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    result_path, timeout_s, command = argv[0], float(argv[1]), argv[2:]
    started = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)

    def kill(*_):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - started
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "wall_s": wall_s,
            "maxrss_mb": usage.ru_maxrss / 1024,
            "code": os.waitstatus_to_exitcode(status),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
