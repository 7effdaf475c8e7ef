"""Run one command; print its exit code, wall seconds and peak RSS as JSON.

    python3 -S perfbench/spawn.py TIMEOUT STDOUT_PATH STDERR_PATH ARGV...

The benchmark starts every CLI call through this small process instead of
from itself. On Linux a child's ``ru_maxrss`` also counts the high-water mark
of the address space that its exec replaces, which for a spawned child is its
parent's. Spawned from the benchmark, whose own RSS holds numpy and the
generated inputs, a small call would report the benchmark's memory. This
process stays near the size of a bare interpreter, below any CLI call, which
imports numpy. The command is killed after TIMEOUT seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout, out_path, err_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out, err = os.open(out_path, flags, 0o644), os.open(err_path, flags, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kib": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
