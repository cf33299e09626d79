"""Start benchmark child processes from a process that stays small.

On Linux a child's peak RSS, as ``wait4`` reports it, is at least the RSS of
the process that executed it.  The benchmark process holds a whole corpus and
its expected labels, so it hands each child to this helper instead: the
helper reads one JSON request per line on stdin, ``[argv, log_path, env]``,
runs the child with stdout and stderr sent to ``log_path``, and answers with
one line, ``[wall_seconds, peak_rss_kib, exit_code]``.
"""

import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv, log, env = json.loads(line)
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
