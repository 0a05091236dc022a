"""Starts processes on request; reports each one's wall time and peak RSS.

The benchmark driver starts this as a small helper process. Linux charges
a new program with the peak resident size of the address space it
replaced at exec, and a spawned child replaces (shares, until exec) the
spawner's. A CLI process spawned straight from the driver, which holds
the generated workload in memory, would therefore report the driver's
peak as its own. Spawned from here, it reports its own.

Protocol, one JSON object per line. Request on stdin:
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``.
Reply on stdout: ``{"code": int, "seconds": float, "maxrss_kib": int}``,
with the wall time from spawn to ``wait4``. The helper exits when its
standard input closes.
"""

import json
import os
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], WRITE, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        reply = {"code": os.waitstatus_to_exitcode(status), "seconds": seconds,
                 "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
