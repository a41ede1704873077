"""Run one command and print its own resource use as one line.

    python3 -S perfbench/spawn.py <timeout s> <stdout file> <stderr file> <program> <args...>

prints "<wall s> <cpu s> <peak rss KiB> <exit code> <timed out 0|1>".

A process's peak RSS (ru_maxrss) starts from the peak of the process it was
spawned from, so the benchmark does not spawn the processes it measures
itself: it holds mpmath and its results and is larger than a CLI process.
This launcher is started fresh for each measured process and imports nothing
beyond os, sys, signal and time, so it stays smaller than what it measures.
"""

import os
import signal
import sys
import time


def main() -> None:
    timeout = float(sys.argv[1])
    out_path, err_path = sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd, err_fd = os.open(out_path, flags, 0o644), os.open(err_path, flags, 0o644)
    timed_out = []

    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)])

    def kill(signum, frame):
        timed_out.append(1)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    os.close(out_fd)
    os.close(err_fd)
    print(repr(wall), repr(usage.ru_utime + usage.ru_stime), usage.ru_maxrss,
          os.waitstatus_to_exitcode(status), len(timed_out))


if __name__ == "__main__":
    main()
