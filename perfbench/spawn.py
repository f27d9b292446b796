"""Starts the benchmark's commands for run.py from a process that stays small.

Linux carries a process's peak RSS across fork and exec, so the ru_maxrss
that wait4 reports for a command is at least the RSS of the process that
started it.  run.py holds expected outputs and reference data (over 200 MB
for interchange-structure), which would hide any command that peaks below
that; this process holds none of it, so its commands' peaks are their own.

Protocol, one JSON object per line: run.py writes
{"argv": [...], "cwd": "...", "seconds": s} to stdin, and this process runs
argv in cwd with stdout.txt and stderr.txt there, kills it if it is still
running after s seconds, and answers on stdout with
{"status": wait status, "wall_s", "cpu_s", "rss_kb", "killed": bool}.
It exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(argv: list[str], cwd: str, seconds: float) -> dict:
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        # poll so that a hung command can be killed at the deadline; the sleep
        # is capped at 2 ms, well under the commands' durations
        delay, killed = 0.0002, False
        while True:
            done, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() - start > seconds:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                killed = True
                break
            time.sleep(delay)
            delay = min(delay * 2, 0.002)
        wall = time.perf_counter() - start
    # reaped here, so Popen must not try to wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": status,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "killed": killed,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["seconds"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
