"""Spawn-and-measure server for the benchmark's child processes.

Linux carries a process's RSS high-water mark across fork and exec, so a
child spawned by a process that holds large arrays reports at least that
process's RSS in its own ru_maxrss.  The benchmark therefore starts this
small server before it imports numpy and spawns every measured child through
it: a child's peak RSS is then its own, above a floor of this interpreter's
~15 MB.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stdout": PATH, "stderr": PATH}
answered by one JSON line on stdout,
    {"seconds": wall time from spawn to exit, "rss_mb": peak RSS, "code": exit code}.
Children run in the server's working directory (the source checkout's root),
with its `src` on PYTHONPATH and THREAD_ENV in their environment; one still
running after CHILD_TIMEOUT_S seconds is killed.  The server exits at end of
input.
"""

import json
import os
import subprocess
import sys
import threading
import time

#: every measured child runs with BLAS/OpenMP threads pinned to 1
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0


def spawn(req):
    with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - t0
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode}


class Launcher:
    """Client side: owns the server process; use as a context manager."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv, stdout, stderr):
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": stdout,
                                          "stderr": stderr}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process exited")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=200)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return False


def main():
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), os.environ.get("PYTHONPATH")) if p)
    os.environ.update(THREAD_ENV)
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
