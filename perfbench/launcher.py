"""Process launcher of the benchmark.

Linux keeps a process's peak RSS across ``exec`` and hands a forked child
its parent's high-water mark, so a child forked from the harness would
report the harness's peak whenever its own is lower.  The harness therefore
starts this small process first, while it is itself small, and every timed
child is forked from here.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"timeout", "out", "err"}``; one JSON reply per line on stdout, ``{"wall_s",
"cpu_s", "rss_mib", "code", "timed_out"}``; ``cpu_s`` is the child's user
plus system time.  The launcher exits at end of input.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(argv, cwd, env, timeout, out, err) -> dict:
    """Run one child to completion, or kill it after ``timeout`` seconds."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        started = time.perf_counter()
        env = dict(env, PERFBENCH_SPAWN_T=repr(started))
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
    # a pidfd cannot name a recycled pid, so the timer never kills a stranger
    pidfd = os.pidfd_open(proc.pid)
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
        os.close(pidfd)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024,
            "code": proc.returncode, "timed_out": killed.is_set()}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["cwd"], req["env"], req["timeout"],
                      req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
