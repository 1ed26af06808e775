"""Drive ``vplogic`` as child processes: one-shot calls and ``repl`` sessions.

Every child is reaped with ``os.wait4`` so its peak resident memory is
known, and every wait has a deadline; a child that misses it is killed
and the operation counts as failed.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass

perf = time.perf_counter


class Timeout(Exception):
    pass


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for the child until the deadline; kill it if it is late.
    Returns (exit code, peak RSS in KiB, timed out)."""
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if perf() > deadline and not timed_out:
            proc.kill()
            timed_out = True
        time.sleep(0.0005)
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # already reaped; keep Popen from waiting again
    return code, usage.ru_maxrss, timed_out


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int
    timed_out: bool


def run(argv, env, timeout: float) -> Result:
    """Run one process to completion; time from spawn to exit code."""
    start = perf()
    deadline = start + timeout
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr):
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - perf()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    code, rss, late = _reap(proc, deadline)
    seconds = perf() - start
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[fd]).decode() for fd in (out_fd, err_fd))
    return Result(code, out, err, seconds, rss, timed_out or late)


class ReplSession:
    """One ``vplogic repl`` child fed line by line over pipes."""

    def __init__(self, argv, env, stderr_path):
        self.started = perf()
        with open(stderr_path, "ab") as err:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err, env=env)
        self._in = self.proc.stdin.fileno()
        self._out = self.proc.stdout.fileno()
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._out, selectors.EVENT_READ)
        self.maxrss_kb = 0
        self.code = None

    def send(self, line: str) -> None:
        os.write(self._in, line.encode() + b"\n")

    def readline(self, timeout: float) -> str:
        deadline = perf() + timeout
        while b"\n" not in self._buf:
            remaining = deadline - perf()
            if remaining <= 0 or not self._sel.select(remaining):
                raise Timeout(f"no answer within {timeout} s")
            data = os.read(self._out, 1 << 16)
            if not data:
                raise Timeout("repl closed its output")
            self._buf += data
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode()

    def request(self, line: str, timeout: float) -> tuple[str, float]:
        """Send one line; return the response line and its latency."""
        start = perf()
        self.send(line)
        response = self.readline(timeout)
        return response, perf() - start

    def close(self, timeout: float = 10.0) -> bool:
        """End the session; True if the child exited cleanly in time."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self._sel.close()
        code, self.maxrss_kb, timed_out = _reap(self.proc, perf() + timeout)
        self.proc.stdout.close()
        self.code = code
        return code == 0 and not timed_out
