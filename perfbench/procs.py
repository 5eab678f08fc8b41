"""Spawned-process hygiene: every wait is bounded, every failure is loud.

A server is started on port 0, its listening banner is parsed for the
real port, and readiness is probed against a hard deadline.  Stopping
sends SIGTERM and requires a clean drain: exit code 0 and the server's
"drained; exiting" line.  A server that dies, hangs or drains badly
raises :class:`BenchError` with the tail of its log, so a broken run
fails with a message instead of producing no numbers.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from pathlib import Path
from typing import Callable

#: Polling interval for log files and readiness probes.
POLL_S = 0.005


class BenchError(RuntimeError):
    """A failure that ends the run without a result."""


def log_tail(path: Path, lines: int = 12) -> str:
    try:
        text = path.read_text(errors="replace")
    except OSError:
        return "(no log)"
    return "\n".join(text.splitlines()[-lines:]) or "(empty log)"


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError as exc:
        raise BenchError(f"cannot read peak RSS of pid {pid}: {exc}") from exc
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    if match is None:
        raise BenchError(f"no VmHWM line for pid {pid}")
    return int(match.group(1)) / 1024.0


class Process:
    """One child process with its output in a log file."""

    def __init__(
        self, name: str, argv: list[str], env: dict, cwd: Path, log: Path
    ) -> None:
        self.name = name
        self.log = log
        self._fh = log.open("w")
        try:
            self.proc = subprocess.Popen(
                argv,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=self._fh,
                stderr=subprocess.STDOUT,
            )
        except OSError as exc:
            self._fh.close()
            raise BenchError(f"{name}: cannot start {argv[0]}: {exc}") from exc

    @property
    def pid(self) -> int:
        return self.proc.pid

    def check_alive(self) -> None:
        code = self.proc.poll()
        if code is not None:
            raise BenchError(
                f"{self.name} exited with code {code}:\n{log_tail(self.log)}"
            )

    def wait_for_line(self, pattern: str, deadline_s: float) -> re.Match:
        """Block until a log line matches ``pattern`` (bounded)."""
        regex = re.compile(pattern, re.MULTILINE)
        limit = time.monotonic() + deadline_s
        while True:
            match = regex.search(self.log.read_text(errors="replace"))
            if match is not None:
                return match
            self.check_alive()
            if time.monotonic() > limit:
                raise BenchError(
                    f"{self.name}: no line matching {pattern!r} within "
                    f"{deadline_s:.0f} s:\n{log_tail(self.log)}"
                )
            time.sleep(POLL_S)

    def wait_until(
        self, probe: Callable[[], bool], what: str, deadline_s: float
    ) -> None:
        """Poll ``probe`` until it returns true (bounded)."""
        limit = time.monotonic() + deadline_s
        while True:
            self.check_alive()
            if probe():
                return
            if time.monotonic() > limit:
                raise BenchError(
                    f"{self.name}: not {what} within {deadline_s:.0f} s:\n"
                    f"{log_tail(self.log)}"
                )
            time.sleep(POLL_S)

    def wait_exit(self, deadline_s: float) -> int:
        try:
            return self.proc.wait(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(
                f"{self.name} did not exit within {deadline_s:.0f} s:\n"
                f"{log_tail(self.log)}"
            ) from None

    def kill(self) -> None:
        """Last resort: SIGKILL and reap (bounded)."""
        if self.proc.poll() is None:
            self.proc.kill()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        self._fh.close()


class Server(Process):
    """A repro server: port 0, banner, readiness, SIGTERM drain."""

    def __init__(self, name: str, argv: list[str], env: dict, cwd: Path,
                 log: Path, banner: str) -> None:
        super().__init__(name, argv, env, cwd, log)
        self.banner = banner
        self.port = 0

    def wait_listening(self, deadline_s: float) -> int:
        match = self.wait_for_line(
            rf"{re.escape(self.banner)} listening on [\d.]+:(\d+)", deadline_s
        )
        self.port = int(match.group(1))
        return self.port

    def stop(self, deadline_s: float = 20.0) -> None:
        """SIGTERM, then require exit 0 and the drained line."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        code = self.wait_exit(deadline_s)
        self._fh.close()
        drained = f"{self.banner} drained; exiting"
        if code != 0 or drained not in self.log.read_text(errors="replace"):
            raise BenchError(
                f"{self.name} did not drain cleanly (exit {code}):\n"
                f"{log_tail(self.log)}"
            )


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for children: the checkout's sources, temp files inside
    the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["TMPDIR"] = str(tmp)
    # Fixed string hashing: one less thing that differs between runs.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env
