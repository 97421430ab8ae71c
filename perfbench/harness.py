"""Measurement plumbing shared by the workloads.

* :class:`Tracer` — in-memory spans (name, start, end, parent, request
  id) recorded around calls the benchmark makes into each layer.  A
  disabled tracer records nothing, so untraced runs execute the same
  code with no span bookkeeping.
* process helpers — CPU time and RSS high-water marks read from
  ``/proc``, for this process or the server child.
* :class:`ServerProcess` / :class:`Client` — the ``repro-densest serve``
  child and a single keep-alive HTTP/1.1 client connection.
* small statistics helpers (median, percentile).
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional

CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.request_id: Optional[str] = None

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as span ``name`` (a no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": self.request_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, *, parent: int) -> None:
        """Record a span measured elsewhere (a server-side job interval
        mapped onto this process's clock) under span ``parent``."""
        if not self.enabled:
            return
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": parent,
                "request_id": self.request_id,
                "start": start,
                "end": end,
            }
        )

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds (duration minus
        the part covered by child spans)."""
        child_cover: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_cover[s["parent"]] = child_cover.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            total = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += total
            row["self_s"] += max(0.0, total - child_cover.get(s["id"], 0.0))
        return out

    def write(self, path: Path, **extra) -> None:
        """Write the spans, plus ``extra`` top-level keys, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}, indent=1) + "\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: List[float]) -> float:
    return float(statistics.median(values))


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method; exact for one sample)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


# ----------------------------------------------------------------------
# process facts
# ----------------------------------------------------------------------
def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Resident-set high-water mark (VmHWM) of ``pid`` in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_hwm() -> None:
    """Reset this process's VmHWM to its current RSS, so the next
    reading covers only what runs after this call."""
    Path("/proc/self/clear_refs").write_text("5")


def cpu_seconds() -> float:
    """CPU time (user + system) of this process so far."""
    t = os.times()
    return t.user + t.system


def source_digest(root: Path) -> str:
    """The commit, or a digest of ``src/`` when no git metadata exists."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(root: Path) -> Dict[str, Any]:
    """The facts that make two result sets comparable."""
    import numpy

    from repro.kernels import tier_report

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernel_tiers": tier_report(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": source_digest(root),
    }


# ----------------------------------------------------------------------
# the server child and its client
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro-densest serve`` in a child process with default flags
    except port and catalog path; its output is drained continuously so
    a full pipe can never stall it."""

    def __init__(self, root: Path, catalog: Path, env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--catalog", str(catalog)],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: List[str] = []
        first = self.proc.stdout.readline()
        self.output.append(first)
        if "serving on http://" not in first:
            self.stop()
            raise RuntimeError(f"server failed to start: {''.join(self.output)}")
        host_port = first.split("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        self._drain = threading.Thread(target=self._read_all, daemon=True)
        self._drain.start()

    def _read_all(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)
        self.proc.stdout.close()


class Client:
    """One keep-alive HTTP/1.1 connection; every call is closed loop."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def call(self, method: str, path: str, body: Optional[dict] = None):
        """Returns ``(status, payload, seconds)`` for one request."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        return response.status, json.loads(raw), elapsed

    def close(self) -> None:
        self.conn.close()
