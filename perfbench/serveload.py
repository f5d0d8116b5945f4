"""Open-loop load against ``python -m repro serve``.

One process, two threads, two connections.  The main thread is the
generator: it submits each job on connection A at its scheduled time
and reads the job's ack.  A reader thread has subscribed to every timed
job id on connection B and timestamps each result row as it arrives.
Latency runs from a job's *scheduled* send time to its row's arrival,
so a late generator shows up as latency, and the generator's own
lateness is reported separately.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter


class Conn:
    """One NDJSON connection to the service socket."""

    def __init__(self, path: str, retry_for: float = 30.0, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + retry_for
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        self.sock = sock
        self._fh = sock.makefile("rwb")

    def send(self, request: dict) -> None:
        self._fh.write((json.dumps(request) + "\n").encode())
        self._fh.flush()

    def recv(self) -> dict:
        line = self._fh.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def recv_until(self, rec: str, job_id: Optional[int] = None) -> dict:
        """Next record of kind *rec* (for *job_id*), skipping others."""
        while True:
            msg = self.recv()
            if msg.get("rec") == rec and (job_id is None or msg.get("job_id") == job_id):
                return msg
            if rec == "ack" and msg.get("rec") == "reject" and msg.get("job_id") == job_id:
                return msg

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._fh.close()
        self.sock.close()


def attack_job(job_id: int, attack: str) -> dict:
    """The wire form of one warm attack job."""
    return {"job_id": job_id, "name": attack, "kind": "attack",
            "params": {"attack": attack, "execution": "warm"}}


def schedule(seed: int, attacks: Sequence[str], rate: float, n_jobs: int
             ) -> List[Tuple[float, str]]:
    """``n_jobs`` Poisson arrivals at *rate*, with a uniform attack mix.

    Given their count, the arrival times of a Poisson process over a
    window are independent uniform draws, so the schedule is the sorted
    draws over ``n_jobs / rate`` seconds: the offered load is the same
    on every seed, only its burstiness differs.  Attacks are dealt from
    reshuffled decks of the whole roster, so each is equally likely at
    every draw and none is over-represented in a short window.
    """
    rng = random.Random(seed)
    window = n_jobs / rate
    times = sorted(rng.uniform(0.0, window) for _ in range(n_jobs))
    mix: List[str] = []
    while len(mix) < n_jobs:
        mix.extend(rng.sample(list(attacks), len(attacks)))
    return list(zip(times, mix[:n_jobs]))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, in MiB (0 when gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][:1] != "Z"
    except OSError:
        return False


class Service:
    """A ``repro serve`` child with a fresh journal under *workdir*."""

    def __init__(self, root: Path, workdir: Path, workers: int) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        tag = str(os.getpid())
        # Relative to the service's working directory (the checkout), so
        # the socket path stays short wherever the checkout lives.
        self.socket_path = os.path.relpath(workdir / f"serve-{tag}.sock", root)
        self.journal_path = workdir / f"journal-{tag}.ndjson"
        self.log_path = workdir / f"serve-{tag}.log"
        for path in (self.journal_path, root / self.socket_path):
            if path.exists():
                path.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket_path, "--journal", str(self.journal_path),
             "--jobs", str(workers)],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.root = root
        #: Worker pids seen in result rows (for memory and clean-up).
        self.worker_pids: set = set()

    def connect(self) -> Conn:
        return Conn(str(self.root / self.socket_path))

    def peak_rss_mb(self) -> float:
        return max([vm_hwm_mb(self.proc.pid)] + [vm_hwm_mb(p) for p in self.worker_pids])

    def stop(self, conn: Optional[Conn]) -> None:
        """Ask for shutdown, then make sure the service and every worker
        it forked have ended."""
        try:
            if conn is not None and self.proc.poll() is None:
                conn.send({"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self._log.close()
        deadline = time.monotonic() + 10.0
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                while _alive(pid) and time.monotonic() < deadline + 5.0:
                    time.sleep(0.05)

    def cleanup(self) -> None:
        for path in (self.journal_path, self.root / self.socket_path, self.log_path):
            if path.exists():
                path.unlink()

    def log_tail(self, n: int = 20) -> str:
        try:
            return "\n".join(self.log_path.read_text(errors="replace").splitlines()[-n:])
        except OSError:
            return ""


def warm_up(conn: Conn, attacks: Sequence[str], workers: int, first_id: int
            ) -> Tuple[List[dict], int]:
    """Run every attack once on every worker (snapshot capture + first
    fork), one attack at a time, *workers* copies at once.  Returns the
    rows and the next free job id."""
    rows: List[dict] = []
    job_id = first_id
    for attack in attacks:
        seen: set = set()
        for _ in range(4):
            ids = list(range(job_id, job_id + workers))
            job_id += workers
            conn.send({"op": "submit", "jobs": [attack_job(i, attack) for i in ids]})
            for i in ids:
                ack = conn.recv_until("ack", i)
                if ack["rec"] != "ack":
                    raise RuntimeError(f"warm-up job rejected: {ack}")
            got = 0
            while got < len(ids):
                msg = conn.recv_until("result")
                if msg["result"]["job_id"] in ids:
                    rows.append(msg["result"])
                    seen.add(msg["result"]["worker_pid"])
                    got += 1
            if len(seen) >= workers:
                break
    return rows, job_id


class Reader(threading.Thread):
    """Streams result rows for *job_ids* and stamps their arrival."""

    def __init__(self, conn: Conn, job_ids: Sequence[int]) -> None:
        super().__init__(name="bench-reader", daemon=True)
        self.conn = conn
        self.wanted = set(job_ids)
        self.rows: Dict[int, Tuple[float, dict]] = {}
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            while self.wanted:
                msg = self.conn.recv()
                if msg.get("rec") != "result":
                    continue
                row = msg["result"]
                if row["job_id"] in self.wanted:
                    self.rows[row["job_id"]] = (clock(), row)
                    self.wanted.discard(row["job_id"])
        except (OSError, ConnectionError, ValueError) as exc:
            self.error = exc


def open_loop(submit: Conn, listen: Conn, plan: List[Tuple[float, str]],
              first_id: int, drain_limit: float) -> dict:
    """Drive *plan* and collect every row (or give up after *drain_limit*
    seconds past the last send)."""
    ids = list(range(first_id, first_id + len(plan)))
    listen.send({"op": "await", "job_ids": ids})
    reader = Reader(listen, ids)
    reader.start()
    start = clock() + 0.05
    sends: Dict[int, float] = {}
    lags: List[float] = []
    rejected: List[int] = []
    for job_id, (at, attack) in zip(ids, plan):
        due = start + at
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        lags.append(clock() - due)
        submit.send({"op": "submit", "jobs": [attack_job(job_id, attack)]})
        sends[job_id] = due
        if submit.recv_until("ack", job_id)["rec"] != "ack":
            rejected.append(job_id)
    reader.wanted.difference_update(rejected)
    reader.join(timeout=drain_limit)
    if reader.is_alive():
        listen.close()  # unblocks the reader; its missing rows time out
        reader.join(timeout=10.0)
    return {"start": start, "sends": sends, "lags": lags, "rejected": rejected,
            "rows": dict(reader.rows), "reader_error": reader.error}


def views(conn: Conn) -> Tuple[dict, dict]:
    """The service's health and metrics views."""
    conn.send({"op": "health"})
    health = conn.recv_until("health")
    conn.send({"op": "metrics"})
    metrics = conn.recv_until("metrics")["metrics"]
    return health, metrics
