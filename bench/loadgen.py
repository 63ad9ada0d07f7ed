"""Closed-loop load against a spawned server child, and the end-to-end run.

Each user is one thread with its own sessions and sends its next page only
once the previous one has been verified — a person waiting for a page. No
queue builds, so admission and queueing are not measured here.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from bench import adapters
from bench.workloads import (
    Workload,
    blob_for,
    first_page_per_domain,
    slot_sequence,
    visit_sequence,
    write_site_specs,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------
# Host fingerprint
# --------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def memcpy_gbps(size: int = 1 << 26, repeats: int = 5) -> float:
    """Best-of-N ``numpy`` copy rate of a buffer far larger than cache:
    the ceiling scans are reported against."""
    src = np.ones(size, dtype=np.uint8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return size / best / 1e9


def host_fingerprint() -> Dict[str, Any]:
    commit = "unknown"
    if (ROOT / ".git").exists():  # else git would search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc(),
        "memcpy_gbps": memcpy_gbps(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": commit,
    }


# --------------------------------------------------------------------------
# /proc readers (no psutil)
# --------------------------------------------------------------------------


def _process_tree(pid: int) -> List[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                children = Path(f"/proc/{current}/task/{task}/children")
                frontier.extend(int(c) for c in children.read_text().split())
        except OSError:
            pass
    return pids


def tree_cpu_seconds(pid: int) -> float:
    """user+sys CPU of a process and its descendants, reaped ones included."""
    ticks = 0
    for member in _process_tree(pid):
        try:
            stat = Path(f"/proc/{member}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        ticks += utime + stime
        if member == pid:
            ticks += int(fields[13]) + int(fields[14])  # cutime + cstime
    return ticks / _CLOCK_TICKS


def tree_peak_rss_mib(pid: int) -> float:
    """Sum of ``VmHWM`` over a process and its live descendants."""
    kib = 0
    for member in _process_tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# --------------------------------------------------------------------------
# The server child
# --------------------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36
_STOP_SECONDS = 20


def _adopt_orphans() -> None:
    """Make this process the one orphaned descendants are handed to, so a
    helper the server child starts (a worker, a resource tracker) can be
    waited for here once the child itself is gone."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _wait_without_reaping(pid: int, seconds: float) -> bool:
    """True once ``pid`` has exited. It stays a zombie, so its process
    group id cannot be handed to another process before ``killpg``."""
    deadline = time.monotonic() + seconds
    while os.waitid(os.P_PID, pid,
                    os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _reap_all(seconds: float) -> None:
    """Wait for every remaining child of this process to end."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                raise RuntimeError("a descendant of the server child "
                                   "outlived it")
            time.sleep(0.01)


class ServerChild:
    """One process hosting every party's listener, as ``lightweb serve``
    does: a fresh interpreter running ``bench/server_child.py`` in a
    process group of its own.

    A context manager: on the way out, whatever the body raised, the child
    is told to stop, its whole process group is killed, every process that
    came of it is waited for, and ``/dev/shm`` is checked for leaked
    segments. No other child process may be open across the ``with`` block.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.ports: adapters.Ports = {}
        self.spec_paths: List[str] = []
        self.leaked_shm: List[str] = []
        self._process = None
        self._shm_before = shm_segments()
        self._spec_dir = OUT_DIR / f"specs-{os.getpid()}"

    @property
    def pid(self) -> int:
        return self._process.pid

    def __enter__(self) -> "ServerChild":
        if self.workload.kind == "browse":
            self.spec_paths = write_site_specs(self.seed, self._spec_dir)
        _adopt_orphans()
        self._process = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "server_child.py"),
             self.workload.name, str(self.seed), *self.spec_paths],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            start_new_session=True)
        try:
            ready, _, _ = select.select([self._process.stdout], [], [], 120)
            if not ready:
                raise RuntimeError("server child did not come up in 120 s")
            line = self._process.stdout.readline()
            if not line:
                raise RuntimeError("server child died while starting")
            self.ports = json.loads(line)
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, *exc) -> None:
        process = self._process
        try:
            process.stdin.close()  # end of file is the stop signal
        except OSError:
            pass
        _wait_without_reaping(process.pid, _STOP_SECONDS)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()
        _reap_all(_STOP_SECONDS)
        shutil.rmtree(self._spec_dir, ignore_errors=True)
        self.leaked_shm = sorted(shm_segments() - self._shm_before)


# --------------------------------------------------------------------------
# Users
# --------------------------------------------------------------------------


class PageFailed(Exception):
    """A page came back, but not with the seeded corpus's bytes."""


class FetchUser:
    """One ``ZltpClient`` fetching seeded slots and checking every byte."""

    def __init__(self, workload: Workload, seed: int, index: int,
                 ports: adapters.Ports):
        self._workload = workload
        self._seed = seed
        self._slots = slot_sequence(seed, index, 1 << workload.domain_bits)
        self._client = adapters.open_fetch_client(
            workload, ports, np.random.default_rng((seed, 31, index)))

    def page(self) -> None:
        slot = next(self._slots)
        blob = self._client.get_slots([slot])[0]
        if blob != blob_for(self._seed, slot, self._workload.blob_size):
            raise PageFailed(f"slot {slot}: bytes differ from the corpus")

    def wire_bytes(self) -> int:
        return self._client.bytes_sent + self._client.bytes_received

    def close(self) -> None:
        self._client.close()


class BrowseUser:
    """One ``LightwebBrowser`` visiting seeded pages and checking that each
    render carries the page's seeded token."""

    def __init__(self, workload: Workload, seed: int, index: int,
                 ports: adapters.Ports):
        self._seed = seed
        self._visits = visit_sequence(seed, index)
        self._browser = adapters.open_browser(
            workload, ports, np.random.default_rng((seed, 31, index)))

    def visit(self, page) -> None:
        rendered = self._browser.visit(page.path)
        if page.token not in rendered.text or rendered.notes:
            raise PageFailed(f"{page.path}: render lacks the seeded token "
                             f"(notes: {rendered.notes})")

    def page(self) -> None:
        self.visit(next(self._visits))

    def cache_code_blobs(self) -> int:
        """Visit one page per domain; returns how many pages that was."""
        pages = first_page_per_domain(self._seed)
        for page in pages:
            self.visit(page)
        return len(pages)

    def wire_bytes(self) -> int:
        return self._browser.bytes_sent + self._browser.bytes_received

    def close(self) -> None:
        self._browser.close()


def open_user(workload: Workload, seed: int, index: int,
              ports: adapters.Ports):
    cls = BrowseUser if workload.kind == "browse" else FetchUser
    return cls(workload, seed, index, ports)


def user_count(workload: Workload) -> int:
    return max(1, min(workload.users, nproc()))


# --------------------------------------------------------------------------
# The closed loop
# --------------------------------------------------------------------------


@dataclass
class LoopResult:
    latencies_ms: List[float] = field(default_factory=list)
    wire_bytes: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0

    @property
    def pages(self) -> int:
        return len(self.latencies_ms)


def _drive(user, deadline: float, result: LoopResult,
           lock: threading.Lock) -> None:
    latencies: List[float] = []
    wire: List[int] = []
    attempted = failed = 0
    while time.perf_counter() < deadline:
        attempted += 1
        before = user.wire_bytes()
        start = time.perf_counter()
        try:
            user.page()
        except PageFailed as exc:
            failed += 1
            print(f"bench: {exc}", file=sys.stderr)
            continue
        except Exception:
            # The session is in an unknown state: count the page as
            # failed and stop this user instead of hammering a dead link.
            failed += 1
            traceback.print_exc()
            break
        latencies.append((time.perf_counter() - start) * 1e3)
        wire.append(user.wire_bytes() - before)
    with lock:
        result.latencies_ms.extend(latencies)
        result.wire_bytes.extend(wire)
        result.attempted += attempted
        result.failed += failed


def closed_loop(users: List[Any], seconds: float) -> LoopResult:
    """Run every user's page loop for ``seconds``; a page that raises or
    fails verification counts as attempted, failed, and has no latency."""
    result = LoopResult()
    lock = threading.Lock()
    start = time.perf_counter()
    threads = [threading.Thread(target=_drive, name=f"user-{i}",
                                args=(user, start + seconds, result, lock))
               for i, user in enumerate(users)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.window_s = time.perf_counter() - start
    # Every page must move the same bytes: a page that does not is a shape
    # leak, and counts as failed.
    if result.wire_bytes:
        expected = result.wire_bytes[0]
        result.failed += sum(1 for b in result.wire_bytes if b != expected)
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {}
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------------
# The end-to-end (untraced) run
# --------------------------------------------------------------------------


def _users_ready(stack: List[Any], child: ServerChild, workload: Workload,
                 seed: int, warmup_pages: int) -> None:
    """Open the remaining users and warm every session up."""
    for index in range(len(stack), user_count(workload)):
        stack.append(open_user(workload, seed, index, child.ports))
    for user in stack:
        pages = -(-warmup_pages // len(stack))
        if workload.kind == "browse":
            pages -= user.cache_code_blobs()
        for _ in range(pages):
            user.page()


def _trial(workload: Workload, seed: int, seconds: float,
           warmup_pages: int) -> Dict[str, Any]:
    """One server child's life: set-up to the first verified page, warm-up,
    one closed-loop window, tear-down."""
    users: List[Any] = []
    start = time.perf_counter()
    with ServerChild(workload, seed) as child:
        try:
            users.append(open_user(workload, seed, 0, child.ports))
            users[0].page()
            setup_s = time.perf_counter() - start
            _users_ready(users, child, workload, seed, warmup_pages)
            server_cpu = tree_cpu_seconds(child.pid)
            client_cpu = time.process_time()
            loop = closed_loop(users, seconds)
            client_cpu = time.process_time() - client_cpu
            server_cpu = tree_cpu_seconds(child.pid) - server_cpu
            server_rss = tree_peak_rss_mib(child.pid)
        finally:
            for user in users:
                user.close()
    if child.leaked_shm:
        raise RuntimeError(f"/dev/shm segments leaked: {child.leaked_shm}")
    if not loop.pages:
        raise RuntimeError(f"{workload.name}: no page completed in the window")
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "setup_s": setup_s,
            "page_p50_ms": statistics.median(loop.latencies_ms),
            "pages_per_s": loop.pages / loop.window_s,
            "server_cpu_ms_per_page": server_cpu * 1e3 / loop.pages,
            "client_cpu_ms_per_page": client_cpu * 1e3 / loop.pages,
            "wire_bytes_per_page": statistics.median(loop.wire_bytes),
            "server_rss_mib": server_rss,
        },
    }


def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   trials: int, warmup_pages: int) -> Dict[str, Any]:
    """The untraced run: ``trials`` server children one after another, each
    measured for ``seconds / trials``; every metric is the median over the
    trials, so one child that landed badly does not decide the run."""
    results = [_trial(workload, seed, seconds / trials, warmup_pages)
               for _ in range(trials)]
    failed = sum(result["failed"] for result in results)
    if len({r["metrics"]["wire_bytes_per_page"] for r in results}) > 1:
        failed += 1  # a page's bytes differed between children
    per_trial = {name: [result["metrics"][name] for result in results]
                 for name in results[0]["metrics"]}
    return {
        "ops_attempted": sum(result["attempted"] for result in results),
        "ops_failed": failed,
        "metrics": {name: statistics.median(values)
                    for name, values in per_trial.items()},
        "trials": per_trial,
    }
