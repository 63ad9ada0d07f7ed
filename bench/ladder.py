"""The traced ladder run: each layer's public function, called directly on
a request's real inputs, one span per call.

A request is one round trip of the workload (for browse_pir2, one page:
its visit, the five keyword GETs the visit makes, and one of those GETs
taken apart). Layers are replayed, not nested: every span's parent is the
span of the call that contains an equivalent call, so a rung's self time
is what the rung adds on top of the rungs below it.

    core.lightweb.visit                          (browse_pir2 only)
    └ core.zltp.eventloop.tcp_get_slots          TCP, against the child
      └ core.zltp.client.get_slots_inmem         same client code, no socket
        ├ core.backend.client_queries            └ crypto.dpf.gen | crypto.lwe.query
        ├ core.zltp.messages.encode_get
        ├ core.zltp.server.handle_frames         one per party; party 0 taken apart:
        │ ├ core.zltp.messages.decode_get
        │ ├ core.backend.server_answer           the batched answer the session calls
        │ │ └ pir.twoserver.answer_batch         ├ crypto.dpf.eval_full
        │ │   | pir.sharding.answer_batch        └ pir.database.xor_scan_batch
        │ │   | crypto.lwe.answer
        │ └ core.zltp.messages.encode_response
        ├ core.zltp.messages.decode_response
        └ core.backend.client_decode             └ crypto.lwe.decode

Side rungs (parent null, not part of the sum): ``pir.twoserver.answer``
(one unbatched answer, over ``crypto.dpf.eval_full`` + ``pir.database.
xor_scan``) on every pir2 workload, and ``pir.sharding.answer`` on the
sharded one — the two must agree bit for bit on the same key.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import numpy as np

from bench import adapters
from bench.loadgen import (
    OUT_DIR,
    ROOT,
    PageFailed,
    ServerChild,
    closed_loop,
    memcpy_gbps,
    nproc,
    open_user,
)
from bench.spans import Recorder, durations_ms, self_times_ms
from bench.workloads import (
    BROWSE_UNIVERSE,
    Workload,
    blob_for,
    geometry,
    slot_sequence,
    visit_sequence,
)

# Share of the window spent on the untraced reference loop; the ladder
# gets the rest, and runs at least MIN_REQUESTS however slow a request is.
REFERENCE_SHARE = 0.25
MIN_REQUESTS = 10


class Ladder:
    """Everything one workload's ladder calls into, built once."""

    def __init__(self, workload: Workload, seed: int, child: ServerChild,
                 browser=None):
        """``browser`` is an open, code-cached BrowseUser (browse only)."""
        self.workload = workload
        self.seed = seed
        self.recorder = Recorder()
        self.rng = np.random.default_rng((seed, 61))
        self.pir2 = workload.mode == "pir2"
        self.publish_s = 0.0
        self._deployment = None

        self.database, self.build_s = adapters.fill_database(workload, seed)
        opener = adapters.open_data_client if workload.kind == "browse" \
            else adapters.open_fetch_client
        start = time.perf_counter()
        self.tcp_client = opener(workload, child.ports, self.rng)
        self.connect_s = time.perf_counter() - start
        self.browser = browser
        if workload.kind == "browse":
            # The in-process twin of the child's universe, published from
            # the same spec files so keyword placement matches slot for slot.
            start = time.perf_counter()
            self._deployment = adapters.publish(child.spec_paths)
            self.publish_s = time.perf_counter() - start
            self.database = self._deployment.cdn.universe(
                adapters.UNIVERSE).data_db
            servers = [self._deployment.listeners[("data", party)].server
                       for party in range(adapters.mode_endpoints(
                           workload.mode))]
            self._requests = visit_sequence(seed, 0)
        else:
            servers = adapters.logical_servers(
                workload,
                [self.database] * adapters.mode_endpoints(workload.mode))
            self._requests = slot_sequence(seed, 0, self.database.n_slots)
        self.mem_client, self.sessions = adapters.open_loopback_client(
            servers, workload.mode, self.rng)
        self.backend_server, self.backend_client = adapters.backend_pair(
            workload, self.database, self.rng)

        self.pir = self.sharded = None
        self.lwe_server = self.lwe_client = None
        self.lwe_setup_s = 0.0
        if self.pir2:
            self.pir = adapters.TwoServerPirServer(self.database, 0)
            if workload.prefix_bits:
                self.sharded = adapters.ShardedPartyServer(
                    self.database, workload.prefix_bits, 0)
        else:
            self.lwe_server, self.lwe_client, self.lwe_setup_s = \
                adapters.lwe_core(self.database, self.rng)
        self.key_bytes = 0
        self.get_frame_bytes = 0
        self.response_frame_bytes = 0

    def close(self) -> None:
        self.tcp_client.close()
        self.mem_client.close()
        if self._deployment is not None:
            self._deployment.stop()

    # -- one request ---------------------------------------------------

    def _fetch(self, client, item) -> None:
        """The page-level operation both client rungs time, verified."""
        if self.workload.kind == "browse":
            payload = client.get(item.path)
            if payload is None or item.token.encode() not in payload:
                raise PageFailed(f"{item.path}: payload lacks seeded token")
        else:
            blob = client.get_slots([item])[0]
            self._check_blob(item, blob)

    def _check_blob(self, slot: int, blob: bytes) -> None:
        if blob != blob_for(self.seed, slot, self.workload.blob_size):
            raise PageFailed(f"slot {slot}: bytes differ from the corpus")

    def run_request(self, request: int) -> None:
        item = next(self._requests)
        rec, span = self.recorder, self.recorder.span
        browse = self.workload.kind == "browse"
        slots = self.tcp_client.candidate_slots(item.path) if browse \
            else [item]
        parties = range(len(self.sessions))
        visit_id = rec.new_id() if browse else None
        tcp_id, mem_id, frames_id, backend_id, core_id = (
            rec.new_id() for _ in range(5))

        # Client half: one query per slot, per party.
        payloads: List[List[bytes]] = []
        direct_queries: List[Any] = []
        for slot in slots:
            queries_id = rec.new_id()
            if self.pir2:
                with span(request, "crypto.dpf", "gen", parent=queries_id):
                    key0, _key1 = adapters.gen_dpf(
                        slot, self.database.domain_bits, rng=self.rng)
                direct_queries.append(key0)
            else:
                with span(request, "crypto.lwe", "query", parent=queries_id):
                    direct_queries.append(self.lwe_client.query(slot))
            with span(request, "core.backend", "client_queries",
                      parent=mem_id, span_id=queries_id):
                payloads.append(self.backend_client.queries_for_slot(slot))
        party0 = [per_slot[0] for per_slot in payloads]

        # Server half, party 0, innermost first.
        if self.pir2:
            self._pir2_core(request, direct_queries, party0, backend_id,
                            core_id)
        else:
            direct_answers = []
            for query in direct_queries:
                with span(request, "crypto.lwe", "answer", parent=backend_id):
                    direct_answers.append(self.lwe_server.answer(query))
        with span(request, "core.backend", "server_answer", parent=frames_id,
                  span_id=backend_id):
            answers0 = self.backend_server.answer_batch(party0)

        get_frames: List[List[bytes]] = [[] for _ in parties]
        for party in parties:
            for index, per_slot in enumerate(payloads):
                with span(request, "core.zltp.messages", "encode_get",
                          parent=mem_id):
                    get_frames[party].append(adapters.encode_message(
                        adapters.GetRequest(index, per_slot[party])))
        for frame in get_frames[0]:
            with span(request, "core.zltp.messages", "decode_get",
                      parent=frames_id):
                adapters.decode_message(frame)
        for index, answer in enumerate(answers0):
            with span(request, "core.zltp.messages", "encode_response",
                      parent=frames_id):
                adapters.encode_message(adapters.GetResponse(index, answer))
        replies: List[List[bytes]] = []
        for party in parties:
            with span(request, "core.zltp.server", "handle_frames",
                      parent=mem_id,
                      span_id=frames_id if party == 0 else None):
                replies.append(
                    self.sessions[party].handle_frames(get_frames[party]))

        # Back on the client: decode the replies, recombine the record.
        responses: List[List[Any]] = [[] for _ in parties]
        for party in parties:
            for frame in replies[party]:
                with span(request, "core.zltp.messages", "decode_response",
                          parent=mem_id):
                    responses[party].append(adapters.decode_message(frame))
        for index, slot in enumerate(slots):
            decode_id = rec.new_id()
            if not self.pir2:
                with span(request, "crypto.lwe", "decode", parent=decode_id):
                    column = self.lwe_client.decode(direct_answers[index])
                self._check_blob(slot, column.astype(np.uint8).tobytes())
            with span(request, "core.backend", "client_decode",
                      parent=mem_id, span_id=decode_id):
                record = self.backend_client.decode(
                    [responses[party][index].payload for party in parties])
            if not browse:
                self._check_blob(slot, record)

        with span(request, "core.zltp.client", "get_slots_inmem",
                  parent=tcp_id, span_id=mem_id):
            self._fetch(self.mem_client, item)
        with span(request, "core.zltp.eventloop", "tcp_get_slots",
                  parent=visit_id, span_id=tcp_id):
            self._fetch(self.tcp_client, item)
        if browse:
            # The visit's other GETs are budget padding: absent keys with
            # the same wire shape.
            for pad in range(1, BROWSE_UNIVERSE["fetch_budget"]):
                with span(request, "core.zltp.eventloop", "tcp_get_slots",
                          parent=visit_id):
                    self.tcp_client.get(
                        f"padding.invalid/bench-{request}-{pad}")
            with span(request, "core.lightweb", "visit", span_id=visit_id):
                self.browser.visit(item)

        if not self.get_frame_bytes:  # fixed by the geometry: measure once
            self.key_bytes = len(party0[0]) if self.pir2 else 0
            self.get_frame_bytes = adapters.framed_bytes(get_frames[0][0])
            self.response_frame_bytes = adapters.framed_bytes(replies[0][0])

    def _pir2_core(self, request: int, keys: List[Any], party0: List[bytes],
                   backend_id: int, core_id: int) -> None:
        span = self.recorder.span
        if self.sharded is None:
            select = []
            for key in keys:
                with span(request, "crypto.dpf", "eval_full", parent=core_id):
                    select.append(adapters.eval_dpf_full(key))
            with span(request, "pir.database", "xor_scan_batch",
                      parent=core_id):
                self.database.xor_scan_batch(np.stack(select))
            with span(request, "pir.twoserver", "answer_batch",
                      parent=backend_id, span_id=core_id):
                batched = self.pir.answer_batch(party0)
        else:
            with span(request, "pir.sharding", "answer_batch",
                      parent=backend_id, span_id=core_id):
                batched = self.sharded.answer_batch(party0)

        single_id = self.recorder.new_id()
        with span(request, "crypto.dpf", "eval_full", parent=single_id):
            bits = adapters.eval_dpf_full(keys[0])
        with span(request, "pir.database", "xor_scan", parent=single_id):
            self.database.xor_scan(bits)
        with span(request, "pir.twoserver", "answer", span_id=single_id):
            single = self.pir.answer(party0[0])
        answers = [batched[0], single]
        if self.sharded is not None:
            with span(request, "pir.sharding", "answer"):
                answers.append(self.sharded.answer(party0[0]))
        if any(answer != single for answer in answers):
            raise PageFailed("pir2 rungs disagree on the same key")


# --------------------------------------------------------------------------
# The traced run
# --------------------------------------------------------------------------


def _median(values: Optional[List[float]]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_ladder(workload: Workload, seed: int,
               seconds: float) -> Dict[str, Any]:
    """The traced run of one workload: an untraced single-user reference
    loop, then ladder requests until the window is spent (and at least
    ``MIN_REQUESTS``). Writes the trace file; returns per-layer metrics."""
    host_gbps = memcpy_gbps()
    with ServerChild(workload, seed) as child:
        reference_user = open_user(workload, seed, 0, child.ports)
        ladder = None
        attempted = failed = 0
        try:
            if workload.kind == "browse":
                reference_user.cache_code_blobs()
            reference_user.page()
            reference = closed_loop([reference_user],
                                    seconds * REFERENCE_SHARE)
            if not reference.pages:
                raise RuntimeError(
                    f"{workload.name}: reference loop made no page")

            ladder = Ladder(workload, seed, child, browser=reference_user)
            ladder.run_request(-1)  # warm every rung once, then forget it
            ladder.recorder.drop_request(-1)
            deadline = time.perf_counter() + seconds * (1 - REFERENCE_SHARE)
            while attempted < MIN_REQUESTS or time.perf_counter() < deadline:
                attempted += 1
                try:
                    ladder.run_request(attempted)
                except PageFailed as exc:
                    failed += 1
                    ladder.recorder.drop_request(attempted)
                    print(f"bench: ladder: {exc}", file=sys.stderr)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    break
        finally:
            reference_user.close()
            if ladder is not None:
                ladder.close()
    if child.leaked_shm:
        raise RuntimeError(f"/dev/shm segments leaked: {child.leaked_shm}")

    trace_file = OUT_DIR / f"{workload.name}.trace.jsonl"
    ladder.recorder.write(trace_file)
    metrics = _layer_metrics(ladder, reference, host_gbps,
                             attempted - failed)
    return {
        "ops_attempted": attempted + reference.attempted,
        "ops_failed": failed + reference.failed,
        "metrics": metrics,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def _layer_metrics(ladder: Ladder, reference, host_gbps: float,
                   requests: int) -> Dict[str, float]:
    workload = ladder.workload
    spans = ladder.recorder.spans
    took, own = durations_ms(spans), self_times_ms(spans)
    batch = workload.gets_per_round_trip
    n_slots, database_bytes = geometry(workload)

    def p50(key: str) -> float:
        return _median(took.get(key))

    def self50(key: str) -> float:
        # Floored: a negative self time is replay noise, not time given back.
        return max(0.0, _median(own.get(key)))

    def per_second(amount: float, ms: float) -> float:
        return amount / (ms / 1e3) if ms else 0.0

    scan_gbps = per_second(database_bytes, p50("pir.database.xor_scan")) / 1e9
    top = "core.lightweb.visit" if workload.kind == "browse" \
        else "core.zltp.eventloop.tcp_get_slots"
    page_p50 = statistics.median(reference.latencies_ms)
    pages = reference.pages
    single, sharded = p50("pir.twoserver.answer"), p50("pir.sharding.answer")
    return {
        "crypto.dpf.gen_ms": p50("crypto.dpf.gen"),
        "crypto.dpf.eval_full_ms": p50("crypto.dpf.eval_full"),
        "crypto.dpf.leaves_per_s": per_second(
            n_slots, p50("crypto.dpf.eval_full")),
        "crypto.dpf.key_bytes": ladder.key_bytes,
        "pir.database.xor_scan_ms": p50("pir.database.xor_scan"),
        "pir.database.xor_scan_gbps": scan_gbps,
        "pir.database.xor_scan_memcpy_frac": scan_gbps / host_gbps,
        "pir.database.xor_scan_batch_ms_per_query":
            p50("pir.database.xor_scan_batch") / batch,
        "pir.database.build_ms": ladder.build_s * 1e3,
        "pir.twoserver.answer_ms": single,
        "pir.twoserver.answer_self_ms": self50("pir.twoserver.answer"),
        "pir.twoserver.answer_batch_ms_per_query":
            p50("pir.twoserver.answer_batch") / batch,
        "pir.sharding.answer_ms": sharded,
        "pir.sharding.answer_batch_ms_per_query":
            p50("pir.sharding.answer_batch") / batch,
        "pir.sharding.overhead_ratio": sharded / single if single else 0.0,
        "crypto.lwe.query_ms": p50("crypto.lwe.query"),
        "crypto.lwe.answer_ms": p50("crypto.lwe.answer"),
        "crypto.lwe.decode_ms": p50("crypto.lwe.decode"),
        "crypto.lwe.setup_ms": ladder.lwe_setup_s * 1e3,
        "crypto.lwe.hint_bytes":
            ladder.lwe_server.hint_bytes() if ladder.lwe_server else 0,
        "core.backend.client_queries_ms": p50("core.backend.client_queries"),
        "core.backend.client_decode_ms": p50("core.backend.client_decode"),
        "core.backend.server_answer_ms": p50("core.backend.server_answer"),
        "core.backend.server_self_ms": self50("core.backend.server_answer"),
        "core.zltp.messages.encode_get_ms":
            p50("core.zltp.messages.encode_get"),
        "core.zltp.messages.decode_get_ms":
            p50("core.zltp.messages.decode_get"),
        "core.zltp.messages.encode_response_ms":
            p50("core.zltp.messages.encode_response"),
        "core.zltp.messages.decode_response_ms":
            p50("core.zltp.messages.decode_response"),
        "core.zltp.messages.get_frame_bytes": ladder.get_frame_bytes,
        "core.zltp.messages.response_frame_bytes":
            ladder.response_frame_bytes,
        "core.zltp.server.handle_frames_ms":
            p50("core.zltp.server.handle_frames"),
        "core.zltp.server.session_self_ms":
            self50("core.zltp.server.handle_frames"),
        "core.zltp.client.get_slots_inmem_ms":
            p50("core.zltp.client.get_slots_inmem"),
        "core.zltp.client.client_self_ms":
            self50("core.zltp.client.get_slots_inmem"),
        "core.zltp.eventloop.tcp_get_slots_ms":
            p50("core.zltp.eventloop.tcp_get_slots"),
        "core.zltp.eventloop.tcp_overhead_ms":
            p50("core.zltp.eventloop.tcp_get_slots")
            - p50("core.zltp.client.get_slots_inmem"),
        "core.zltp.eventloop.connect_ms": ladder.connect_s * 1e3,
        "core.lightweb.visit_ms": p50("core.lightweb.visit"),
        "core.lightweb.visit_self_ms": self50("core.lightweb.visit"),
        "core.lightweb.publish_ms": ladder.publish_s * 1e3,
        "loadgen.pages": pages,
        "loadgen.window_s": reference.window_s,
        "loadgen.page_p50_ms": page_p50,
        "loadgen.page_p90_ms": _percentile(reference.latencies_ms, 0.90),
        "loadgen.page_p99_ms":
            _percentile(reference.latencies_ms, 0.99) if pages >= 1000
            else 0.0,
        "loadgen.host_memcpy_gbps": host_gbps,
        "loadgen.nproc": nproc(),
        "loadgen.ladder_requests": requests,
        "loadgen.ladder_coverage":
            workload.round_trips_per_page
            * p50("core.zltp.client.get_slots_inmem") / page_p50,
        "loadgen.trace_overhead_share": p50(top) / page_p50 - 1.0,
    }
