"""In-memory span tracing around ChatIYP's public functions.

The traced run wraps public methods of each layer (stages, LLM heads,
Cypher engine, graph store, vector store, serving primitives, HTTP handler)
from outside the program.  A span records its name, start, end, parent and
the request id shared by every span of one request; spans are recorded
only while a request id is set on the calling thread, so set-up, checks
and scoring never show up.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.core.chatiyp import ChatIYP
from repro.cypher.executor import CypherEngine
from repro.embed.model import HashingEmbedding
from repro.embed.vector_store import VectorStore
from repro.graph.csr import CSRSnapshot, adjacency_key
from repro.graph.store import GraphStore
from repro.llm.simulated import SimulatedLLM
from repro.rag.stages import (
    FallbackRoutingStage,
    RerankStage,
    SymbolicRetrievalStage,
    SynthesisStage,
)
from repro.server.app import ChatIYPRequestHandler
from repro.serving.admission import AdmissionController
from repro.serving.cache import AnswerCache

_TASK_RE = re.compile(r"\[TASK:\s*(\w+)\]")

# span record fields
RID, NAME, START, END, PARENT, ATTR = range(6)


class Tracer:
    """Collects spans from every thread; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.roots: dict[str, int] = {}  # request id -> its op.* span
        self._local = threading.local()

    # -- request scope ----------------------------------------------------

    @contextmanager
    def request(self, rid: str):
        """Tag every span the calling thread records with ``rid``.

        On another thread (the server's handler) the request's spans hang
        under the client's root span of the same request.
        """
        previous = getattr(self._local, "rid", None), getattr(self._local, "stack", None)
        root = self.roots.get(rid)
        self._local.rid, self._local.stack = rid, ([] if root is None else [root])
        try:
            yield
        finally:
            self._local.rid, self._local.stack = previous

    @contextmanager
    def op(self, kind: str, rid: str, **attr):
        """Root span of one benchmark operation (``op.ask`` and so on)."""
        with self.request(rid), self.span(f"op.{kind}", attr) as root_attr:
            self.roots[rid] = self._local.stack[-1]
            yield root_attr

    @contextmanager
    def span(self, name: str, attr: dict | None = None):
        """Record ``name`` around the body when a request is in scope.

        Yields the span's attribute dict (or None when nothing is
        recorded) so the caller can annotate it with results.
        """
        rid = getattr(self._local, "rid", None)
        if rid is None:
            yield None
            return
        stack = self._local.stack
        record = [rid, name, time.perf_counter(), None, stack[-1] if stack else None,
                  dict(attr or {})]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield record[ATTR]
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("rid", "name", "start", "end", "parent", "attr")
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record)), default=str) + "\n")


class NullTracer:
    """Stand-in for untraced runs: every scope is a no-op."""

    def op(self, kind: str, rid: str, **attr):
        return nullcontext()


# ---------------------------------------------------------------------------
# Wrappers around the program's public functions
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, func, name, annotate=None):
    """``func`` recorded as span ``name``; ``annotate(attr, result, args)``."""

    def wrapper(*args, **kwargs):
        with tracer.span(name if isinstance(name, str) else name(args)) as attr:
            result = func(*args, **kwargs)
            if attr is not None and annotate is not None:
                annotate(attr, result, args, kwargs)
            return result

    wrapper.__wrapped__ = func
    return wrapper


def _csr_snapshot(tracer: Tracer, func):
    """``GraphStore.csr_snapshot``, marking the calls that built one."""

    def wrapper(store):
        with tracer.span("graph.csr_snapshot") as attr:
            before = store.csr_metrics()["csr.builds"] if attr is not None else 0
            snapshot = func(store)
            if attr is not None:
                attr["built"] = store.csr_metrics()["csr.builds"] > before
            return snapshot

    return wrapper


def _csr_adjacency(tracer: Tracer, func):
    """Span the lazy (direction, types) array builds of ``CSRSnapshot``."""

    def wrapper(snapshot, direction, rel_types=None):
        if adjacency_key(direction, rel_types) in snapshot._adj:
            return func(snapshot, direction, rel_types)
        with tracer.span("graph.csr_build", {"direction": direction}):
            return func(snapshot, direction, rel_types)

    return wrapper


def _handler_post(tracer: Tracer, func):
    """Adopt the client's request id on the server's handler thread."""

    def wrapper(handler):
        rid = handler.headers.get("X-Request-Id")
        if rid is None:
            return func(handler)
        with tracer.request(rid), tracer.span("server.handle"):
            return func(handler)

    return wrapper


def _llm_name(args) -> str:
    match = _TASK_RE.search(args[1])
    return f"llm.{match.group(1).lower() if match else 'answer'}"


def _routed(attr, ctx, args, kwargs):
    attr["vector"] = bool(ctx.fallback_used or ctx.source == "vector")


def _rows(attr, result, args, kwargs):
    attr["rows"] = len(result.records)
    attr["query"] = args[1]


def _hit(attr, result, args, kwargs):
    attr["hit"] = result is not None


def _question(attr, result, args, kwargs):
    attr["question"] = args[1]


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layers' public functions for the duration of the block."""
    patches = [
        (ChatIYP, "ask", lambda f: _wrap(tracer, f, "core.ask", _question)),
        (SymbolicRetrievalStage, "run", lambda f: _wrap(tracer, f, "rag.symbolic")),
        (FallbackRoutingStage, "run", lambda f: _wrap(tracer, f, "rag.routing", _routed)),
        (RerankStage, "run", lambda f: _wrap(tracer, f, "rag.rerank")),
        (SynthesisStage, "run", lambda f: _wrap(tracer, f, "rag.synthesis")),
        (SimulatedLLM, "complete", lambda f: _wrap(tracer, f, _llm_name)),
        (CypherEngine, "execute", lambda f: _wrap(tracer, f, "cypher.execute", _rows)),
        (GraphStore, "csr_snapshot", lambda f: _csr_snapshot(tracer, f)),
        (CSRSnapshot, "adjacency", lambda f: _csr_adjacency(tracer, f)),
        (GraphStore, "statistics", lambda f: _wrap(tracer, f, "graph.statistics")),
        (VectorStore, "search", lambda f: _wrap(tracer, f, "embed.search")),
        (HashingEmbedding, "embed", lambda f: _wrap(tracer, f, "embed.embed")),
        (AnswerCache, "get", lambda f: _wrap(tracer, f, "serving.cache_get", _hit)),
        (AdmissionController, "acquire", lambda f: _wrap(tracer, f, "serving.admission")),
        (ChatIYPRequestHandler, "do_POST", lambda f: _handler_post(tracer, f)),
    ]
    originals = []
    try:
        for cls, attr, make in patches:
            original = cls.__dict__[attr]
            originals.append((cls, attr, original))
            setattr(cls, attr, make(original))
        yield tracer
    finally:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def duration_ms(record: list) -> float:
    return (record[END] - record[START]) * 1000.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover (ms)."""
    child_ms = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] is not None:
            child_ms[record[PARENT]] += duration_ms(record)
    return [max(0.0, duration_ms(record) - child_ms[index])
            for index, record in enumerate(spans)]


def summarize(spans: list[list], ops: int) -> dict:
    """Per-layer totals of one traced window, divided by its operations."""
    total_ms: Counter = Counter()
    count: Counter = Counter()
    rows = 0
    vector_routed = 0
    cache_hits = cache_misses = 0
    csr_builds = 0
    csr_ms = 0.0
    for record in spans:
        name, attr = record[NAME], record[ATTR]
        if name == "graph.csr_build" or (name == "graph.csr_snapshot" and attr.get("built")):
            csr_builds += 1
            csr_ms += duration_ms(record)
        total_ms[name] += duration_ms(record)
        count[name] += 1
        if name == "cypher.execute":
            rows += attr.get("rows", 0)
        elif name == "rag.routing":
            vector_routed += attr.get("vector", False)
        elif name == "serving.cache_get":
            if attr.get("hit"):
                cache_hits += 1
            else:
                cache_misses += 1
    per_op = 1.0 / max(1, ops)
    llm_calls = sum(n for name, n in count.items() if name.startswith("llm."))
    return {
        "rag.symbolic_ms": total_ms["rag.symbolic"] * per_op,
        "rag.routing_ms": total_ms["rag.routing"] * per_op,
        "rag.rerank_ms": total_ms["rag.rerank"] * per_op,
        "rag.synthesis_ms": total_ms["rag.synthesis"] * per_op,
        "rag.vector_routed": vector_routed * per_op,
        "llm.text2cypher_ms": total_ms["llm.text2cypher"] * per_op,
        "llm.rerank_ms": total_ms["llm.rerank"] * per_op,
        "llm.answer_ms": total_ms["llm.answer"] * per_op,
        "llm.calls": llm_calls * per_op,
        "cypher.execute_ms": total_ms["cypher.execute"] * per_op,
        "cypher.executions": count["cypher.execute"] * per_op,
        "cypher.rows_out": rows * per_op,
        "graph.csr_build_ms": csr_ms * per_op,
        "graph.csr_builds": csr_builds * per_op,
        "graph.statistics_ms": total_ms["graph.statistics"] * per_op,
        "embed.search_ms": total_ms["embed.search"] * per_op,
        "embed.searches": count["embed.search"] * per_op,
        "embed.embed_ms": total_ms["embed.embed"] * per_op,
        "serving.cache_hits": cache_hits * per_op,
        "serving.cache_misses": cache_misses * per_op,
        "serving.admission_wait_ms": total_ms["serving.admission"] * per_op,
    }


def server_overheads(spans: list[list]) -> dict:
    """Client latency minus the in-handler work, per HTTP request (ms)."""
    inner: dict[tuple, float] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None and spans[parent][NAME] == "server.handle":
            if record[NAME] in ("core.ask", "cypher.execute"):
                inner[(record[RID], record[NAME])] = duration_ms(record)
    overheads: dict[str, list[float]] = defaultdict(list)
    for record in spans:
        if record[NAME] == "op.ask" and (record[RID], "core.ask") in inner:
            overheads["ask"].append(duration_ms(record) - inner[(record[RID], "core.ask")])
        elif record[NAME] == "op.cypher" and (record[RID], "cypher.execute") in inner:
            overheads["cypher"].append(
                duration_ms(record) - inner[(record[RID], "cypher.execute")]
            )
    return {
        f"server.{kind}_overhead_ms": sum(values) / len(values) if values else 0.0
        for kind, values in (("ask", overheads["ask"]), ("cypher", overheads["cypher"]))
    }


def top_questions(spans: list[list], n: int = 5) -> list[tuple[str, float, int]]:
    """Questions by total ask time in the window: (question, ms, asks)."""
    total: Counter = Counter()
    asks: Counter = Counter()
    for record in spans:
        if record[NAME] == "op.ask":
            question = record[ATTR].get("question", "?")
            total[question] += duration_ms(record)
            asks[question] += 1
    return [(question, ms, asks[question]) for question, ms in total.most_common(n)]


def self_time_by_name(spans: list[list]) -> Counter:
    """Total self time per span name (ms), the window's cost ledger."""
    ledger: Counter = Counter()
    for record, ms in zip(spans, self_times(spans)):
        ledger[record[NAME]] += ms
    return ledger


def executed_queries(spans: list[list]) -> Counter:
    """How often each Cypher text ran inside the window."""
    return Counter(
        record[ATTR]["query"]
        for record in spans
        if record[NAME] == "cypher.execute" and "query" in record[ATTR]
    )
