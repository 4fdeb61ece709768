"""The benchmark's workloads, their seeded inputs, checks and metrics.

Every workload drives ChatIYP from one closed-loop client (the machine this
was tuned on has two cores): the next operation starts only after the last
one returned.  Work comes in *blocks* of whole rounds of the same
operations, so a run's share of failed operations never depends on its
length.

* ``cyphereval-cold`` -- serial ``ChatIYP.ask()`` over the 381 CypherEval
  questions with the answer cache off; one block is one pass in a seeded
  order.  This is the ledger's unit of truth.
* ``entity-describe`` -- serial "Tell me about <name>" asks, cache off;
  nearly all take the vector route, so the Cypher engine does almost none
  of the work (a pure engine change should not move it).
* ``http-zipf-writes`` -- one HTTP client against ``start_background``
  with the default serving config: Zipf-skewed ``/ask``, gold and probe
  ``/cypher`` reads, and every tenth operation a write through
  ``ChatIYP.run_cypher`` that bumps the graph version (dropping the answer
  cache, the plans and the CSR snapshot).

The two in-process workloads also time read-only Cypher between blocks,
on the instance under test, and writes in a write worker: a set-up probe
that stays up with its own ChatIYP on the same graph and config (see
``setup_probe.py``).
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import spans as tracing
from repro import ChatIYP, ChatIYPConfig
from repro.cypher import CypherError, render_value
from repro.eval import EvaluationHarness, ValidationModel, build_cyphereval
from repro.eval.metrics import GEvalMetric
from repro.llm.judge import extract_facts
from repro.rag.describe import describe_node
from repro.server.app import start_background
from setup_probe import WRITE_PROPERTY

HERE = Path(__file__).resolve().parent

#: Zipf exponent of question popularity on ``http-zipf-writes``.  An
#: assumption, not measured ChatIYP traffic: no query log of the system
#: exists to fit it to.
ZIPF_EXPONENT = 1.0
#: Popularity order of the questions: fixed, so that the seed changes the
#: draws but not which questions are the popular ones.
ZIPF_RANK_SEED = "e2ebench-zipf-ranks"
#: One round of ``http-zipf-writes``: 15 asks, a write every tenth
#: operation, a gold /cypher read right after each write (the read that
#: pays for what the write dropped) and one /cypher probe.  The 15%
#: /cypher share and the layout are assumptions too, not measured traffic.
HTTP_ROUND = (
    "cypher", "ask", "ask", "ask", "ask", "ask", "ask", "ask", "ask", "write",
    "cypher", "ask", "ask", "ask", "ask", "ask", "probe", "ask", "ask", "write",
)
HTTP_BLOCK_ROUNDS = 10
#: Successive blocks shift their Zipf sampling points by this fraction.
_GOLDEN = 0.6180339887498949
#: ``entity-describe`` asks about every node of these labels, in seeded
#: order (on the medium graph: 400 AS, 250 DomainName, 120 Organization,
#: 50 Country, 30 IXP and 30 Facility names).
ENTITY_LABELS = ("AS", "DomainName", "Organization", "Country", "IXP", "Facility")
#: Read-only Cypher reads and worker writes made between the blocks of the
#: two in-process workloads, so they report read and write latency too;
#: spread over the run, they meet the same machine the asks do.
SIDE_READS, SIDE_WRITES = 48, 12
#: ``p99_ms`` windows on ``http-zipf-writes`` hold whole blocks and at
#: least this many asks.
P99_WINDOW = 1000
#: Mixed boolean/integer lists for the DISTINCT and grouping probes.  They
#: do not depend on the seed: each holds ``true`` beside ``1`` or ``false``
#: beside ``0``, so a value key that merges booleans with integers fails
#: every probe, and the failed share is the same in every run.
PROBE_LISTS = (
    [1, True, 1.0, 0, False],
    [True, 1, False, 0, 2, 2.0],
    [0, False, 1.0, True, 1, 0.0],
    [2, True, 1, 1.0, False, 0],
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


def question_p99(values: list[float], keys: list[str]) -> float:
    """Nearest-rank p99, over the questions, of each question's median latency.

    For the whole-pass workloads, where every block asks every question
    once: a question's median over the run's passes is the latency it
    reproducibly takes, so the figure follows the program's slow questions
    and not how often a shared host stalls the client at random (a stall
    must hit one question in most passes to count).
    """
    by_question: dict = {}
    for key, value in zip(keys, values, strict=True):
        by_question.setdefault(key, []).append(value)
    return percentile([statistics.median(v) for v in by_question.values()], 0.99)


def windowed_p99(values: list[float], marks: list[int], window: int = P99_WINDOW) -> float:
    """Median of the p99s of consecutive windows of whole blocks.

    ``marks`` are the sample counts at the end of each block.  A window
    closes at the first block end that gives it ``window`` samples, so it
    keeps at least ten beyond its p99; a shorter remainder joins the last
    window.  The median over windows keeps one burst of a noisy neighbour
    from setting the figure.
    """
    bounds, start = [], 0
    for mark in marks:
        if mark - start >= window:
            bounds.append([start, mark])
            start = mark
    if not bounds:
        bounds = [[0, len(values)]]
    bounds[-1][1] = len(values)
    return statistics.median(percentile(values[lo:hi], 0.99) for lo, hi in bounds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Ledger:
    """Outcomes of the operations of one measured window."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    latency_ms: dict = field(default_factory=lambda: {"ask": [], "cypher": [], "write": []})
    ask_keys: list = field(default_factory=list)  # the question of each ask sample
    blocks: list = field(default_factory=list)  # (ops, wall_s, cpu_s)
    ask_marks: list = field(default_factory=list)  # ask samples at each block end

    @property
    def ops(self) -> int:
        return sum(ops for ops, _, _ in self.blocks)

    def qps(self) -> float:
        return self.ops / sum(wall for _, wall, _ in self.blocks)

    def cpu_ms_per_op(self) -> float:
        return sum(cpu for _, _, cpu in self.blocks) * 1000.0 / self.ops


# ---------------------------------------------------------------------------
# Set-up timing (cold processes)
# ---------------------------------------------------------------------------


def time_setups(graph: str, serve: bool, repeats: int) -> list[dict]:
    """Set ChatIYP up ``repeats`` times, each in a fresh interpreter."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--graph", graph,
             "--cache-size", "256" if serve else "0", "--serve", "1" if serve else "0"],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class WriteWorker:
    """A set-up probe that stays up and times writes on its own ChatIYP."""

    def __init__(self, graph: str, cache_size: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), "--graph", graph,
             "--cache-size", str(cache_size), "--serve", "0", "--writes", "1"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        #: the set-up timing the worker printed, one ``setup_s`` sample
        self.setup = self._reply()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"write worker exited with {self.proc.returncode}")
        return json.loads(line)

    def write(self, asns: list[int], value: int) -> list:
        """``[ms, read-back]`` per AS, or ``[None, error]`` for a failed write."""
        self.proc.stdin.write(json.dumps({"asns": asns, "value": value}) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Shared machinery: blocks, timing, tracing, checks, G-Eval."""

    serve = False
    cache_size = 0

    def __init__(self, seed: int, graph: str, limit: int | None) -> None:
        self.rng = random.Random(seed)
        self.chat = ChatIYP(config=ChatIYPConfig(
            dataset_size=graph, answer_cache_size=self.cache_size))
        self.store = self.chat.store
        self.walk = oracles.RelationshipWalk(self.store)
        self.problems: list[str] = []  # details of the first failed checks
        self.checked: Counter = Counter()  # passed checks by name
        self.refuted: Counter = Counter()  # failed checks by name
        self.answers: dict = {}  # question -> Counter of answers
        self._rid = 0
        self.side_items: list = []  # what between_blocks reads, cyclically
        self._side_cursor = 0
        #: in-process workloads: the write worker (``WriteWorker``).  A
        #: write bumps the graph version; on the instance under test that
        #: would drop plans and the CSR snapshot and change the asks.
        self.worker = None

    # -- helpers -----------------------------------------------------------

    def next_rid(self, kind: str) -> str:
        self._rid += 1
        return f"{kind}-{self._rid}"

    def check(self, name: str, ok: bool, detail: str) -> None:
        if ok:
            self.checked[name] += 1
            return
        self.refuted[name] += 1
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {detail}")

    def record_answer(self, question: str, answer: str) -> None:
        self.answers.setdefault(question, Counter())[answer] += 1

    def warm_up(self, ledger: Ledger) -> None:
        """One untimed block, and every side read once (parsed and planned)."""
        self.block(ledger, tracing.NullTracer())
        for item in self.side_items:
            self.side_read(item, ledger)

    def measure(self, seconds: float, ledger: Ledger, tracer, side: Ledger) -> None:
        """Run whole blocks until ``seconds`` of wall time have passed.

        ``side`` collects the reads and writes made between blocks, which
        count in no block's time.
        """
        start = time.perf_counter()
        while True:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            ops = self.block(ledger, tracer)
            ledger.blocks.append(
                (ops, time.perf_counter() - wall0, time.process_time() - cpu0)
            )
            ledger.ask_marks.append(len(ledger.latency_ms["ask"]))
            self.between_blocks(side)
            if time.perf_counter() - start >= seconds:
                return

    def between_blocks(self, ledger: Ledger) -> None:
        """A slice of the read-only side reads, then writes in the worker."""
        for _ in range(SIDE_READS):
            self._side_cursor += 1
            self.side_read(self.side_items[self._side_cursor % len(self.side_items)], ledger)
        asns = [self.rng.choice(self.asns) for _ in range(SIDE_WRITES)]
        value = self._side_cursor
        for asn, (ms, read) in zip(asns, self.worker.write(asns, value)):
            ledger.attempted["write"] += 1
            if ms is None:
                ledger.failed["write"] += 1
                self.check("write", False, read)
                continue
            ledger.latency_ms["write"].append(ms)
            self.check("write readable", read == [value],
                       f"AS{asn}: wrote {value}, read {read}")

    def side_read(self, item, ledger: Ledger) -> None:
        raise NotImplementedError

    def write(self, ledger: Ledger, tracer, value: int) -> None:
        """One write through ``run_cypher``, then read it back (untimed)."""
        asn = self.rng.choice(self.asns)
        ledger.attempted["write"] += 1
        with tracer.op("write", self.next_rid("write")):
            started = time.perf_counter()
            try:
                self.chat.run_cypher(
                    f"MATCH (a:AS {{asn: $asn}}) SET a.{WRITE_PROPERTY} = $value",
                    asn=asn, value=value,
                )
            except CypherError as exc:
                ledger.failed["write"] += 1
                self.check("write", False, str(exc))
                return
            ledger.latency_ms["write"].append((time.perf_counter() - started) * 1000.0)
        read = self.chat.run_cypher(
            f"MATCH (a:AS {{asn: $asn}}) RETURN a.{WRITE_PROPERTY} AS v", asn=asn
        )
        self.check("write readable", read.values() == [value],
                   f"AS{asn}: wrote {value}, read {read.values()}")

    @property
    def asns(self) -> list[int]:
        return self.chat.dataset.asns

    # -- the parts each workload fills in ----------------------------------

    def block(self, ledger: Ledger, tracer) -> int:
        raise NotImplementedError

    def verify(self) -> None:
        """Workload-specific checks against independent computations."""

    def cypher_latencies(self, ledger: Ledger) -> list[float]:
        """Read-only Cypher latencies behind ``cypher_p50_ms``."""
        return ledger.latency_ms["cypher"]

    def p99_ms(self, ledger: Ledger) -> float:
        """``p99_ms``: the slow questions' reproducible ask latency."""
        return question_p99(ledger.latency_ms["ask"], ledger.ask_keys)

    def references(self) -> dict:
        """question -> (reference answer, gold facts) for G-Eval."""
        return {}

    def geval_mean(self) -> float:
        """G-Eval over the answers served, weighted by how often each was."""
        metric = GEvalMetric(self.chat.llm)
        references = self.references()
        total = weight = 0.0
        for question, answers in self.answers.items():
            reference, facts = references[question]
            for answer, count in answers.items():
                total += metric.score(question, answer, reference, facts).score * count
                weight += count
        return total / weight if weight else 0.0

    def close(self) -> None:
        """Stop whatever the workload started."""
        if self.worker is not None:
            self.worker.close()


class CypherEvalWorkload(Workload):
    """Cold (uncached) asks over the CypherEval questions, one pass a block."""

    def __init__(self, seed: int, graph: str, limit: int | None) -> None:
        super().__init__(seed, graph, limit)
        questions = build_cyphereval(self.chat.dataset)
        if limit is not None:
            questions = random.Random(seed).sample(questions, min(limit, len(questions)))
        self.questions = questions
        self.by_text = {q.question: q for q in questions}
        self.side_items = list(questions)
        self.rng.shuffle(self.side_items)

    def block(self, ledger: Ledger, tracer) -> int:
        order = list(self.questions)
        self.rng.shuffle(order)
        for question in order:
            self.ask(question, ledger, tracer)
        return len(order)

    def ask(self, question, ledger: Ledger, tracer) -> None:
        ledger.attempted["ask"] += 1
        with tracer.op("ask", self.next_rid("ask"), question=question.question):
            started = time.perf_counter()
            try:
                response = self.chat.ask(question.question)
            except Exception as exc:  # an ask must answer; count and go on
                ledger.failed["ask"] += 1
                self.check("ask answered", False, f"{question.question!r}: {exc!r}")
                return
            ledger.latency_ms["ask"].append((time.perf_counter() - started) * 1000.0)
            ledger.ask_keys.append(question.question)
        self.record_answer(question.question, response.answer)
        result = response.result
        value = None
        if result is not None and result.records and len(result.keys) == 1:
            value = result.records[0].values()[0]
        self.check_ask(question, response.cypher, value)

    def check_ask(self, question, cypher, value) -> None:
        """Anchor-dropped peer counts and gold-equal translations vs walks."""
        if cypher and oracles.ANCHOR_DROPPED_PEERS.match(cypher):
            expected = self.walk.peered_as_count
            self.check("anchor-dropped peer count", _as_int(value) == expected,
                       f"{question.question!r} answered {value}, walk says {expected}")
        elif (question.template in oracles.WALK_FAMILIES and cypher == question.gold_cypher
              and value is not None):
            expected = self.walk.family_answer(question.template, question.entities)
            self.check("gold-equal translation", _as_int(value) == expected,
                       f"{question.question!r} answered {value}, walk says {expected}")

    def side_read(self, question, ledger: Ledger) -> None:
        """Engine-only replay of one gold query."""
        ledger.attempted["cypher"] += 1
        started = time.perf_counter()
        try:
            result = self.chat.run_cypher(question.gold_cypher)
        except CypherError as exc:
            ledger.failed["cypher"] += 1
            self.check("gold query", False, f"{question.qid}: {exc}")
            return
        ledger.latency_ms["cypher"].append((time.perf_counter() - started) * 1000.0)
        if question.template in oracles.WALK_FAMILIES:
            expected = self.walk.family_answer(question.template, question.entities)
            got = result.records[0].values()[0] if result.records else None
            self.check("gold family vs walk", _as_int(got) == expected,
                       f"{question.qid}: engine {got}, walk {expected}")

    def verify(self) -> None:
        for question, answers in self.answers.items():
            self.check("same answer every pass", len(answers) == 1,
                       f"{question!r} got {len(answers)} different answers")

    def references(self) -> dict:
        validation = ValidationModel(self.store, seed=EvaluationHarness.REFERENCE_SEED)
        refs = {}
        for text in self.answers:
            reference = validation.reference_for(self.by_text[text])
            refs[text] = (reference.answer, reference.facts)
        return refs


class EntityDescribeWorkload(Workload):
    """"Tell me about <name>" asks over seeded entity names, cache off."""

    def __init__(self, seed: int, graph: str, limit: int | None) -> None:
        super().__init__(seed, graph, limit)
        self.pool: list[tuple[str, int]] = []  # (question, node id)
        self.label_of: dict[int, str] = {}
        for label in ENTITY_LABELS:
            for node in self.store.nodes_by_label(label):
                self.pool.append((f"Tell me about {node.properties['name']}", node.node_id))
                self.label_of[node.node_id] = label
        if limit is not None:
            self.pool = random.Random(seed).sample(self.pool, min(limit, len(self.pool)))
        self.node_of = dict(self.pool)
        self.side_items = list(self.pool)
        self.rng.shuffle(self.side_items)

    def block(self, ledger: Ledger, tracer) -> int:
        order = list(self.pool)
        self.rng.shuffle(order)
        for question, _ in order:
            ledger.attempted["ask"] += 1
            with tracer.op("ask", self.next_rid("ask"), question=question):
                started = time.perf_counter()
                try:
                    response = self.chat.ask(question)
                except Exception as exc:  # an ask must answer; count and go on
                    ledger.failed["ask"] += 1
                    self.check("ask answered", False, f"{question!r}: {exc!r}")
                    continue
                ledger.latency_ms["ask"].append((time.perf_counter() - started) * 1000.0)
                ledger.ask_keys.append(question)
            self.check("non-empty answer", bool(response.answer.strip()), question)
            self.record_answer(question, response.answer)
        return len(order)

    def side_read(self, item, ledger: Ledger) -> None:
        """Point lookup of one entity asked about, checked against a scan."""
        question, node_id = item
        node, label = self.store.node(node_id), self.label_of[node_id]
        ledger.attempted["cypher"] += 1
        started = time.perf_counter()
        try:
            result = self.chat.run_cypher(
                f"MATCH (n:{label} {{name: $name}}) RETURN id(n) AS id",
                name=node.properties["name"],
            )
        except CypherError as exc:
            ledger.failed["cypher"] += 1
            self.check("entity lookup", False, f"{question!r}: {exc}")
            return
        ledger.latency_ms["cypher"].append((time.perf_counter() - started) * 1000.0)
        expected = [other.node_id for other in self.store.nodes_by_label(label)
                    if other.properties.get("name") == node.properties["name"]]
        self.check("entity lookup vs scan", sorted(result.values()) == expected,
                   f"{question!r}: engine {result.values()}, scan {expected}")

    def verify(self) -> None:
        retriever = self.chat.pipeline.vector
        vectors = retriever.vector_store
        entries = vectors.entries()
        matrix = np.stack([entry.vector for entry in entries])
        ids = [entry.entry_id for entry in entries]
        top_k, min_score = retriever.top_k * retriever._OVERSAMPLE, 0.02
        for question, _ in self.pool:
            hits = [(hit.entry_id, hit.score)
                    for hit in vectors.search(question, top_k=top_k, min_score=min_score)]
            expected = oracles.ranked_hits(
                matrix, ids, vectors.embedding.embed(question), top_k, min_score
            )
            same = [h for h, _ in hits] == [e for e, _ in expected] and np.allclose(
                [s for _, s in hits], [s for _, s in expected], rtol=0, atol=1e-12
            )
            self.check("vector search vs full sort", same, question)

    def references(self) -> dict:
        refs = {}
        for question in self.answers:
            text = describe_node(self.store, self.store.node(self.node_of[question]))
            refs[question] = (text, extract_facts(text))
        return refs


class HttpZipfWritesWorkload(CypherEvalWorkload):
    """Zipf-skewed asks, gold and probe reads and writes over loopback HTTP."""

    serve = True
    cache_size = 256

    def __init__(self, seed: int, graph: str, limit: int | None) -> None:
        super().__init__(seed, graph, limit)
        self.side_items = []  # reads and writes are part of the mix here
        ranked = list(self.questions)
        random.Random(ZIPF_RANK_SEED).shuffle(ranked)
        self.ranked = ranked
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
        total = sum(weights)
        self.cumulative = list(np.cumsum(weights) / total)
        self.offset = self.rng.random()
        # /cypher reads: the gold queries of the walk-checked families.
        self.gold_order = [q for q in self.questions if q.template in oracles.WALK_FAMILIES]
        self.rng.shuffle(self.gold_order)
        # Expected rendered rows of every gold query, computed before any
        # write: writes set a property no gold query reads.
        self.gold_rows = {
            q.gold_cypher: _rendered(self.chat.run_cypher(q.gold_cypher)) for q in self.questions
        }
        self.server, self.port = start_background(self.chat)
        self.rounds = 0
        self.golds = 0
        self.cache_hits = 0
        self.probe_failures = 0
        self.gold_ms: list[float] = []

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        super().close()

    def between_blocks(self, ledger: Ledger) -> None:
        """Nothing: reads and writes are part of the measured mix here."""

    def post(self, path: str, payload: dict, rid: str) -> tuple[int, dict]:
        body = json.dumps(payload)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("POST", path, body,
                         {"Content-Type": "application/json", "X-Request-Id": rid})
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        return response.status, json.loads(data)

    def block_questions(self) -> list:
        """The asks of one block: a systematic sample of the Zipf law.

        Sampling points ``(j + offset) / n`` give every popular question its
        expected number of asks in every block (the offset moves on each
        block, so the tail takes turns); the seed sets the first offset and
        the order.  Independent draws would let the number of asks of the
        few slow questions swing the block's time far more than the program.
        """
        count = HTTP_BLOCK_ROUNDS * HTTP_ROUND.count("ask")
        self.offset = (self.offset + _GOLDEN) % 1.0
        picks = [
            self.ranked[min(bisect.bisect_left(self.cumulative, (j + self.offset) / count),
                            len(self.ranked) - 1)]
            for j in range(count)
        ]
        self.rng.shuffle(picks)
        return picks

    def block(self, ledger: Ledger, tracer) -> int:
        asks = iter(self.block_questions())
        ops = 0
        for _ in range(HTTP_BLOCK_ROUNDS):
            self.rounds += 1
            for slot in HTTP_ROUND:
                ops += 1
                if slot == "ask":
                    self.http_ask(next(asks), ledger, tracer)
                elif slot == "cypher":
                    self.golds += 1
                    question = self.gold_order[self.golds % len(self.gold_order)]
                    self.http_gold(question, ledger, tracer)
                elif slot == "probe":
                    self.http_probe(ledger, tracer)
                else:
                    self.write(ledger, tracer, self.rounds)
        return ops

    def timed_post(self, kind: str, path: str, payload: dict, ledger: Ledger,
                   tracer, **attr) -> tuple[int, dict, float]:
        ledger.attempted[kind] += 1
        rid = self.next_rid(kind)
        with tracer.op(kind, rid, **attr):
            started = time.perf_counter()
            try:
                status, body = self.post(path, payload, rid)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, body = 0, {"error": repr(exc)}
            elapsed = (time.perf_counter() - started) * 1000.0
        return status, body, elapsed

    def http_ask(self, question, ledger: Ledger, tracer) -> None:
        status, body, ms = self.timed_post(
            "ask", "/ask", {"question": question.question}, ledger, tracer,
            question=question.question,
        )
        self.check("/ask answers 200", status == 200, f"{question.question!r}: {status}")
        if status != 200:
            ledger.failed["ask"] += 1
            return
        ledger.latency_ms["ask"].append(ms)
        ledger.ask_keys.append(question.question)
        self.cache_hits += bool(body["diagnostics"]["cache_hit"])
        self.record_answer(question.question, body["answer"])
        rows = body.get("rows") or []
        value = next(iter(rows[0].values())) if len(rows) == 1 and len(rows[0]) == 1 else None
        self.check_ask(question, body.get("cypher"), value)

    def http_gold(self, question, ledger: Ledger, tracer) -> None:
        status, body, ms = self.timed_post(
            "cypher", "/cypher", {"query": question.gold_cypher}, ledger, tracer
        )
        if status != 200:
            ledger.failed["cypher"] += 1
            self.check("/cypher gold answers 200", False, f"{question.qid}: {status}")
            return
        ledger.latency_ms["cypher"].append(ms)
        self.gold_ms.append(ms)
        self.check("/cypher gold rows", body["rows"] == self.gold_rows[question.gold_cypher][:200],
                   question.qid)
        if question.template in oracles.WALK_FAMILIES:
            expected = self.walk.family_answer(question.template, question.entities)
            got = next(iter(body["rows"][0].values())) if body["rows"] else None
            self.check("gold family vs walk", _as_int(got) == expected,
                       f"{question.qid}: server {got}, walk {expected}")

    def http_probe(self, ledger: Ledger, tracer) -> None:
        """DISTINCT or grouped count over a mixed boolean/integer list."""
        values = PROBE_LISTS[self.rounds % len(PROBE_LISTS)]
        literal = "[" + ", ".join(_literal(v) for v in values) + "]"
        grouped = self.rounds % 2 == 0
        query = (f"UNWIND {literal} AS x RETURN x AS v, count(*) AS n" if grouped
                 else f"UNWIND {literal} AS x RETURN DISTINCT x AS v")
        status, body, ms = self.timed_post("cypher", "/cypher", {"query": query}, ledger, tracer)
        if status == 200:
            ledger.latency_ms["cypher"].append(ms)
            if oracles.probe_rows_ok(values, body["rows"], grouped):
                return
        # A wrong answer is a failed operation, not a crash: the program's
        # value key merges true with 1 (the fault this probe tracks).
        ledger.failed["cypher"] += 1
        self.probe_failures += 1

    def cypher_latencies(self, ledger: Ledger) -> list[float]:
        return self.gold_ms

    def p99_ms(self, ledger: Ledger) -> float:
        """``p99_ms`` over the asks themselves: each block samples the Zipf
        law afresh, so the rare questions are not asked in every block; the
        tail is slow questions missing the answer cache, which every write
        drops."""
        return windowed_p99(ledger.latency_ms["ask"], ledger.ask_marks)


def _as_int(value):
    try:
        return int(float(value))
    except (TypeError, ValueError):
        return value


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _rendered(result) -> list[dict]:
    return [{key: render_value(value) for key, value in record.to_dict().items()}
            for record in result.records]


CLASSES = {
    "cyphereval-cold": CypherEvalWorkload,
    "entity-describe": EntityDescribeWorkload,
    "http-zipf-writes": HttpZipfWritesWorkload,
}
