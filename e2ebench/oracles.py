"""Independent computations the benchmark checks ChatIYP's outputs against.

None of these go through the Cypher engine, the planner or the vector
store's ranking code: counts come from walks over
``GraphStore.all_relationships()``, search rankings from a full numpy sort,
and DISTINCT / grouping from a value key that keeps ``true`` apart from
``1`` (and treats ``1`` and ``1.0`` as one value), as Cypher specifies.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict

import numpy as np

#: The anchor-dropped translation of "how many peers does AS<n> have":
#: the simulated LLM's typical error on peer questions.
ANCHOR_DROPPED_PEERS = re.compile(
    r"^MATCH \(:AS\)-\[:PEERS_WITH\]-\(b:AS\) RETURN count\(DISTINCT b\)"
)

#: CypherEval templates whose gold answer is a single count that a walk
#: over the relationships reproduces.
WALK_FAMILIES = (
    "prefix_count_of_as",
    "as_count_in_country",
    "member_count_of_ixp",
    "peer_count_of_as",
)


class RelationshipWalk:
    """Counts computed by walking every relationship of the store once."""

    def __init__(self, store) -> None:
        labels = {node.node_id: node.labels for node in store.all_nodes()}
        props = {node.node_id: node.properties for node in store.all_nodes()}
        self._originated: Counter = Counter()  # asn -> ORIGINATE edges to Prefix
        self._in_country: Counter = Counter()  # country_code -> AS COUNTRY edges
        self._members: Counter = Counter()  # ixp name -> AS MEMBER_OF edges
        self._peers: dict[int, set[int]] = defaultdict(set)  # AS id -> AS ids
        self._as_node = {  # asn -> node id
            props[node_id].get("asn"): node_id
            for node_id, node_labels in labels.items() if "AS" in node_labels
        }
        for rel in store.all_relationships():
            start, end = rel.start_id, rel.end_id
            start_as = "AS" in labels[start]
            if rel.rel_type == "ORIGINATE" and start_as and "Prefix" in labels[end]:
                self._originated[props[start].get("asn")] += 1
            elif rel.rel_type == "COUNTRY" and start_as and "Country" in labels[end]:
                self._in_country[props[end].get("country_code")] += 1
            elif rel.rel_type == "MEMBER_OF" and start_as and "IXP" in labels[end]:
                self._members[props[end].get("name")] += 1
            elif rel.rel_type == "PEERS_WITH" and start_as and "AS" in labels[end]:
                self._peers[start].add(end)
                self._peers[end].add(start)
        #: AS nodes with at least one PEERS_WITH relationship to an AS
        self.peered_as_count = sum(1 for neighbours in self._peers.values() if neighbours)

    def family_answer(self, template: str, entities: dict) -> int:
        """The gold count of one :data:`WALK_FAMILIES` question."""
        if template == "prefix_count_of_as":
            return self._originated[entities["asn"]]
        if template == "as_count_in_country":
            return self._in_country[entities["country_code"]]
        if template == "member_count_of_ixp":
            return self._members[entities["ixp"]]
        if template == "peer_count_of_as":
            return len(self._peers.get(self._as_node.get(entities["asn"]), ()))
        raise KeyError(template)


def ranked_hits(matrix: np.ndarray, ids: list[str], query: np.ndarray,
                top_k: int, min_score: float) -> list[tuple[str, float]]:
    """Top hits of a full, stable, descending sort of ``matrix @ query``.

    The reference for ``VectorStore.search``: every score is computed, the
    whole array is sorted (ties keep insertion order) and the first
    ``top_k`` entries above ``min_score`` are kept.
    """
    scores = matrix @ query
    order = np.argsort(-scores, kind="stable")
    hits = []
    for index in order:
        score = float(scores[index])
        if score <= min_score:
            break
        hits.append((ids[int(index)], score))
        if len(hits) == top_k:
            break
    return hits


def value_key(value) -> tuple:
    """Cypher DISTINCT equivalence: booleans are not numbers, 1 == 1.0."""
    if isinstance(value, bool):
        return ("boolean", value)
    if isinstance(value, (int, float)):
        return ("number", float(value))
    return ("other", repr(value))


def parse_rendered(text: str):
    """Invert ``render_value`` for the scalars the probes return."""
    if text in ("true", "false"):
        return text == "true"
    return float(text) if "." in text else int(text)


def distinct_keys(values) -> Counter:
    """Multiset of value keys ``RETURN DISTINCT x`` must produce."""
    return Counter({value_key(value): 1 for value in values})


def grouped_counts(values) -> dict:
    """``RETURN x, count(*)`` grouped under DISTINCT equivalence."""
    return dict(Counter(value_key(value) for value in values))


def probe_rows_ok(values, rows: list[dict], grouped: bool) -> bool:
    """Whether ``/cypher`` rows answer a probe over ``values`` correctly.

    ``rows`` are the rendered rows of ``RETURN DISTINCT x AS v`` or, when
    ``grouped``, of ``RETURN x AS v, count(*) AS n``.
    """
    keys = [value_key(parse_rendered(row["v"])) for row in rows]
    if not grouped:
        return Counter(keys) == distinct_keys(values)
    counts = {key: int(row["n"]) for key, row in zip(keys, rows)}
    return len(counts) == len(rows) and counts == grouped_counts(values)
