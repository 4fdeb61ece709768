"""Time one cold set-up of ChatIYP in a fresh interpreter.

Prints one JSON line: seconds spent importing the package, generating the
IYP graph (``load_dataset``), building ``ChatIYP()`` and, with ``--serve 1``,
starting the HTTP server (``start_background``).  ``run.py`` runs this
several times per run and reports the median total as ``setup_s``.

With ``--writes 1`` the process then stays up as a write worker: each line
on standard input is a JSON object ``{"asns": [...], "value": v}``; it sets
the write property of each AS through ``ChatIYP.run_cypher``, reads it back
untimed and answers one JSON line ``[[ms, read-back or error], ...]``.  It
exits when standard input closes.  The in-process workloads time their
writes here, so a write never drops the plans or CSR snapshot of the
instance under test, and the worker's graph is not in the benchmark
process's memory.

    python3 e2ebench/setup_probe.py --graph medium --cache-size 0 --serve 0
"""

import argparse
import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The property every write sets; no question, gold query or description
#: reads it, so writes change no correct answer.
WRITE_PROPERTY = "e2e_touch"


def serve_writes(chat) -> None:
    from repro.cypher import CypherError

    for line in sys.stdin:
        request = json.loads(line)
        value = request["value"]
        replies = []
        for asn in request["asns"]:
            begun = time.perf_counter()
            try:
                chat.run_cypher(f"MATCH (a:AS {{asn: $asn}}) SET a.{WRITE_PROPERTY} = $value",
                                asn=asn, value=value)
            except CypherError as exc:
                replies.append([None, str(exc)])
                continue
            ms = (time.perf_counter() - begun) * 1000.0
            read = chat.run_cypher(f"MATCH (a:AS {{asn: $asn}}) RETURN a.{WRITE_PROPERTY} AS v",
                                   asn=asn)
            replies.append([ms, read.values()])
        print(json.dumps(replies), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", default="medium")
    parser.add_argument("--cache-size", type=int, default=0)
    parser.add_argument("--serve", type=int, default=0)
    parser.add_argument("--writes", type=int, default=0)
    args = parser.parse_args()

    from repro import ChatIYP, ChatIYPConfig
    from repro.iyp import load_dataset
    from repro.server.app import start_background

    imported = time.perf_counter()
    config = ChatIYPConfig(dataset_size=args.graph, answer_cache_size=args.cache_size)
    load_dataset(config.dataset_size, config.dataset_seed)
    generated = time.perf_counter()
    chat = ChatIYP(config=config)  # reuses the dataset load_dataset cached
    initialised = time.perf_counter()
    server = None
    if args.serve:
        server, _ = start_background(chat)
    served = time.perf_counter()
    if server is not None:
        server.shutdown()
        server.server_close()
    print(json.dumps({
        "import_s": imported - started,
        "generate_s": generated - imported,
        "init_s": initialised - generated,
        "start_s": served - initialised,
        "total_s": served - started,
    }), flush=True)
    if args.writes:
        serve_writes(chat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
