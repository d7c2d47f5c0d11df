"""One measured round of a workload, in a fresh process.

Usage: worker.py SPEC_JSON SPAWN_TIME

The parent writes SPEC_JSON and records SPAWN_TIME (`time.monotonic()`,
which on Linux shares its clock with this process) just before starting
this process.  The round generates its corpus files from the seed (set-up),
then calls `corefrank.cli.main(argv)` once per command, exactly as a user
invoking the CLI would, and writes `round.json` (and `spans.jsonl` when
traced) into the spec's work directory.  A fresh process per round keeps
the process-global feature caches of one round away from the next.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time


def _synth_part(synth, seed: int, part: dict):
    """Docs [start:stop] of a seeded synthetic stream.  Without ``entities``
    the stream is one `synth_corpus` for the seed; with it, the stream draws
    one-document corpora from derived seeds and keeps those with exactly
    that many gold entities, so every seed yields the same document shape."""
    low, high = part["mentions"]
    start, stop = part["slice"]
    if "entities" not in part:
        return synth.synth_corpus(stop, seed, mentions_low=low, mentions_high=high)[start:stop]
    docs, i = [], 0
    while len(docs) < stop:
        (doc,) = synth.synth_corpus(1, seed * 1_000_000 + high * 10_000 + i, mentions_low=low, mentions_high=high)
        if len(doc.gold_partition.clusters) == part["entities"]:
            docs.append(doc)
        i += 1
    return docs[start:stop]


def main(spec_path: str, spawned: float) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from corefrank import cli, corpus, synth

    work = spec["work"]
    train_docs = [d for part in spec["train"] for d in _synth_part(synth, spec["seed"], part)]
    test_docs = [d for part in spec["test"] for d in _synth_part(synth, spec["seed"], part)]
    corpus.save_corpus(train_docs, os.path.join(work, "train.jsonl"))
    corpus.save_corpus(test_docs, os.path.join(work, "test.jsonl"))
    del train_docs, test_docs
    setup_s = time.monotonic() - spawned

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    commands = []
    run_start = time.perf_counter()
    for name, argv in spec["commands"]:
        start = time.perf_counter()
        rc = cli.main(argv)
        commands.append({"name": name, "seconds": time.perf_counter() - start, "rc": rc})
    run_s = time.perf_counter() - run_start
    gc.collect()
    retained = sys.getallocatedblocks() - blocks_before

    if tracer is not None:
        tracer.dump(os.path.join(work, "spans.jsonl"))
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "commands": commands,
        "retained_blocks": retained,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(os.path.join(work, "round.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
