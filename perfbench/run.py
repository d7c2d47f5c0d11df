"""corefrank benchmark: seeded synthetic workloads driven through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload short-docs --seed 1 --seconds 30 --trace 0

Each round runs in a fresh process (`worker.py`): it generates the
workload's JSONL files from the seed, then calls `corefrank.cli.main`
for `train`, `resolve` / `ilp-resolve` and `score`, as a user would.
Rounds repeat until `--seconds` have passed; each metric aggregates the
rounds (see `e2e_metrics`).  After every round this process checks the
outputs: one response record per corpus document, each partition covering
exactly that document's mention ids, and the F1 values `score` wrote equal
to a recomputation with `score.corpus_stats`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced rounds and prints the per-layer metrics from the
traced ones (see spans.py), plus the tracing overhead.  The last line of
standard output is one JSON object; a results file with the environment
and the raw rounds goes to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import LAYER_UNITS, load_spans, round_layers, run_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
ROUND_TIMEOUT_S = 150

# A split is a list of parts, each a slice of a seeded document stream
# (see worker._synth_part).  short-docs is the criterion-7 corpus with its
# held-out set enlarged; long-docs fixes the entity count as well as the
# mention count, so the work per document does not vary with the seed.
SHORT_TRAIN = {"mentions": [6, 12], "slice": [0, 160]}
SHORT_TEST = {"mentions": [6, 12], "slice": [160, 460]}
LONG_TRAIN = [{"mentions": [40, 40], "entities": 15, "slice": [0, 2]},
              {"mentions": [80, 80], "entities": 30, "slice": [0, 1]}]
LONG_TEST = [{"mentions": [40, 40], "entities": 15, "slice": [2, 8]},
             {"mentions": [80, 80], "entities": 30, "slice": [1, 7]}]

CR = ["--family", "cr", "--features", "combined", "--loss", "hinge", "--anaph", "joint"]
MP = ["--family", "mp", "--features", "conventional", "--loss", "log", "--linking", "closest"]

# The last decoder of a workload is the one its decode and F1 metrics
# describe; earlier ones run, are scored and checked, and count in run_s.
WORKLOADS = {
    "short-docs": {"train": [SHORT_TRAIN], "test": [SHORT_TEST], "model": CR, "decoders": ["resolve"]},
    "long-docs": {"train": LONG_TRAIN, "test": LONG_TEST, "model": CR, "decoders": ["resolve"]},
    "pairwise-ilp": {
        "train": [SHORT_TRAIN], "test": LONG_TEST, "model": MP, "decoders": ["resolve", "ilp-resolve"],
    },
}

E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "decode_docs_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "retained_blocks": "count",
    "b3_f1": "ratio",
    "ceaf_f1": "ratio",
    "ok_share": "ratio",
}


def max_vars(test_parts: list[dict]) -> int:
    """Variables of the largest program: n(n-1)/2 links plus n anaphoricity
    variables.  The CLI default of 40 rejects every document of more than
    8 mentions, so the benchmark passes the size its documents need."""
    n = max(part["mentions"][1] for part in test_parts)
    return n * (n + 1) // 2


def commands(workload: dict, seed: int, work: Path) -> list[tuple[str, list[str]]]:
    train, test, model = str(work / "train.jsonl"), str(work / "test.jsonl"), str(work / "model.json")
    cmds = [("train", ["train", train, *workload["model"], "--seed", str(seed), "--out", model])]
    for decoder in workload["decoders"]:
        extra = ["--max-vars", str(max_vars(workload["test"]))] if decoder == "ilp-resolve" else []
        cmds.append((decoder, [decoder, test, "--model", model, *extra, "--out", str(work / f"{decoder}.jsonl")]))
    for decoder in workload["decoders"]:
        cmds.append((f"score:{decoder}", ["score", test, str(work / f"{decoder}.jsonl"),
                                          "--out", str(work / f"score-{decoder}.json")]))
    return cmds


def check_outputs(work: Path, decoders: list[str]) -> tuple[int, list[str], dict]:
    """Check every decoder's response file and score file.

    Returns the number of document responses checked, one message per
    failed operation (a document response or a score file), and the F1
    values per decoder.
    """
    from corefrank import corpus, score

    docs = corpus.load_corpus(str(work / "test.jsonl"))
    keys = {d.doc_id: corpus.key_partition_doc(d) for d in docs}
    failures: list[str] = []
    quality = {}
    for decoder in decoders:
        try:
            with open(work / f"{decoder}.jsonl", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
        except (OSError, ValueError) as exc:
            failures += [f"{decoder}: doc {d}: no response ({exc})" for d in keys]
            continue
        records = [rec if isinstance(rec, dict) else {"doc_id": None} for rec in records]
        seen = Counter(rec.get("doc_id") for rec in records)
        bad = {doc_id: f"{seen[doc_id]} response records" for doc_id in keys if seen[doc_id] != 1}
        bad.update((doc_id, "not in the corpus") for doc_id in seen.keys() - keys.keys())
        pairs = []
        for rec in records:
            doc_id = rec.get("doc_id")
            if doc_id not in keys:
                continue
            try:
                response = corpus.partition_doc_from_record(rec)
                response.partition.validate(keys[doc_id].spans.keys(), doc_id=doc_id)
            except (corpus.CorpusError, TypeError) as exc:
                bad.setdefault(doc_id, str(exc))
                continue
            pairs.append((keys[doc_id], response))
        failures += [f"{decoder}: doc {doc_id}: {msg}" for doc_id, msg in bad.items()]
        try:
            with open(work / f"score-{decoder}.json", encoding="utf-8") as fh:
                written = json.load(fh)
            written = {"b3_f1": written["bcubed"]["f1"], "ceaf_f1": written["ceaf"]["f1"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"score:{decoder}: unreadable score file ({exc})")
            continue
        b3, ceaf = score.corpus_stats(pairs)
        expected = {"b3_f1": b3.report().f1, "ceaf_f1": ceaf.report().f1}
        if written != expected:
            failures.append(f"score:{decoder}: wrote {written}, recomputed {expected}")
        quality[decoder] = written
    return len(docs) * len(decoders), failures, quality


def run_round(name: str, seed: int, traced: bool, index: int, work: Path, workload: dict) -> dict:
    """Run one round in a fresh process and check its outputs."""
    for stale in work.iterdir():  # no output of an earlier round may pass the check
        stale.unlink()
    cmds = commands(workload, seed, work)
    spec = {
        "src": str(SRC), "work": str(work), "seed": seed, "trace": traced,
        "run_id": f"{name}-s{seed}-r{index}", "train": workload["train"], "test": workload["test"],
        "commands": cmds,
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(spawned)],
            stdout=log, stderr=subprocess.STDOUT, env=env, timeout=ROUND_TIMEOUT_S,
        )
    if proc.returncode != 0:
        log_tail = (work / "worker.log").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"round {index} exited with {proc.returncode}:\n{log_tail}")
    result = json.loads((work / "round.json").read_text(encoding="utf-8"))
    failures = [f"{c['name']}: exit code {c['rc']}" for c in result["commands"] if c["rc"] != 0]
    docs_checked, output_failures, quality = check_outputs(work, workload["decoders"])
    result.update(
        traced=traced,
        attempted=len(cmds) + docs_checked,
        failures=failures + output_failures,
        quality=quality,
        spans=str(work / "spans.jsonl") if traced else None,
    )
    return result


def e2e_metrics(rounds: list[dict], workload: dict, test_docs: int) -> dict[str, float]:
    """Set-up and the sizes are medians over rounds.  The command times are
    means: the host's speed switches between fast and slow phases every few
    seconds, and the median of a handful of rounds jumps between the two
    modes where the mean moves smoothly."""
    headline = workload["decoders"][-1]

    def seconds(r, name):
        return next(c["seconds"] for c in r["commands"] if c["name"] == name)

    def med(values):
        return statistics.median(list(values))

    def mean(values):
        return statistics.fmean(list(values))

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    return {
        "setup_s": med(r["setup_s"] for r in rounds),
        "train_s": mean(seconds(r, "train") for r in rounds),
        "decode_docs_per_s": test_docs / mean(seconds(r, headline) for r in rounds),
        "run_s": mean(r["run_s"] for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        "retained_blocks": med(r["retained_blocks"] for r in rounds),
        "b3_f1": med(r["quality"].get(headline, {}).get("b3_f1", 0.0) for r in rounds),
        "ceaf_f1": med(r["quality"].get(headline, {}).get("ceaf_f1", 0.0) for r in rounds),
        "ok_share": 1.0 - failed / attempted,
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
    }


def shape(work: Path) -> dict:
    from corefrank import corpus

    out = {}
    for split in ("train", "test"):
        docs = corpus.load_corpus(str(work / f"{split}.jsonl"))
        out[split] = {
            "docs": len(docs),
            "mentions_per_doc": dict(sorted(Counter(len(d.mentions) for d in docs).items())),
            "entities_per_doc": dict(sorted(Counter(len(d.gold_partition.clusters) for d in docs).items())),
        }
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            workload: dict | None = None, work_root: Path = WORK_ROOT) -> dict:
    """Run rounds of one workload for ``seconds`` and summarise them."""
    workload = workload or WORKLOADS[name]
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rounds, layer_rounds = [], []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        r = run_round(name, seed, traced, len(rounds), work, workload)
        if traced:
            layer_rounds.append(round_layers(load_spans(r["spans"])))
        rounds.append(r)
        elapsed = time.monotonic() - start
        # stop before a round that would end after ``seconds``
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds and (not trace or len(rounds) >= 2):
            break
    plain = [r for r in rounds if not r["traced"]]
    shp = shape(work)
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload_spec": workload,
        "shape": shp,
        "environment": environment(),
        "attempted": sum(r["attempted"] for r in rounds),
        "failures": [f"round {i}: {msg}" for i, r in enumerate(rounds) for msg in r["failures"]],
        "end_to_end": e2e_metrics(plain, workload, shp["test"]["docs"]),
        "rounds": rounds,
    }
    if trace:
        # each traced round against the untraced round just before it, so
        # both halves of a pair see the machine in the same state
        overhead = statistics.median(
            r["run_s"] - rounds[i - 1]["run_s"] for i, r in enumerate(rounds) if r["traced"])
        summary["per_layer"] = run_layers(layer_rounds, overhead)
    return summary


def result_line(summary: dict, trace: bool) -> dict:
    """The benchmark's last output line: per-layer metrics when traced,
    end-to-end metrics otherwise."""
    if trace:
        metrics = {n: {"value": summary["per_layer"][n], "unit": u} for n, u in LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": summary["end_to_end"][n], "unit": u} for n, u in E2E_UNITS.items()}
    failed = len(summary["failures"])
    return {"correct": failed == 0, "attempted": summary["attempted"], "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corefrank" / "__init__.py").is_file():
        print(f"error: no corefrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    for msg in summary["failures"]:
        print(f"FAILED {args.workload} seed {args.seed} {msg}")
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
