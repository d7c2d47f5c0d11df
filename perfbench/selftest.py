"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload once untraced and once traced on a handful of
documents, and asserts that
- every end-to-end metric of BENCHMARK.json is emitted with its unit,
- the traced run emits every per-layer metric of BENCHMARK.json,
- the correctness check passes on the real outputs and fails, naming the
  document, on a corrupted response file and on a tampered score file.
Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import sys

import run

TINY_SHORT_TRAIN = [{"mentions": [6, 12], "slice": [0, 12]}]
TINY_LONG_TEST = [{"mentions": [40, 40], "entities": 15, "slice": [1, 2]},
                  {"mentions": [80, 80], "entities": 30, "slice": [0, 1]}]
TINY = {
    "short-docs": dict(run.WORKLOADS["short-docs"], train=TINY_SHORT_TRAIN,
                       test=[{"mentions": [6, 12], "slice": [12, 18]}]),
    "long-docs": dict(run.WORKLOADS["long-docs"], train=[{"mentions": [40, 40], "entities": 15, "slice": [0, 1]}],
                      test=TINY_LONG_TEST),
    "pairwise-ilp": dict(run.WORKLOADS["pairwise-ilp"], train=TINY_SHORT_TRAIN, test=TINY_LONG_TEST),
}


def expect_units(emitted: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in emitted["metrics"].items()}
    assert got == want, f"{what}: emitted {got}, BENCHMARK.json declares {want}"
    for name, m in emitted["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def expect_check_fails(work, decoders, path, corrupted: str, needle: str) -> None:
    """Check outputs with ``path`` replaced by ``corrupted``, then restore it."""
    original = path.read_text(encoding="utf-8")
    path.write_text(corrupted, encoding="utf-8")
    try:
        _, failures, _ = run.check_outputs(work, decoders)
    finally:
        path.write_text(original, encoding="utf-8")
    assert any(needle in msg for msg in failures), f"no failure naming {needle!r}: {failures}"


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    work_root = run.WORK_ROOT / "selftest"
    for name, workload in TINY.items():
        summary = run.measure(name, 3, 0, True, workload, work_root)
        assert not summary["failures"], f"{name}: {summary['failures']}"
        expect_units(run.result_line(summary, False), declared["end_to_end"], f"{name} untraced")
        expect_units(run.result_line(summary, True), declared["per_layer"], f"{name} traced")

        work, decoders = work_root / name, workload["decoders"]
        response = work / f"{decoders[-1]}.jsonl"
        records = [json.loads(line) for line in response.read_text(encoding="utf-8").splitlines()]
        victim = records[-1]
        victim["clusters"][0] = victim["clusters"][0][1:]
        corrupted = "".join(json.dumps(r) + "\n" for r in records)
        expect_check_fails(work, decoders, response, corrupted, f"doc {victim['doc_id']}")

        score_path = work / f"score-{decoders[-1]}.json"
        report = json.loads(score_path.read_text(encoding="utf-8"))
        report["bcubed"]["f1"] += 1e-9
        expect_check_fails(work, decoders, score_path, json.dumps(report), f"score:{decoders[-1]}")
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
