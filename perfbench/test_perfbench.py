"""Self-tests of the benchmark; run with `python3 -m pytest perfbench`.

They use smoke-sized inputs and take well under a minute. They are not
part of the package's own test suite.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verdict  # noqa: E402


def test_smoke_mode_checks_signatures_and_invariants():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    stored = json.loads((HERE / "signatures.json").read_text())["smoke"]
    assert result["signatures"] == stored
    assert result["signatures"]["manifest"] == result["signatures"]["manifest-q"]


def test_fresh_process_repeats_the_cold_cache_hit_ratio():
    corpus.write_manifest_inputs("smoke")
    for workload in ("stress", "manifest"):
        first, second = (run.repetition(workload, 0, "smoke", trace=False)
                         for _ in range(2))
        assert 0 < first["h_vector_hit_ratio"] < 1
        assert second["h_vector_hit_ratio"] == first["h_vector_hit_ratio"]
        assert second["signature"] == first["signature"]


def test_traced_repetition_reports_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rep = run.repetition("stress", 0, "smoke", trace=True)
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    assert names <= rep["layers"].keys()
    assert rep["layers"]["linalg.subspace_intersection.calls"] == 0
    assert rep["layers"]["polynomials.apply_operator.calls"] > 0
    assert rep["layers"]["modules.sample_generic_quotient.accept_ratio"] > 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = tracer._wrap("bounds.tighten_bound", inner)
    wrapped_outer = tracer._wrap("bounds.chained_bound", outer)
    start = time.perf_counter()
    wrapped_outer()
    duration = time.perf_counter() - start
    calls_in, self_in, _ = tracer.stats["bounds.tighten_bound"]
    calls_out, self_out, _ = tracer.stats["bounds.chained_bound"]
    assert calls_in == calls_out == 1
    assert self_in >= 0.02 and self_out >= 0.01
    assert abs(self_in + self_out - duration) < 0.005


def test_o_sequence_oracle_agrees_with_the_library():
    from levelalg.combinatorics import is_o_sequence

    rng = random.Random(7)
    for _ in range(3000):
        h = [1] + [rng.randint(0, 12) for _ in range(rng.randint(0, 6))]
        assert verdict.o_sequence_ok(h) == is_o_sequence(h).ok, h


def test_signature_ignores_prime_and_wall_time():
    op = {"error": None, "exit": 0, "output": {
        "summary": {"instances": 1, "wallTime": 0.5},
        "reports": [{"h": [1, 2], "prime": 7}]}}
    other = json.loads(json.dumps(op))
    other["output"]["summary"]["wallTime"] = 9.0
    other["output"]["reports"][0]["prime"] = None
    assert verdict.signature([op]) == verdict.signature([other])
    other["output"]["reports"][0]["h"] = [1, 3]
    assert verdict.signature([op]) != verdict.signature([other])


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
