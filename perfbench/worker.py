"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, so every repetition begins
with the library's caches cold, as every `levelalg` invocation does:

    python3 perfbench/worker.py '{"workload": "stress", "seed": 0,
                                  "size": "full", "trace": false}'

It prints one JSON object: the moment set-up ended and the moment the
work ended (both `time.monotonic()`, which all processes share), peak
resident memory, the time of each unit of work (a stress module or a
manifest instance) with a speed probe before and after it, the time of
each operation, every output the library produced, and the per-layer
metrics when traced. Correctness is judged by run.py, not here.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

import corpus
import spans
from levelalg import bounds, cli, combinatorics, families, fields, modules


def probe() -> float:
    """Duration of a fixed pure-Python kernel that uses no library code.

    It takes about 1 ms on an idle core of the reference machine; run.py
    divides by it to take out changes of machine speed (see run.py).
    """
    start = time.perf_counter()
    acc: dict = {}
    for i in range(4000):
        key = (i & 7, i % 11)
        acc[key] = (acc.get(key, 0) + i * 7919) % 2147483647
    return time.perf_counter() - start


def stress_module(spec, trials):
    """Build one module, verify it at every c, run the bound machinery on h."""
    field = fields.FieldSpec.modular()
    r, e, t = spec["r"], spec["e"], spec["t"]
    records = [{"c": c, "error": None} for c in range(1, t)]
    times = []
    try:
        m = families.random_module(r, e, t, spec["density"], spec["seed"], field)
    except Exception as exc:  # a failed operation, reported, not fatal
        for rec in records:
            rec["error"] = f"random_module: {exc!r}"
        return records, [0.0] * len(records)
    for rec, trial_seed in zip(records, spec["trial_seeds"]):
        start = time.perf_counter()
        try:
            rec["report"] = bounds.verify_instance(
                m, rec["c"], trials=trials, seed=trial_seed).to_json_dict()
        except Exception as exc:
            rec["error"] = f"verify_instance: {exc!r}"
        times.append(time.perf_counter() - start)
    last = records[-1]
    if "report" in last:
        h = tuple(last["report"]["h"])
        try:
            last["tightened"] = list(
                bounds.tighten_bound(h, last["report"]["bound"], t - 1))
            last["chained"] = list(
                bounds.chained_bound(h, t, range(t, 0, -1), tighten=True))
            last["parentOSequence"] = combinatorics.is_o_sequence(h).ok
        except Exception as exc:
            last["error"] = f"bound machinery: {exc!r}"
    return records, times


def manifest_instance(path, run_seed, rational):
    """One `levelalg verify --format json` call on a one-line manifest."""
    argv = ["verify", str(path), "--format", "json", "--seed", str(run_seed)]
    if rational:
        argv.append("--rational")
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
        rec = {"exit": code, "output": json.loads(buf.getvalue()), "error": None}
    except Exception as exc:
        rec = {"exit": None, "output": None, "error": repr(exc)}
    return [rec], [time.perf_counter() - start]


def run_units(units, run_unit) -> dict:
    """Run the units in order, with a speed probe before and after each."""
    ops, op_times, op_segments, segments = [], [], [], []
    before = probe()
    for k, unit in enumerate(units):
        start = time.perf_counter()
        records, times = run_unit(unit)
        seconds = time.perf_counter() - start
        after = probe()
        ops.extend(records)
        op_times.extend(times)
        op_segments.extend([k] * len(records))
        segments.append([seconds, before, after])
        before = after
    return {"ops": ops, "op_times": op_times, "op_segments": op_segments,
            "segments": segments}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    workload, seed, size = cfg["workload"], cfg["seed"], cfg["size"]
    if workload == "stress":
        inputs = corpus.stress_corpus(seed, size)
    else:
        inputs = corpus.manifest_inputs(seed, size)
    tracer = None
    if cfg["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    ready_at = time.monotonic()

    if workload == "stress":
        result = run_units(inputs, lambda spec: stress_module(spec, corpus.TRIALS))
    else:
        rational = workload == "manifest-q"
        result = run_units(inputs, lambda unit: manifest_instance(*unit, rational))

    done_at = time.monotonic()
    layers = tracer.metrics() if tracer is not None else None
    result |= {
        "ready_at": ready_at,
        "done_at": done_at,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "h_vector_hit_ratio": spans.hit_ratio(
            modules.h_vector if tracer is None else tracer.h_vector_cache),
        "layers": layers,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(2)
