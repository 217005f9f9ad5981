#!/usr/bin/env python3
"""Benchmark runner for levelalg: exact-integer workloads, timed end to end.

    python3 perfbench/run.py --workload stress --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from
`src/`. The runner is single-threaded and closed-loop: it starts one fresh
interpreter per repetition (perfbench/worker.py), waits for it, and starts
the next while the measuring time lasts. A fresh interpreter per
repetition keeps the library's lru caches cold, as they are in every
`levelalg` invocation; reusing one process would let later repetitions hit
the `h_vector` and `_single_spaces` caches and report times nobody sees.

Times are reported at a reference machine speed. On a shared two-vCPU
Xeon virtual machine the speed of pure-Python code changed by up to 2x,
both within seconds and for minutes at a time, and raw medians of one
workload moved by 40% between consecutive 40-second runs. worker.py
therefore runs a fixed
pure-Python probe (no library code) before and after each unit of work (a
stress module or a manifest instance), and each unit's time is scaled by
REF_PROBE_S / (mean of its two probes). `wall_s` is the sum of the scaled
unit times, `instance_p90_s` the 90th percentile of the scaled operation
times and `setup_s` the set-up time scaled by the first probe. The raw
figures are printed too and kept in the results file. Per-layer self
times are raw seconds; compare them as shares of one run.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics (medians over repetitions); with `--trace 1`
traced and untraced repetitions alternate and it carries the per-layer
metrics instead. Each workload's outputs are hashed into a signature,
printed for every seed and checked against perfbench/signatures.json for
the default seed; a mismatch fails the run with exit code 1. Full results,
the environment and the notes on what each workload loads are written to
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import verdict

ROOT = corpus.ROOT
HERE = corpus.HERE
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 120
# Duration of worker.probe() on an idle core of the reference machine.
REF_PROBE_S = 0.001

WORKLOADS = {
    "stress": {
        "why": "every quotient sample is a new module, so catalecticant "
               "assembly and sample drawing do almost all the work, with no "
               "intersections and no reuse of the h_vector cache",
        "loads": ["polynomials.apply_operator", "polynomials.derivative_space",
                  "modules.sample_generic_quotient",
                  "modules.InverseSystemModule.post_init"],
        "bypasses": ["linalg.subspace_intersection", "modules.inclusion_exclusion_sum"],
    },
    "manifest": {
        "why": "identity checks walk all 2^t generator subsets over cached "
               "single-generator spaces, so subspace intersection and "
               "inclusion-exclusion take a large share; it also covers the "
               "documented `levelalg verify` path",
        "loads": ["linalg.subspace_intersection", "modules.inclusion_exclusion_sum",
                  "modules.relative_intersection_dim", "cli.main"],
        "bypasses": ["the rational elimination kernel"],
    },
    "manifest-q": {
        "why": "the manifest call graph with every elimination on the "
               "fraction-free rational kernel, so a change to the modular "
               "kernel should not move it and a change to the rational "
               "kernel should not move the other two",
        "loads": ["linalg.rank", "linalg.row_space", "linalg.subspace_intersection"],
        "bypasses": ["the int64 modular elimination kernel"],
    },
}

# per-layer metric prefix -> the end-to-end metrics it is expected to move
LAYER_NOTES = {
    "polynomials.derivative_space": "stress wall_s and instance_p90_s; smaller share on manifest",
    "polynomials.apply_operator": "stress wall_s and instance_p90_s; smaller share on manifest",
    "linalg.Matrix.from_rows": "wall_s on every workload (scalar conversion)",
    "linalg.rank": "manifest-q wall_s (rational kernel); over GF(p) stress and manifest",
    "linalg.row_space": "manifest-q wall_s (rational kernel); over GF(p) stress and manifest",
    "linalg.subspace_intersection": "manifest and manifest-q wall_s; 0 calls on stress; "
                                    "zero_ratio is the pruning potential",
    "linalg.subspace_sum": "manifest and manifest-q wall_s",
    "modules.sample_generic_quotient": "stress wall_s",
    "modules.InverseSystemModule.post_init": "stress wall_s",
    "modules.h_vector": "hit_ratio rises on manifest with caching changes; stress flat",
    "modules.inclusion_exclusion_sum": "manifest and manifest-q wall_s",
    "modules.relative_intersection_dim": "manifest and manifest-q wall_s",
    "modules.remix_generators": "manifest and manifest-q wall_s",
    "families.random_module": "stress and manifest wall_s (module construction)",
    "families.build_family": "stress and manifest wall_s (module construction)",
    "bounds.verify_instance": "bypass layer: no end-to-end metric",
    "bounds.tighten_bound": "bypass layer: no end-to-end metric",
    "bounds.chained_bound": "bypass layer: no end-to-end metric",
    "combinatorics.is_o_sequence": "bypass layer: no end-to-end metric",
    "manifest.parse_manifest": "glue on manifest and manifest-q",
    "manifest.run_manifest": "glue on manifest and manifest-q",
    "cli.main": "glue and report rendering on manifest and manifest-q",
    "trace.overhead_ratio": "traced wall_s / untraced wall_s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(argv: list[str]) -> tuple[float, str]:
    """Run one child to completion; returns its start time and stdout."""
    spawn_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {argv[0]} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"child {argv[0]} exited {proc.returncode}:\n{err[-2000:]}")
    return spawn_at, out


def warm_up() -> dict:
    """Import the library once, untimed, so bytecode is compiled and cached."""
    code = ("import json, sys, numpy, levelalg; print(json.dumps("
            "{'numpy': numpy.__version__, 'levelalg': levelalg.__file__}))")
    _, out = run_child(["-c", code])
    info = json.loads(out)
    if not Path(info["levelalg"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"levelalg imported from {info['levelalg']}, not {ROOT / 'src'}")
    return info


def repetition(workload: str, seed: int, size: str, trace: bool) -> dict:
    cfg = {"workload": workload, "seed": seed, "size": size, "trace": trace}
    spawn_at, out = run_child([str(HERE / "worker.py"), json.dumps(cfg)])
    rep = json.loads(out.splitlines()[-1])
    rep["raw_setup_s"] = rep["ready_at"] - spawn_at
    rep["raw_wall_s"] = rep["done_at"] - rep["ready_at"]
    # Scale each unit of work by the machine speed the probes around it saw.
    scale = [REF_PROBE_S / ((before + after) / 2) for _, before, after in rep["segments"]]
    rep["wall_s"] = sum(seg[0] * f for seg, f in zip(rep["segments"], scale))
    rep["setup_s"] = rep["raw_setup_s"] * REF_PROBE_S / rep["segments"][0][1]
    rep["scaled_op_times"] = [t * scale[k] for t, k in zip(rep["op_times"], rep["op_segments"])]
    rep["signature"] = verdict.signature(rep["ops"])
    return rep


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def stored_signature(size: str, workload: str) -> str | None:
    stored = json.loads((HERE / "signatures.json").read_text())
    return stored[size].get(workload)


def judge(workload: str, seed: int, size: str, reps: list[dict]) -> dict:
    """Count attempted and failed operations over all repetitions."""
    attempted = failed = 0
    problems: list[str] = []
    first = reps[0]["signature"]
    for rep in reps:
        attempted += len(rep["ops"])
        diverged = rep["signature"] != first
        if diverged:
            problems.append("a repetition produced other outputs than the first")
        for op in rep["ops"]:
            broken = verdict.broken_invariants(workload, op)
            problems.extend(broken)
            failed += bool(broken) or diverged
    cross = None
    if workload == "manifest-q":
        # agreement of the two field backends on this seed
        cross = repetition("manifest", seed, size, trace=False)["signature"]
        if cross != first:
            problems.append("manifest-q outputs differ from the GF(p) run")
            failed = attempted
    expected = stored_signature(size, workload) if seed == DEFAULT_SEED else None
    mismatch = expected is not None and expected != first
    if mismatch:
        problems.append(f"signature {first} differs from the stored {expected}")
        failed = attempted
    return {
        "signature": first,
        "gf_p_signature": cross,
        "signature_mismatch": mismatch,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Repetitions until the measuring time is used up; traced ones alternate."""
    kinds = [False, True] if trace else [False]
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        for kind in kinds:
            (traced if kind else plain).append(repetition(workload, seed, "full", kind))
        pair_s = sum(r["raw_setup_s"] + r["raw_wall_s"] for r in plain[-1:] + traced[-1:])
        if time.monotonic() + pair_s > deadline:
            return plain, traced


def end_to_end(plain: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in plain),
        "setup_s": med(r["setup_s"] for r in plain),
        "instance_p90_s": med(p90(r["scaled_op_times"]) for r in plain),
        "peak_rss_mb": med(r["peak_rss_kb"] / 1024 for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    out = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
    )
    return out


def environment(info: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "loadavg_1m": os.getloadavg()[0],
    }


def write_details(name: str, details: dict) -> Path:
    folder = corpus.BUILD / "results"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{name}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    return path


def benchmark(args, spec: dict) -> int:
    env = environment(warm_up())
    corpus.write_manifest_inputs("full")
    plain, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    result = judge(args.workload, args.seed, "full", plain + traced)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = per_layer(plain, traced)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        values = end_to_end(plain)
        wanted = [m["name"] for m in spec["end_to_end"]]
    metrics = {n: {"value": values[n], "unit": units[n]} for n in wanted}
    details = {
        "workload": {"name": args.workload, **WORKLOADS[args.workload]},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "repetitions": {
            kind: [{k: r[k] for k in ("wall_s", "setup_s", "raw_wall_s", "raw_setup_s",
                                      "peak_rss_kb", "segments", "op_times")}
                   | {"instance_p90_s": p90(r["scaled_op_times"]),
                      "raw_instance_p90_s": p90(r["op_times"])} for r in reps]
            for kind, reps in (("untraced", plain), ("traced", traced))
        },
        "samples_per_repetition": len(plain[0]["op_times"]),
        "samples_above_p90": [sum(t > p90(r["scaled_op_times"]) for t in r["scaled_op_times"])
                              for r in plain],
        "h_vector_hit_ratio": [r["h_vector_hit_ratio"] for r in plain + traced],
        "metrics": metrics,
        "all_layers": values if args.trace else None,
        "layer_notes": LAYER_NOTES if args.trace else None,
        **result,
    }
    path = write_details(f"{args.workload}-seed{args.seed}-trace{int(args.trace)}", details)
    print(f"workload {args.workload} seed {args.seed}: signature {result['signature']}")
    print(f"repetitions {len(plain)} untraced, {len(traced)} traced; "
          f"{details['samples_per_repetition']} operations each, "
          f"{min(details['samples_above_p90'])} or more above p90; "
          f"fail_ratio {result['fail_ratio']:.4f} (ratio)")
    print(f"environment {json.dumps(env)}")
    print("unscaled medians: "
          f"wall {statistics.median(r['raw_wall_s'] for r in plain):.4f} s, "
          f"setup {statistics.median(r['raw_setup_s'] for r in plain):.4f} s, "
          f"probe {statistics.median(seg[1] for r in plain for seg in r['segments']) * 1e3:.3f} ms "
          f"(reference {REF_PROBE_S * 1e3:.3f} ms)")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(f"details in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 1 if result["signature_mismatch"] else 0


def smoke(args) -> int:
    """All workloads on tiny inputs, one untraced and one traced repetition."""
    warm_up()
    corpus.write_manifest_inputs("smoke")
    attempted = failed = 0
    signatures = {}
    for workload in WORKLOADS:
        reps = [repetition(workload, args.seed, "smoke", trace) for trace in (False, True)]
        result = judge(workload, args.seed, "smoke", reps)
        signatures[workload] = result["signature"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"smoke {workload} seed {args.seed}: signature {result['signature']} "
              f"failed {result['failed']}/{result['attempted']} "
              f"wall {reps[0]['wall_s']:.3f} s "
              f"h_vector hit_ratio {[r['h_vector_hit_ratio'] for r in reps]}")
        for problem in result["problems"]:
            print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
        "signatures": signatures,
    }))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on a tiny input and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "levelalg" / "__init__.py").is_file():
        print(f"run.py: no levelalg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args)
        return benchmark(args, json.loads(spec_path.read_text()))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
