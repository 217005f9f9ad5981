"""The checked-in benchmark records: every BENCH_*.json at the repository
root holds before/after pairs, their medians, quartiles and pairs won, and
seed-0 signatures of both commits equal to the stored ones, so a speed
claim also shows that the integers produced did not change. The
summaries are recomputed from the pairs."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = {"wall_s", "setup_s", "instance_p90_s", "peak_rss_mb"}
SIDES = ("parent", "change")


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_pairs_summaries_and_signatures(path):
    doc = json.loads(path.read_text())
    assert doc["workloads"]
    for name, w in doc["workloads"].items():
        assert w["pairs"], name
        for pair in w["pairs"]:
            assert isinstance(pair["seed"], int)
            for side in SIDES:
                assert METRICS <= pair[side].keys()
        for metric in METRICS:
            for side in SIDES:
                assert isinstance(w["medians"][metric][side], float)
                q1, q3 = w["quartiles"][metric][side]
                assert q1 <= w["medians"][metric][side] <= q3
            assert 0 <= w["won"][metric] <= len(w["pairs"])
    for side in SIDES:
        assert doc["signatures"][side]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_summaries_are_those_of_its_pairs(path):
    # medians and quartiles over the pairs' values, rounded to 6 decimals
    # in the record; won counts the pairs whose change reads lower
    for name, w in json.loads(path.read_text())["workloads"].items():
        for metric in METRICS:
            for side in SIDES:
                values = [pair[side][metric] for pair in w["pairs"]]
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                want = [statistics.median(values), q1, q3]
                got = [w["medians"][metric][side], *w["quartiles"][metric][side]]
                assert got == pytest.approx(want, abs=1e-6), (name, metric, side)
            won = sum(p["change"][metric] < p["parent"][metric] for p in w["pairs"])
            assert w["won"][metric] == won, (name, metric)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_signatures_equal_the_stored_ones(path):
    stored = json.loads((ROOT / "perfbench" / "signatures.json").read_text())
    sigs = json.loads(path.read_text())["signatures"]
    assert sigs["seed"] == stored["seed"]
    for side in SIDES:
        assert sigs[side] == stored["full"]
