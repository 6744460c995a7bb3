"""The committed BENCH_<n>.json files, from BENCH_18 on, against the shape of
BENCH_19.json and the workloads and per-layer metrics of BENCHMARK.json."""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
FILES = sorted(path for path in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m[1]) >= 18)


def load(path):
    return json.loads(path.read_text())


def test_the_bench_files_are_found():
    assert {"BENCH_19.json", "BENCH_23.json"} <= {path.name for path in FILES}


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.stem)
def test_bench_file_has_the_keys_of_bench_19(path):
    assert set(load(ROOT / "BENCH_19.json")) <= set(load(path))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.stem)
def test_bench_file_covers_every_workload_and_layer(path):
    bench = load(path)
    assert WORKLOADS <= set(bench["pairs"]) and WORKLOADS <= set(bench["layers"])
    for workload in WORKLOADS:
        layers = bench["layers"][workload]
        for metric in BENCHMARK["per_layer"]:
            value = layers[metric["name"]]
            assert isinstance(value, list) and len(value) == 2, (workload, metric["name"])


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.stem)
def test_bench_file_summaries_are_ordered(path):
    for workload, pair in load(path)["pairs"].items():
        for metric, summary in pair["summary"].items():
            for side in ("parent", "change"):
                stats = summary[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (workload, metric, side)
