"""The recorded speed claims at the repo root, BENCH_<workload>.json: each
names both commits and their src/ digests, the host, the bench seeds, each
end-to-end metric's median and quartiles per side with the change's wins,
and the failed commands per side with their run seeds."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = {"run_s", "setup_s", "epoch_ms.p50", "epoch_ms.tail",
              "peak_rss_mb"}
SIDES = ("parent", "change")


def test_the_mixture_claim_is_recorded():
    assert ROOT / "BENCH_align-mixture2d.json" in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_is_complete_and_consistent(path):
    rec = json.loads(path.read_text())
    assert path.name == f"BENCH_{rec['workload']}.json"
    for side in SIDES:
        assert rec[side]["commit"] and len(rec[side]["src_sha256"]) == 16
    assert rec["parent"]["src_sha256"] != rec["change"]["src_sha256"]
    assert {"cpu", "nproc", "python", "numpy", "blas"} <= rec["host"].keys()
    seeds = rec["bench_seeds"]
    assert len(set(seeds)) == len(seeds) == rec["pairs"] >= 10
    assert rec["claim"] in rec["metrics"]
    assert set(rec["metrics"]) == END_TO_END
    for name, m in rec["metrics"].items():
        assert 0 <= m["change_wins"] <= rec["pairs"], name
        for side in SIDES:
            s = m[side]
            assert s["q1"] <= s["median"] <= s["q3"], (name, side)
    for side in SIDES:
        f = rec["failed"][side]
        assert 0 <= f["failed"] <= f["attempted"]
        assert len(f["commands"]) == f["failed"]
        for cmd in f["commands"]:
            assert cmd["bench_seed"] in seeds and cmd["run_seed"] is not None
