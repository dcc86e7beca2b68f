"""The in-process A/B tool on a few draws, with this checkout on both sides:
tools/ab_in_process.py loaded by path."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_both_sides_run_every_draw_and_agree(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "ab_in_process", ROOT / "tools" / "ab_in_process.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"kept": 1}))
    try:
        args = ["--parent", str(ROOT), "--change", str(ROOT), "--draws", "12", "--rounds", "2"]
        assert tool.main([*args, "--out", str(out)]) == 0
    finally:  # drop the two packages the tool imported
        for name in list(sys.modules):
            if name.startswith(("specangles_parent", "specangles_change")):
                del sys.modules[name]
    found = json.loads(out.read_text())
    assert found["kept"] == 1
    section = found["in_process_ab"]["block-lemma"]
    assert section["same_triples_every_draw"] is True
    assert [len(section["cpu_ms_per_op"][side]) for side in ("parent", "change")] == [2, 2]
    assert len(section["change_over_parent_per_round"]) == 2
