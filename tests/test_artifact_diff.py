"""``tools/artifact_diff.py`` on the two small hand-written trees in ``artifact_trees/``."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent
TREES = ROOT / "artifact_trees"
_spec = importlib.util.spec_from_file_location(
    "artifact_diff", ROOT.parent / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def test_lists_every_file_by_status(capsys):
    assert artifact_diff.main([str(TREES / "old"), str(TREES / "new")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "changed    export/dictionary_location.manifest.txt",
        "only-new   export/only_new.txt",
        "only-old   export/only_old.txt",
        "identical  sweep-desk/config.json",
        "changed    sweep-desk/sweep_rows.csv",
    ]
    assert "sweep-desk/sweep_rows.csv" in lines[6]


def test_row_report_per_method_and_snr():
    old, new = ((TREES / side / "sweep-desk" / "sweep_rows.csv").read_text()
                for side in ("old", "new"))
    report = artifact_diff.row_report(old, new)
    assert report == [
        ("proposed-sbl", "10", 0, 2, 0.0, 0.0),
        ("proposed-sbl", "inf", 1, 1, 1.5, 0.25),
        # a NaN on one side only is an infinite difference; on both sides none
        ("stage1-only", "10", 1, 1, 0.0, math.inf),
        ("stage1-only", "inf", 0, 1, 0.0, 0.0),
    ]


def test_a_tree_against_itself_is_identical(capsys):
    assert artifact_diff.main([str(TREES / "old"), str(TREES / "old")]) == 0
    out = capsys.readouterr().out
    assert all(line.startswith("identical") for line in out.splitlines())


def test_usage_errors_exit_2(capsys, tmp_path):
    assert artifact_diff.main([str(TREES / "old")]) == 2
    assert artifact_diff.main([str(TREES / "old"), str(tmp_path / "missing")]) == 2
    assert "artifact_digest" in capsys.readouterr().err
