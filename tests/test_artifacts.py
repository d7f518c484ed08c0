"""The byte comparison of tools/artifacts.py, on small trees written here (no CLI cases run)."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from torusflow import GridSpec, parse_config, taylor_green_init
from torusflow.snapshots import snapshot_bytes

_SPEC = importlib.util.spec_from_file_location(
    "artifacts", Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"
)
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)


def test_every_case_config_passes_the_config_rules(tmp_path):
    for name, (experiment, text) in artifacts.cases().items():
        cfg = parse_config(text.replace("{out}", str(tmp_path / name)))
        assert cfg.experiment == experiment, name
    assert not any(tmp_path.iterdir())


def test_a_case_that_raises_is_reported_and_the_others_still_run(tmp_path, monkeypatch, capsys):
    import torusflow.cli

    real_main = torusflow.cli.main

    def main(argv):
        if argv[0] == "run":
            raise ValueError("boom")
        return real_main(argv)

    text = "n = 8\ninit = taylor-green\nout = {out}\n"
    monkeypatch.setattr(artifacts, "cases", lambda: {
        "raises": ("run", "experiment = run\n" + text),
        "blocks": ("blocks", "experiment = blocks\n" + text),
    })
    monkeypatch.setattr(torusflow.cli, "main", main)
    monkeypatch.setattr(sys, "path", list(sys.path))  # write_artifacts prepends src
    src = Path(__file__).resolve().parents[1] / "src"
    assert not artifacts.write_artifacts(tmp_path, src)
    err = capsys.readouterr().err
    assert "# raises: raised ValueError: boom" in err
    assert "# blocks: exit 0" in err
    assert artifacts.files(tmp_path) == ["blocks/blocks.csv", "blocks/symbols.csv"]


@pytest.fixture(scope="module")
def snapshot():
    return snapshot_bytes(taylor_green_init(GridSpec(4)), 0.1)


def _with_doubles(raw: bytes, edit) -> bytes:
    """raw with its coefficient doubles passed through edit (a copy is edited in place)."""
    doubles = np.frombuffer(raw, dtype="<f8", offset=artifacts.SNS1_HEADER).copy()
    edit(doubles)
    return raw[: artifacts.SNS1_HEADER] + doubles.tobytes()


def _flip_zero_signs(raw: bytes, count: int) -> bytes:
    def edit(doubles):
        zeros = np.flatnonzero(doubles == 0.0)[:count]
        assert len(zeros) == count
        doubles[zeros] = -doubles[zeros]

    return _with_doubles(raw, edit)


def _tree(root: Path, contents: dict[str, bytes]) -> Path:
    for rel, data in contents.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def _summary(out: str) -> dict[str, int]:
    line = out.strip().splitlines()[-1]
    counts = re.findall(r"(\d+) (identical|differ only|differ otherwise|missing|extra)", line)
    return {label: int(count) for count, label in counts}


def test_zero_sign_doubles_counts_flipped_zeros_only(snapshot):
    assert artifacts.zero_sign_doubles(snapshot, snapshot) == 0
    assert artifacts.zero_sign_doubles(snapshot, _flip_zero_signs(snapshot, 3)) == 3

    def nudge(doubles):
        doubles[np.flatnonzero(doubles != 0.0)[0]] *= 1.0 + 2.0**-52

    assert artifacts.zero_sign_doubles(snapshot, _with_doubles(snapshot, nudge)) is None

    def zero_to_tiny(doubles):
        doubles[np.flatnonzero(doubles == 0.0)[0]] = -5e-324

    assert artifacts.zero_sign_doubles(snapshot, _with_doubles(snapshot, zero_to_tiny)) is None
    # a header change (here the time) is never a zero-sign difference
    retimed = snapshot[:8] + np.float64(1.0).tobytes() + snapshot[16:]
    assert len(retimed) == len(snapshot)
    assert artifacts.zero_sign_doubles(snapshot, retimed) is None
    assert artifacts.zero_sign_doubles(snapshot, snapshot[:-16]) is None


def test_identical_trees_compare_equal(tmp_path, snapshot, capsys):
    contents = {"run/snap_000000.sns1": snapshot, "run/diagnostics.csv": b"t,energy\n0,1\n"}
    a = _tree(tmp_path / "a", contents)
    b = _tree(tmp_path / "b", contents)
    assert artifacts.compare(a, b)
    out = capsys.readouterr().out
    assert _summary(out) == {"identical": 2, "differ only": 0, "differ otherwise": 0,
                             "missing": 0, "extra": 0}
    assert "first differing file: none" in out


def test_compare_classifies_each_difference(tmp_path, snapshot, capsys):
    a = _tree(tmp_path / "a", {
        "run/snap_000000.sns1": snapshot,
        "run/snap_000001.sns1": _flip_zero_signs(snapshot, 2),
        "run/snap_000002.sns1": snapshot,
        "run/diagnostics.csv": b"t,energy\n0,1\n",
        "run/extra.txt": b"x",
    })
    b = _tree(tmp_path / "b", {
        "run/snap_000000.sns1": snapshot,
        "run/snap_000001.sns1": snapshot,
        "run/snap_000002.sns1": snapshot[:4] + b"\x08" + snapshot[5:],
        "run/diagnostics.csv": b"t,energy\n0,2\n",
        "run/missing.txt": b"y",
    })
    assert not artifacts.compare(a, b)
    out = capsys.readouterr().out
    assert _summary(out) == {"identical": 1, "differ only": 1, "differ otherwise": 2,
                             "missing": 1, "extra": 1}
    assert "differs: run/snap_000001.sns1 (only the sign bits of 2 zero coefficients)" in out
    assert "differs: run/snap_000002.sns1\n" in out
    assert "differs: run/diagnostics.csv\n" in out
    assert "missing: run/missing.txt" in out
    assert "extra: run/extra.txt" in out
    assert "first differing file: run/diagnostics.csv" in out


def test_compare_reports_how_large_each_change_is(tmp_path, snapshot, capsys):
    def nudge(doubles):
        doubles[np.argmax(np.abs(doubles))] *= 1.0 + 1e-12

    a = _tree(tmp_path / "a", {
        "run/snap_000001.sns1": _with_doubles(snapshot, nudge),
        "run/diagnostics.csv": b"t,energy,h1\n0,1.0,np.float64(2.0)\n1,0.5,3.0,9\n",
        "run/summary.json": b'{"monotone": true, "final_error": 1.0, "checks": '
                            b'[{"name": "a", "value": 2.0}, {"name": "b", "value": null}], '
                            b'"extra": 1}',
        "run/broken.json": b'{"final_error": 1.0',
    })
    b = _tree(tmp_path / "b", {
        "run/snap_000001.sns1": snapshot,
        "run/diagnostics.csv": b"t,energy,h1\n0,1.0,2.0\n1,0.5000000000001,3.0\n2,0.25,4.0\n",
        "run/summary.json": b'{"monotone": 1, "final_error": 1.5, "checks": '
                            b'[{"name": "a", "value": 2.0}, {"name": "b", "value": 3}, '
                            b'{"name": "c", "value": 4.0}]}',
        "run/broken.json": b'{"final_error": 1.5}',
    })
    assert not artifacts.compare(a, b)
    out = capsys.readouterr().out
    report = out.splitlines()
    snap = report.index("differs: run/snap_000001.sns1")
    assert re.fullmatch(r"  largest coefficient change 1e-12 of the largest \|coefficient\|",
                        report[snap + 1])
    csv = report.index("differs: run/diagnostics.csv")
    assert report[csv + 1 : csv + 6] == [
        "  energy: largest relative change 2e-13, largest absolute change 1e-13",
        "  h1: 2 cell(s) changed as text",
        "  column 4: 1 cell(s) changed as text",
        "  t: 1 cell(s) changed as text",
        "  energy: 1 cell(s) changed as text",
    ]
    # JSON: one line per differing leaf, by key path; true against 1, null
    # against a number and a leaf on one side only are text changes
    summary = report.index("differs: run/summary.json")
    assert report[summary + 1 : summary + 7] == [
        "  monotone: changed as text",
        "  final_error: relative change 0.333, absolute change 0.5",
        "  checks[1].value: changed as text",
        "  extra: changed as text",
        "  checks[2].name: changed as text",
        "  checks[2].value: changed as text",
    ]
    assert not report[summary + 7].startswith("  ")
    broken = report.index("differs: run/broken.json")
    assert report[broken + 1] == "  not valid JSON on both sides"


def test_a_missing_or_extra_file_alone_is_a_difference(tmp_path, snapshot, capsys):
    a = _tree(tmp_path / "a", {"snap.sns1": snapshot})
    b = _tree(tmp_path / "b", {"snap.sns1": snapshot, "abort.txt": b"cfl"})
    assert not artifacts.compare(a, b)
    assert not artifacts.compare(b, a)
    out = capsys.readouterr().out
    assert "missing: abort.txt" in out and "extra: abort.txt" in out


def test_reread_reports_a_snapshot_that_does_not_read_back(tmp_path, snapshot, capsys):
    def nudge_lower_half(doubles):
        # (component, k1, k2, k3, re/im) of the n = 4 full spectrum; k3 = -1
        doubles.reshape(3, 4, 4, 4, 2)[0, 1, 1, 3, 0] += 1e-3

    tree = _tree(tmp_path / "bad", {
        "run/snap_000000.sns1": snapshot,
        "run/snap_000001.sns1": _with_doubles(snapshot, nudge_lower_half),
        "run/snap_000002.sns1": snapshot,
        "run/diagnostics.csv": b"t,energy\n0,1\n",
    })
    assert not artifacts.reread(tree)
    out = capsys.readouterr().out
    assert "re-read: run/snap_000001.sns1: refused (" in out and "not a real field" in out
    assert "re-read: 2 of 3 SNS1 files give their bytes back" in out
    assert artifacts.reread(_tree(tmp_path / "ok", {"a.sns1": snapshot, "b.txt": b"x"}))
    assert "re-read: 1 of 1 SNS1 files give their bytes back" in capsys.readouterr().out
