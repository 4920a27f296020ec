"""Argument checks of tools/bench_pairs.py that fail before any export."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def test_missing_workdir_is_usage_error(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "export", lambda *a: pytest.fail("exported a side"))
    missing = tmp_path / "absent"
    with pytest.raises(SystemExit) as info:
        tool.main(["--workload", "desk_train", "--seed", "1", "--tag", "t",
                   "--workdir", str(missing)])
    assert info.value.code == 2
    assert f"--workdir {missing}" in capsys.readouterr().err
    assert not missing.exists()
