"""Every demo script runs to completion and writes nothing into the repository."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _snapshot() -> dict[str, int]:
    """Modification time of every file in the checkout outside the caches."""
    return {str(p.relative_to(ROOT)): p.stat().st_mtime_ns for p in ROOT.rglob("*")
            if p.is_file() and not CACHES & set(p.relative_to(ROOT).parts)}


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_without_writing_into_the_repository(demo, tmp_path, monkeypatch, capsys):
    # a demo saves its figure, when matplotlib is there, to the working directory
    monkeypatch.chdir(tmp_path)
    before = _snapshot()
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    assert _snapshot() == before
