"""Every line of the library's source, src/chipfire/*.py, is at most 100
characters long."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chipfire"
SOURCES = sorted(SRC.glob("*.py"))
LIMIT = 100


def test_there_are_sources():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_lines_fit_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [i for i, line in enumerate(lines, 1) if len(line) > LIMIT]
    assert not long, f"{path.name}: lines {long} are longer than {LIMIT} characters"
