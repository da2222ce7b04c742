"""The demo's CLI output, pinned byte for byte.

Each file under ``tests/golden`` is the exact stdout of one verb on the
bundled demo.  A refactor that must keep output identical keeps these
passing; a change that means to alter the output regenerates them.
"""

from importlib import resources
from pathlib import Path

import pytest

from possum.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMO_KB = str(resources.files("possum").joinpath("data", "demo.kb"))
DEMO_WORLD = str(resources.files("possum").joinpath("data", "m1.world"))
GOAL = "(anti-trust-success ?raider ?target)"

RUNS = {
    "demo_query.txt": ["query", DEMO_KB, DEMO_WORLD, GOAL],
    "demo_query.json": ["query", DEMO_KB, DEMO_WORLD, GOAL, "--format", "json"],
    "demo_explain.txt": ["explain", DEMO_KB, DEMO_WORLD, GOAL],
    "demo_saturate.txt": ["saturate", DEMO_KB, DEMO_WORLD],
    "demo_saturate.json": ["saturate", DEMO_KB, DEMO_WORLD, "--format", "json"],
    "demo_cases.txt": ["cases", DEMO_KB, "defense/anti-trust"],
    "demo_cases_world.txt": ["cases", DEMO_KB, "defense/anti-trust", DEMO_WORLD],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_demo_output_is_unchanged(name, monkeypatch, capsys):
    monkeypatch.setenv("POSSUM_COLOR", "never")
    assert main(RUNS[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text()
