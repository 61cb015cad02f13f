"""Pinned bytes of `lieq centers --format json`: reported generators are
canonical, so a change of algorithm must leave these files unchanged.

Regenerate a file only for an intended change of the report format:

    PYTHONPATH=src python3 -m lieq.cli centers catalog:NAME --q 0,2 \
        --format json > tests/golden/centers_SLUG.json
"""

from pathlib import Path

import pytest

from lieq.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# catalog name -> file slug
CASES = {
    "Z^2": "Z2",
    "(Z/4)^2": "Z4_2",
    "Z+Z/2": "Z_plus_Z2",
    "heisenberg@Z/2": "heisenberg_mod2",
    "n4": "n4",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_centers_json_golden(capsys, name):
    code = main(["centers", f"catalog:{name}", "--q", "0,2", "--format", "json"])
    assert code == 0
    want = (GOLDEN / f"centers_{CASES[name]}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
