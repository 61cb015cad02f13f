"""Pinned bytes of `lieq centers`, `lieq product` and `lieq verify catalog
--oracle` in `--format json`.

Reported generators are canonical and product brackets are listed as dense
symbol vectors, so a change of algorithm must leave these files unchanged.

Regenerate a file only for an intended change of the report format:

    PYTHONPATH=src python3 -m lieq.cli centers catalog:NAME --q 0,2 \
        --format json > tests/golden/centers_SLUG.json
    PYTHONPATH=src python3 -m lieq.cli centers tests/golden/SLUG.lieq --q 0,2 \
        --format json > tests/golden/centers_SLUG.json
    PYTHONPATH=src python3 -m lieq.cli product catalog:NAME --q 0,2 \
        --kind KIND --format json > tests/golden/product_SLUG_KIND.json
    PYTHONPATH=src python3 -m lieq.cli verify catalog --oracle \
        --format json > tests/golden/verify_catalog_oracle.json
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

# algebras past the catalog, serialized by ``io_catalog.serialize``:
# strictly_upper(5) and the filiform L8, [e1, ei] = e(i+1) for 2 <= i < 8
FILE_CASES = ("n5", "L8")

# (catalog name, product kind) -> file slug
PRODUCT_CASES = {
    ("heisenberg", "tensor"): "heisenberg_tensor",
    ("heisenberg", "exterior"): "heisenberg_exterior",
    ("heisenberg@Z/2", "tensor"): "heisenberg_mod2_tensor",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_centers_json_golden(capsys, name):
    code = main(["centers", f"catalog:{name}", "--q", "0,2", "--format", "json"])
    assert code == 0
    want = (GOLDEN / f"centers_{CASES[name]}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("slug", FILE_CASES)
def test_centers_json_golden_from_file(capsys, slug):
    code = main(["centers", str(GOLDEN / f"{slug}.lieq"), "--q", "0,2",
                 "--format", "json"])
    assert code == 0
    want = (GOLDEN / f"centers_{slug}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name,kind", sorted(PRODUCT_CASES))
def test_product_json_golden(capsys, name, kind):
    code = main(["product", f"catalog:{name}", "--q", "0,2", "--kind", kind,
                 "--format", "json"])
    assert code == 0
    slug = PRODUCT_CASES[(name, kind)]
    want = (GOLDEN / f"product_{slug}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_verify_catalog_oracle_json_golden(capsys):
    code = main(["verify", "catalog", "--oracle", "--format", "json"])
    assert code == 0
    want = (GOLDEN / "verify_catalog_oracle.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
