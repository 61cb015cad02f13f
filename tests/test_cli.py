"""CLI surface: subcommands, exit codes, deterministic output."""

import json

import pytest

from lieq.cli import main
from lieq.io_catalog import Catalog, serialize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_capability_z_q2(capsys):
    code, out, _ = run(capsys, "capability", "--q", "2", "catalog:Z")
    assert code == 0
    assert "q_capable=True" in out and "strongly_q_capable=False" in out


def test_product_exterior_z_q2(capsys):
    code, out, _ = run(capsys, "product", "--q", "2", "--kind", "exterior",
                       "catalog:Z")
    assert code == 0
    assert "[0]" in out


def test_product_json_stable(capsys):
    code, out1, _ = run(capsys, "product", "--q", "2", "--format", "json",
                        "catalog:Z/2")
    code2, out2, _ = run(capsys, "product", "--q", "2", "--format", "json",
                         "catalog:Z/2")
    assert code == code2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["results"][0]["invariant_factors"] == [2, 2]


def test_centers_json(capsys):
    code, out, _ = run(capsys, "centers", "--q", "2", "--format", "json",
                       "catalog:Z")
    assert code == 0
    payload = json.loads(out)
    rep = payload["reports"][0]
    assert rep["centers"]["exterior_center"]["invariant_factors"] == []
    assert rep["centers"]["ellis_exterior_center"]["invariant_factors"] == [0]


def test_verify_single_algebra(capsys):
    code, out, _ = run(capsys, "verify", "catalog:heisenberg", "--q", "0,2")
    assert code == 0
    assert "ALL CHECKS PASSED" in out


def test_verify_fails_is_exit_one(capsys, tmp_path, monkeypatch):
    # a passing case first; failure paths are covered by validate below
    code, out, _ = run(capsys, "verify", "catalog:Z/3", "--q", "0,2")
    assert code == 0


def test_validate_good_and_bad(capsys, tmp_path):
    good = tmp_path / "h3.lieq"
    good.write_text(serialize(Catalog.get("heisenberg")), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0 and "ok" in out

    bad = tmp_path / "bad.lieq"
    bad.write_text("ring: Z\ngenerators: x y z\n"
                   "bracket: [x,y] = z\nbracket: [x,z] = x\n",
                   encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "jacobi" in err


def test_validate_certifies_once(capsys, tmp_path, monkeypatch):
    # reading the file builds and so certifies the algebra; the command
    # reports that verdict and walks no identity a second time
    from lieq import liealg
    calls = []
    certify = liealg._certify
    monkeypatch.setattr(liealg, "_certify",
                        lambda *args: calls.append(args[3]) or certify(*args))
    good = tmp_path / "h3.lieq"
    good.write_text(serialize(Catalog.get("heisenberg")), encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--format", "json", str(good))
    assert code == 0 and calls == ["h3"]
    payload = json.loads(out)
    assert payload["ok"] is True and payload["issues"] == []


def test_negative_q_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["product", "heisenberg", "--q", "0,-1"])
    assert exc.value.code == 2
    assert "argument --q: q must be non-negative" in capsys.readouterr().err


def test_syntax_error_is_exit_two(capsys, tmp_path):
    f = tmp_path / "syn.lieq"
    f.write_text("ring: Q\ngenerators: x\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2 and "unknown ring" in err
    code, _, err = run(capsys, "capability", "catalog:missing")
    assert code == 2


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("Z", "heisenberg", "sl2@Z/5", "n4", "zero"):
        assert name in out


def test_show_roundtrip(capsys):
    code, out, _ = run(capsys, "show", "catalog:sl2@Z/5")
    assert code == 0
    assert "ring: Z/5" in out and "bracket: [e1,e2] = e3" in out


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "centers", "--q", "2", "--format", "json",
                       "--output", str(target), "catalog:Z")
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["kind"] == "centers-sweep"

