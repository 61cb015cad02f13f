"""File format round trips, catalog integrity, and report determinism."""

import pytest

from lieq.capability import center_report
from lieq.cli import main
from lieq.errors import AlgebraSyntaxError, DuplicateBracket, ValidationError
from lieq.io_catalog import (
    Catalog,
    DEFAULT_CATALOG,
    parse,
    resolve_input,
    serialize,
    write_report,
)
from lieq.liealg import validate
from lieq.qtensor import right_exact_check
from lieq.verify import default_right_exact_pairs


def test_parse_minimal():
    g = parse("ring: Z\ngenerators: e1\n")
    assert g.orders == (0,) and g.is_abelian()


def test_parse_heisenberg_with_comments():
    g = parse("# upper triangular\nring: Z\n"
              "generators: x y z\n"
              "orders: 0 0 0\n"
              "bracket: [x,y] = z   # the only bracket\n")
    assert g.table[0][1] == (0, 0, 1)


def test_parse_combinations_and_reversed_pairs():
    g = parse("ring: Z/5\ngenerators: a b c\n"
              "bracket: [b,a] = -2*c + a\n")
    # [a,b] = 2c - a, canonicalized mod 5
    assert g.table[0][1] == (4, 0, 2)


def test_parse_errors():
    with pytest.raises(AlgebraSyntaxError):
        parse("ring: Q\ngenerators: x\n")
    with pytest.raises(AlgebraSyntaxError):
        parse("ring: Z\ngenerators: x\nbracket: [x,x] = x\n")
    with pytest.raises(DuplicateBracket):
        parse("ring: Z\ngenerators: x y z\nbracket: [x,y] = z\n"
              "bracket: [y,x] = z\n")
    with pytest.raises(AlgebraSyntaxError):
        parse("ring: Z\ngenerators: x y\nbracket: [x,w] = y\n")
    with pytest.raises(AlgebraSyntaxError):
        parse("generators: x\n")
    with pytest.raises(ValidationError):
        parse("ring: Z\ngenerators: x y z\n"
              "bracket: [x,y] = z\nbracket: [x,z] = x\n")


HEAD = "ring: Z\ngenerators: x y z\n"


@pytest.mark.parametrize("text, error, message", [
    # _parse_combination
    (HEAD + "bracket: [x,y] =  \n", AlgebraSyntaxError,
     "line 3: empty right-hand side"),
    (HEAD + "bracket: [x,y] = two*z\n", AlgebraSyntaxError,
     "line 3: bad coefficient 'two'"),
    (HEAD + "bracket: [x,y] = 2*w\n", AlgebraSyntaxError,
     "line 3: unknown generator 'w'"),
    (HEAD + "bracket: [x,y] = z + 1\n", AlgebraSyntaxError,
     "line 3: constant terms other than 0 are not elements"),
    # parse, in the order of its checks
    ("ring Z\n", AlgebraSyntaxError, "line 1: expected 'key: value', got 'ring Z'"),
    ("ring: Z\nring: Z\n", AlgebraSyntaxError, "line 2: repeated 'ring:' line"),
    ("ring: Z/two\n", AlgebraSyntaxError, "line 1: bad modulus in 'Z/two'"),
    ("ring: Z/1\n", AlgebraSyntaxError, "line 1: modulus must be >= 2"),
    ("ring: Q\n", AlgebraSyntaxError, "line 1: unknown ring 'Q'"),
    ("ring: Z\ngenerators: x 2y\n", AlgebraSyntaxError,
     "line 2: generator names must be identifiers"),
    ("ring: Z\ngenerators: x x\n", AlgebraSyntaxError,
     "line 2: duplicate generator name"),
    (HEAD + "orders: 0 two 0\n", AlgebraSyntaxError,
     "line 3: orders must be integers"),
    (HEAD + "orders: 0 -2 0\n", AlgebraSyntaxError,
     "line 3: orders must be non-negative"),
    ("ring: Z\nbracket: [x,y] = z\n", AlgebraSyntaxError,
     "line 2: bracket before generators"),
    (HEAD + "bracket: x y = z\n", AlgebraSyntaxError,
     "line 3: malformed bracket line 'bracket: x y = z'"),
    (HEAD + "bracket: [x,w] = z\n", AlgebraSyntaxError,
     "line 3: unknown generator in [x,w]"),
    (HEAD + "bracket: [y,y] = z\n", AlgebraSyntaxError,
     "line 3: diagonal bracket [y,y] is forbidden (alternating)"),
    (HEAD + "bracket: [x,y] = z\nbracket: [y,x] = z\n", DuplicateBracket,
     "line 4: pair [y,x] assigned twice"),
    (HEAD + "basis: x y z\n", AlgebraSyntaxError, "line 3: unknown key 'basis'"),
    ("generators: x\n", AlgebraSyntaxError, "line 0: missing 'ring:' line"),
    ("ring: Z/2\n", AlgebraSyntaxError, "line 0: missing 'generators:' line"),
    (HEAD + "orders: 0 0\n", AlgebraSyntaxError,
     "line 0: orders count does not match generators"),
])
def test_parse_input_checks(text, error, message):
    # every raise in parse and _parse_combination, matched by its message
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error and str(err.value) == message


def test_parse_rejects_repeated_header_lines(tmp_path, capsys):
    # a second generators line after a bracket line: validate used to crash
    # with an IndexError traceback and exit 1
    text = "ring: Z\ngenerators: a b c\nbracket: [a,b] = c\ngenerators: x y\n"
    with pytest.raises(AlgebraSyntaxError, match="line 4: repeated 'generators:'"):
        parse(text)
    path = tmp_path / "regenerated.lieq"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "repeated 'generators:' line" in capsys.readouterr().err
    # a second ring line used to win silently
    with pytest.raises(AlgebraSyntaxError, match="line 2: repeated 'ring:'"):
        parse("ring: Z\nring: Z/2\ngenerators: x\n")
    with pytest.raises(AlgebraSyntaxError, match="line 4: repeated 'orders:'"):
        parse("ring: Z\ngenerators: x\norders: 0\norders: 2\n")


def test_roundtrip_catalog():
    for name in DEFAULT_CATALOG:
        g = Catalog.get(name)
        assert validate(g).ok
        g2 = parse(serialize(g), g.name)
        assert g2.orders == g.orders
        assert g2.table == g.table


def test_resolve_input(tmp_path):
    path = tmp_path / "h3.lieq"
    path.write_text(serialize(Catalog.get("heisenberg")), encoding="utf-8")
    g = resolve_input(str(path))
    assert g.orders == (0, 0, 0)
    assert resolve_input("catalog:Z").orders == (0,)
    with pytest.raises(KeyError):
        resolve_input("catalog:nope")


def test_write_report_deterministic(tmp_path):
    rep1 = center_report(Catalog.get("Z"), 2)
    rep2 = center_report(Catalog.get("Z"), 2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(rep1, p1)
    write_report(rep2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert '"schema_version": 1' in text


def test_zero_algebra_report_all_trivial():
    rep = center_report(Catalog.get("zero"), 3)
    d = rep.to_json_dict()
    for c in d["centers"].values():
        assert c["invariant_factors"] == []
    assert d["verdicts"]["q_capable"]["value"] is True
    assert d["verdicts"]["strongly_q_capable"]["value"] is True


def test_sequence_report_writable(tmp_path):
    label, g, h = default_right_exact_pairs()[0]
    rep = right_exact_check(g, h, 2, "exterior")
    write_report(rep, tmp_path / "seq.json")
    assert "exact_middle" in (tmp_path / "seq.json").read_text()
