"""Centers, verdicts, flags, coincidence, and inclusion chains."""

from lieq.capability import (
    capability_theorem_applicable,
    center_report,
    coincidence_check,
    ellis_centers,
    exterior_center,
    is_q_capable,
    is_strongly_q_capable,
    lambda_q_torsion_free,
    tensor_center,
)
from lieq import exactlin
from lieq.io_catalog import Catalog, heisenberg, strictly_upper
from lieq.liealg import derived_ideal, lie_algebra
from lieq.qtensor import q_exterior_product, q_tensor_product


def test_torsion_flags():
    assert lambda_q_torsion_free(0, 0) and lambda_q_torsion_free(0, 7)
    assert lambda_q_torsion_free(5, 2) and lambda_q_torsion_free(5, 3)
    assert not lambda_q_torsion_free(6, 4)
    assert not lambda_q_torsion_free(2, 0)
    assert capability_theorem_applicable(2, 0)  # classical case
    assert not capability_theorem_applicable(2, 2)


def test_exterior_center_examples():
    z = Catalog.get("Z")
    for q in (1, 2, 3):
        assert exterior_center(z, q).is_zero()
    assert exterior_center(Catalog.get("Z/2"), 2).is_zero()
    assert exterior_center(Catalog.get("zero"), 2).is_zero()
    # at q = 0 braces are absent and the rank-one wedge vanishes
    assert exterior_center(z, 0).invariant_factors == (0,)


def test_tensor_center_examples():
    assert tensor_center(Catalog.get("zero"), 3).is_zero()
    assert tensor_center(Catalog.get("Z"), 2).is_zero()


def test_ellis_centers_examples():
    z = Catalog.get("Z")
    for q in (1, 2, 3):
        zt, ze = ellis_centers(z, q)
        assert ze.invariant_factors == (0,)
        assert not ze.is_zero()
    zt, _ = ellis_centers(z, 2)
    assert zt.contains_vec((2,)) and not zt.contains_vec((1,))
    sl2 = Catalog.get("sl2@Z/5")
    zt, ze = ellis_centers(sl2, 2)
    assert zt.is_zero() and ze.is_zero()


def test_capability_verdicts():
    z = Catalog.get("Z")
    for q in (1, 2, 3, 4, 6):
        assert is_q_capable(z, q).value
        assert not is_strongly_q_capable(z, q).value
    assert not is_q_capable(z, 0).value  # no nonzero cyclic algebra is capable
    assert is_q_capable(Catalog.get("Z/2"), 2).value
    assert is_q_capable(Catalog.get("zero"), 5).value
    assert is_strongly_q_capable(Catalog.get("zero"), 5).value
    # over the base ring Z/2 itself, gcd(2, 2) > 1: criterion value only
    v = is_q_capable(lie_algebra([2], {}, 2, "Z/2@Z/2"), 2)
    assert v.value and not v.theorem_backed
    assert is_strongly_q_capable(Catalog.get("sl2@Z/5"), 2).value


def test_coincidence():
    z = Catalog.get("Z")
    rep = coincidence_check(z, 2)
    assert rep.hypothesis_met and rep.equal and rep.ok
    rep = coincidence_check(Catalog.get("sl2@Z/5"), 2)
    assert rep.hypothesis_met and rep.equal
    rep = coincidence_check(lie_algebra([2, 4], {}, 0, "Z/2+Z/4"), 4)
    assert not rep.hypothesis_met and rep.equal is None and rep.ok


def test_coincidence_q0_counterexample_is_recorded_not_asserted():
    """At q = 0 the brace argument is unavailable and g = Z separates the
    centers while meeting the freeness hypothesis."""
    rep = coincidence_check(Catalog.get("Z"), 0)
    assert rep.hypothesis_met and not rep.braces_available
    assert rep.tensor_center_factors == ()
    assert rep.exterior_center_factors == (0,)
    assert rep.ok  # recorded, not asserted


def test_center_report_inclusions_catalog():
    for name in ("Z", "Z/2", "Z/6", "heisenberg", "heisenberg@Z/2", "sl2@Z/5"):
        g = Catalog.get(name)
        for q in (0, 1, 2, 3, 4, 6):
            rep = center_report(g, q)
            assert rep.inclusion_failures() == [], (name, q)


def test_center_report_json_shape():
    rep = center_report(Catalog.get("Z"), 2)
    d = rep.to_json_dict()
    assert d["schema_version"] == 1
    assert set(d["centers"]) == {
        "center", "q_center", "tensor_center", "exterior_center",
        "ellis_tensor_center", "ellis_exterior_center"}
    assert d["centers"]["exterior_center"]["invariant_factors"] == []
    assert d["centers"]["ellis_exterior_center"]["invariant_factors"] == [0]
    assert d["verdicts"]["q_capable"]["value"] is True
    assert d["verdicts"]["strongly_q_capable"]["value"] is False


def test_products_and_centers_are_memoized_per_algebra():
    g = heisenberg()
    zt = tensor_center(g, 2)
    assert tensor_center(g, 2) is zt
    assert ellis_centers(g, 2)[1] is ellis_centers(g, 2)[1]
    assert exterior_center(g, 2) is not exterior_center(g, 3)
    assert q_tensor_product(g, None, 2) is q_tensor_product(g, None, 2)
    assert q_exterior_product(g, None, 2) is not q_tensor_product(g, None, 2)
    h = derived_ideal(g)
    assert q_tensor_product(g, h, 2) is not q_tensor_product(g, h, 2)
    # a fresh algebra object starts with an empty memo
    assert tensor_center(heisenberg(), 2) is not zt
    rep = center_report(g, 2)
    assert rep.tensor_center is zt
    assert rep.q_capable == is_q_capable(g, 2)
    assert rep.strongly_q_capable == is_strongly_q_capable(g, 2)


def test_tensor_center_is_one_hermite_form_on_the_nonzero_smith_columns(monkeypatch):
    g = strictly_upper(5)
    q_tensor_product(g, None, 2)
    shapes = []
    real = exactlin.hnf_rows

    def spy(rows, ncols):
        rows = list(rows)
        shapes.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(exactlin, "hnf_rows", spy)
    tensor_center(g, 2)
    # 10 source rows and columns beside the 63 of 341 Smith columns that are
    # nonzero modulo their order, over one modulus row per finite column
    assert shapes == [(43, 73)]
