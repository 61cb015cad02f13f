"""Classical values recomputed from scratch as end-to-end confirmations.

The kernel of the exterior-square structure map at q = 0 is the usual
homological multiplier of the algebra, so a handful of textbook values make
good whole-pipeline oracles.
"""

from lieq.exactlin import unit_vec
from lieq.io_catalog import Catalog, strictly_upper
from lieq.liealg import derivations, lie_algebra
from lieq.qtensor import q_exterior_product, q_tensor_product, xi


def test_heisenberg_multiplier_is_rank_two():
    pe = q_exterior_product(Catalog.get("heisenberg"), None, 0)
    assert pe.invariant_factors() == (0, 0, 0)
    assert xi(pe).kernel().invariant_factors == (0, 0)


def test_sl2_universal_central_extension_is_trivial():
    # over fields of characteristic >= 5 the multiplier of sl2 vanishes,
    # so the structure map from the (tensor = exterior) square is an
    # isomorphism onto the algebra
    for name in ("sl2@Z/5", "sl2@Z/7"):
        g = Catalog.get(name)
        pt = q_tensor_product(g, None, 0)
        assert pt.invariant_factors() == g.orders
        hom = xi(pt)
        assert hom.kernel().is_zero()
        assert hom.hom.is_surjective()


def test_derivation_algebra_ranks():
    assert derivations(Catalog.get("heisenberg")).orders == (0,) * 6
    assert derivations(Catalog.get("Z^2")).orders == (0,) * 4


def test_scale_ladder_squares_at_q2():
    # the larger algebras of the benchmark's scale ladder: n5 (rank 10) and
    # the filiform L8 with [e1, ei] = e(i+1)
    l8 = lie_algebra([0] * 8, {(0, i): unit_vec(8, i + 1) for i in range(1, 7)})
    cases = ((strictly_upper(5), [2] * 21 + [0] * 10, [2] * 11 + [0] * 10),
             (l8, [2] * 7 + [0] * 8, [2] * 4 + [0] * 8))
    for g, tensor, exterior in cases:
        pt = q_tensor_product(g, None, 2)
        pe = q_exterior_product(g, None, 2)
        assert list(pt.invariant_factors()) == tensor, g.name
        assert list(pe.invariant_factors()) == exterior, g.name
        xi(pt)  # the xi check raises if a bracket is not preserved
        xi(pe)
