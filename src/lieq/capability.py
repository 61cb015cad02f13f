"""The six centers of an algebra at a given q, and the capability verdicts.

All centers are kernels of "multiply into the product" maps computed through
the symbol presentations: the tensor and exterior centers additionally
require the brace coordinate to vanish, their Ellis variants drop it. The
capability criteria are decided from the exterior centers; each verdict
carries an applicability flag because the underlying equivalences are proved
over rings without q-torsion (q = 0 is the classical, always-covered case).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from lieq.exactlin import Submodule, block_kernel, is_free_over, ring_name
from lieq.liealg import LieAlgebra, center as algebra_center, q_abelianization, q_center
from lieq.qtensor import (QProduct, brace_terms, q_exterior_product, q_tensor_product,
                          tensor_terms)


def lambda_q_torsion_free(base_modulus: int, q: int) -> bool:
    """Whether q annihilates only zero in the base ring.

    Z is torsion-free for every q; Z/m exactly when gcd(q, m) = 1.
    """
    if base_modulus == 0:
        return True
    return gcd(q, base_modulus) == 1


def capability_theorem_applicable(base_modulus: int, q: int) -> bool:
    """Whether the capability criteria are theorem-backed at this (ring, q).

    q = 0 is the classical capability statement over any base; for q >= 1
    the proof chain needs the base ring q-torsion-free.
    """
    return q == 0 or lambda_q_torsion_free(base_modulus, q)


def _annihilator_kernel(prod: QProduct, include_brace: bool) -> Submodule:
    """Kernel of x -> (x*e_1, ..., x*e_n [, {x}]) through a product."""
    g = prod.algebra
    n = g.rank
    coords = [prod.ideal.coords(((a, 1),)) for a in range(n)]
    blocks = [(prod.module, [tensor_terms(n, c, ((j, 1),)) for c in coords])
              for j in range(n)]
    if include_brace and prod.has_braces:
        blocks.append((prod.module, [brace_terms(prod.p, n, c) for c in coords]))
    return block_kernel(g.module, blocks)


def _center(g: LieAlgebra, q: int, kind: str, brace: bool) -> Submodule:
    """The (kind, brace) center of the whole-algebra product, memoized on g."""
    build = q_tensor_product if kind == "tensor" else q_exterior_product
    return g.cached((kind, q, brace),
                    lambda: _annihilator_kernel(build(g, None, q), brace))


def tensor_center(g: LieAlgebra, q: int) -> Submodule:
    """Elements with vanishing brace and vanishing tensors with everything."""
    return _center(g, q, "tensor", True)


def exterior_center(g: LieAlgebra, q: int) -> Submodule:
    """Elements with vanishing brace and vanishing wedges with everything."""
    return _center(g, q, "exterior", True)


def ellis_centers(g: LieAlgebra, q: int):
    """The brace-free variants: (tensor-sense, exterior-sense)."""
    return _center(g, q, "tensor", False), _center(g, q, "exterior", False)


@dataclass
class Verdict:
    value: bool
    criterion: str
    theorem_backed: bool

    def to_json_dict(self):
        return {"value": self.value, "criterion": self.criterion,
                "theorem_backed": self.theorem_backed}


def _verdict(g: LieAlgebra, q: int, brace: bool) -> Verdict:
    """Whether the (brace or brace-free) exterior center vanishes."""
    return Verdict(
        value=_center(g, q, "exterior", brace).is_zero(),
        criterion=("exterior-center-trivial" if brace
                   else "ellis-exterior-center-trivial"),
        theorem_backed=capability_theorem_applicable(g.base_modulus, q),
    )


def is_q_capable(g: LieAlgebra, q: int) -> Verdict:
    """Criterion: the q-exterior center vanishes.

    The equivalence with being a quotient by a q-center is theorem-backed
    when the base ring has no q-torsion (or q = 0); otherwise the verdict
    reports the criterion value only.
    """
    return _verdict(g, q, brace=True)


def is_strongly_q_capable(g: LieAlgebra, q: int) -> Verdict:
    """Criterion: the brace-free exterior center vanishes."""
    return _verdict(g, q, brace=False)


@dataclass
class CoincidenceReport:
    """Tensor and exterior centers coincide under the freeness hypothesis.

    The coincidence argument runs through the brace section of the abelian
    decomposition, which only exists for q >= 1; at q = 0 both centers are
    recorded without an assertion (g = Z is a genuine counterexample there:
    the tensor center vanishes while the exterior center is everything).
    """

    hypothesis_met: bool
    braces_available: bool
    equal: Optional[bool]
    tensor_center_factors: tuple
    exterior_center_factors: tuple

    @property
    def asserted(self) -> bool:
        return self.hypothesis_met and self.braces_available

    @property
    def ok(self) -> bool:
        return bool(self.equal) if self.asserted else True


def coincidence_check(g: LieAlgebra, q: int) -> CoincidenceReport:
    hyp = is_free_over(*q_abelianization(g, q))
    zt = tensor_center(g, q)
    ze = exterior_center(g, q)
    return CoincidenceReport(
        hypothesis_met=hyp,
        braces_available=q >= 1,
        equal=zt.same(ze) if hyp else None,
        tensor_center_factors=zt.invariant_factors,
        exterior_center_factors=ze.invariant_factors,
    )


@dataclass
class CenterReport:
    """All six centers of one algebra at one q, with verdicts and flags."""

    algebra: str
    ring: str
    q: int
    center: Submodule
    q_center: Submodule
    tensor_center: Submodule
    exterior_center: Submodule
    ellis_tensor_center: Submodule
    ellis_exterior_center: Submodule
    q_capable: Verdict
    strongly_q_capable: Verdict
    flags: dict

    def inclusion_failures(self) -> list:
        """The nesting expected of the six centers; empty when all hold."""
        chains = [
            ("tensor_center <= exterior_center",
             self.exterior_center, self.tensor_center),
            ("exterior_center <= q_center", self.q_center, self.exterior_center),
            ("q_center <= center", self.center, self.q_center),
            ("tensor_center <= ellis_tensor_center",
             self.ellis_tensor_center, self.tensor_center),
            ("exterior_center <= ellis_exterior_center",
             self.ellis_exterior_center, self.exterior_center),
            ("ellis_tensor_center <= ellis_exterior_center",
             self.ellis_exterior_center, self.ellis_tensor_center),
            ("ellis_exterior_center <= center",
             self.center, self.ellis_exterior_center),
        ]
        return [label for label, big, small in chains if not big.contains(small)]

    def _center_dict(self, sub: Submodule) -> dict:
        return {
            "invariant_factors": list(sub.invariant_factors),
            "generators": [list(b) for b in sub.basis()],
        }

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "centers",
            "algebra": self.algebra,
            "ring": self.ring,
            "q": self.q,
            "centers": {
                "center": self._center_dict(self.center),
                "q_center": self._center_dict(self.q_center),
                "tensor_center": self._center_dict(self.tensor_center),
                "exterior_center": self._center_dict(self.exterior_center),
                "ellis_tensor_center": self._center_dict(self.ellis_tensor_center),
                "ellis_exterior_center": self._center_dict(self.ellis_exterior_center),
            },
            "verdicts": {
                "q_capable": self.q_capable.to_json_dict(),
                "strongly_q_capable": self.strongly_q_capable.to_json_dict(),
            },
            "flags": dict(self.flags),
        }


def center_report(g: LieAlgebra, q: int) -> CenterReport:
    zt, ze_ellis = ellis_centers(g, q)
    zw = exterior_center(g, q)
    zo = tensor_center(g, q)
    torsion_free = lambda_q_torsion_free(g.base_modulus, q)
    return CenterReport(
        algebra=g.name,
        ring=ring_name(g.base_modulus),
        q=q,
        center=algebra_center(g),
        q_center=q_center(g, q),
        tensor_center=zo,
        exterior_center=zw,
        ellis_tensor_center=zt,
        ellis_exterior_center=ze_ellis,
        q_capable=_verdict(g, q, brace=True),
        strongly_q_capable=_verdict(g, q, brace=False),
        flags={
            "lambda_q_torsion_free": torsion_free,
            "capability_theorem_backed": capability_theorem_applicable(
                g.base_modulus, q),
        },
    )
