"""Machine verification of the library's structural theorems.

Each check instantiates one proved property on concrete algebras and reports
(criterion, instance, verdict); `lieq verify` and the acceptance test suite
both run these. Failures are data, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from lieq import capability, qtensor, testkit
from lieq.errors import ValidationError
from lieq.exactlin import FpModule
from lieq.liealg import (
    Ideal,
    LieAlgebra,
    center,
    derived_ideal,
    inner_q_derivations,
    is_q_perfect,
    lie_algebra,
    q_center,
)

DEFAULT_QS = (0, 1, 2, 3, 4, 6)


@dataclass
class CheckResult:
    criterion: str
    instance: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{mark}  {self.criterion}  {self.instance}{extra}"


def _res(criterion, instance, ok, detail=""):
    return CheckResult(criterion, instance, bool(ok), detail)


# -- 1: closed form of abelian squares --------------------------------------

def check_abelian_decomposition(entries, qs=DEFAULT_QS) -> list:
    out = []
    for name, g in entries:
        if not g.is_abelian():
            continue
        for q in qs:
            rep = qtensor.abelian_square_check(g, q)
            out.append(_res(
                "1 abelian-decomposition", f"{name} q={q}", rep.ok,
                f"tensor {list(rep.tensor_factors)} vs {list(rep.tensor_expected)}, "
                f"exterior {list(rep.exterior_factors)} vs {list(rep.exterior_expected)}"))
    return out


# -- 2: the brace of an image is q times the element ------------------------

def check_brace_identity(entries, qs=(1, 2, 3)) -> list:
    out = []
    for name, g in entries:
        for q in qs:
            if q == 0:
                continue
            for kind, build in (("tensor", qtensor.q_tensor_product),
                                ("exterior", qtensor.q_exterior_product)):
                ok, wit = qtensor.check_brace_identity(build(g, None, q))
                out.append(_res("2 brace-identity", f"{name} q={q} {kind}", ok,
                                "" if ok else f"witness {wit[0]}"))
    return out


# -- 3: products carry a crossed-module structure ----------------------------

def check_crossed_modules(entries, qs=(0, 2, 3)) -> list:
    out = []
    for name, g in entries:
        for q in qs:
            for kind, build in (("tensor", qtensor.q_tensor_product),
                                ("exterior", qtensor.q_exterior_product)):
                try:  # building the crossed module certifies it
                    qtensor.product_action(build(g, None, q))
                    ok, detail = True, ""
                except ValidationError as exc:
                    ok, detail = False, str(exc.report)
                except Exception as exc:  # any other raise is a failure too
                    ok, detail = False, repr(exc)
                out.append(_res("3 crossed-module", f"{name} q={q} {kind}", ok, detail))
    return out


# -- 4: quadratic functor measures tensor-vs-exterior ------------------------

def check_gamma_sequence(entries, qs=(0, 2, 3)) -> list:
    out = []
    for name, g in entries:
        for q in qs:
            rep = qtensor.gamma_sequence_check(g, q)
            detail = (f"exact={rep.exact} bracket-trivial={rep.image_bracket_trivial}"
                      f" free={rep.hypothesis_free} injective={rep.injective}")
            out.append(_res("4 gamma-sequence", f"{name} q={q}", rep.ok, detail))
    return out


# -- 5: right exactness -------------------------------------------------------

def default_right_exact_pairs():
    from lieq.io_catalog import Catalog
    h3 = Catalog.get("heisenberg")
    n4 = Catalog.get("n4")
    return [
        ("heisenberg/center", h3, Ideal(h3, center(h3))),
        ("n4/derived", n4, derived_ideal(n4)),
    ]


def check_right_exactness(pairs=None, qs=(0, 2)) -> list:
    out = []
    if pairs is None:
        pairs = default_right_exact_pairs()
    for label, g, h in pairs:
        for q in qs:
            for kind in ("exterior", "curly"):
                rep = qtensor.right_exact_check(g, h, q, kind)
                out.append(_res("5 right-exactness", f"{label} q={q} {kind}",
                                rep.ok, f"exact={rep.exact_middle} "
                                        f"surjective={rep.surjective_end}"))
    return out


# -- 6: tensor and exterior centers coincide under freeness -------------------

def check_center_coincidence(entries, qs=DEFAULT_QS) -> list:
    out = []
    for name, g in entries:
        for q in qs:
            rep = capability.coincidence_check(g, q)
            inst = f"{name} q={q}"
            if rep.asserted:
                out.append(_res("6 center-coincidence", inst, rep.equal,
                                f"both {list(rep.tensor_center_factors)}"
                                if rep.equal else
                                f"{list(rep.tensor_center_factors)} vs "
                                f"{list(rep.exterior_center_factors)}"))
            else:
                why = ("no braces at q=0" if not rep.braces_available
                       else "hypothesis not met")
                out.append(_res("6 center-coincidence", inst, True,
                                f"{why}; centers recorded"))
    return out


# -- 7: the free rank-one example --------------------------------------------

def check_free_rank_one_example(qs=(1, 2, 3, 4, 6)) -> list:
    from lieq.io_catalog import Catalog
    g = Catalog.get("Z")
    out = []
    for q in qs:
        rep = capability.center_report(g, q)
        ok = (rep.exterior_center.is_zero()
              and rep.ellis_exterior_center.invariant_factors == (0,)
              and not rep.ellis_exterior_center.is_zero()
              and rep.q_capable.value
              and not rep.strongly_q_capable.value)
        out.append(_res("7 rank-one-example", f"Z q={q}", ok,
                        "capable but not strongly capable"))
    return out


# -- 8: perfect algebras ------------------------------------------------------

def check_perfect_algebras(entries, qs=(0, 2, 3)) -> list:
    out = []
    for name, g in entries:
        if not is_q_perfect(g, 0):
            continue
        z = center(g)
        for q in qs:
            rep = capability.center_report(g, q)
            equal = (rep.ellis_tensor_center.same(rep.ellis_exterior_center)
                     and rep.ellis_exterior_center.same(z))
            out.append(_res("8 perfect-centers", f"{name} q={q}", equal,
                            f"all = {list(z.invariant_factors)}"))
            if rep.strongly_q_capable.theorem_backed and z.is_zero():
                out.append(_res("8 perfect-strong-capability", f"{name} q={q}",
                                rep.strongly_q_capable.value, ""))
    return out


# -- 9: inclusion chains ------------------------------------------------------

def check_inclusion_chains(entries, qs=DEFAULT_QS) -> list:
    out = []
    for name, g in entries:
        for q in qs:
            fails = capability.center_report(g, q).inclusion_failures()
            out.append(_res("9 inclusion-chains", f"{name} q={q}", not fails,
                            "; ".join(fails)))
    return out


# -- 10: brute-force oracles --------------------------------------------------

def oracle_rank2_algebras():
    algs = []
    for m in (2, 3):
        algs.append(lie_algebra([m], {}, m, f"abelian(Z/{m})"))
        for a in range(m):
            for b in range(m):
                algs.append(lie_algebra([m, m], {(0, 1): (a, b)}, m,
                                        f"rank2[{a},{b}]@Z/{m}"))
    return algs


def check_oracle_products(qs=(0, 1, 2, 3, 4)) -> list:
    out = []
    for g in oracle_rank2_algebras():
        table = testkit.BracketTable(g)
        for q in qs:
            for kind, build in (("tensor", qtensor.q_tensor_product),
                                ("exterior", qtensor.q_exterior_product)):
                brute = testkit.brute_q_square(g, q, kind, table)
                pipe = tuple(sorted(build(g, None, q).invariant_factors()))
                out.append(_res("10 oracle-products", f"{g.name} q={q} {kind}",
                                brute == pipe,
                                f"brute {list(brute)} vs snf {list(pipe)}"))
    return out


def _abelian_groups_up_to(bound: int):
    def partitions(k):
        def rec(k, mx):
            if k == 0:
                yield []
                return
            for first in range(min(k, mx), 0, -1):
                for rest in rec(k - first, first):
                    yield [first] + rest
        yield from rec(k, k)

    for n in range(1, bound + 1):
        fact = {}
        m = n
        d = 2
        while d * d <= m:
            while m % d == 0:
                fact[d] = fact.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            fact[m] = fact.get(m, 0) + 1
        groupings = [[]]
        for p, e in fact.items():
            groupings = [base + [(p, lam)] for base in groupings
                         for lam in partitions(e)]
        for gset in groupings:
            width = max((len(lam) for _, lam in gset), default=0)
            orders = []
            for j in range(width):
                dj = 1
                for p, lam in gset:
                    if j < len(lam):
                        dj *= p ** lam[j]
                orders.append(dj)
            yield sorted(orders)


def check_oracle_gamma(bound: int = 16) -> list:
    out = []
    for orders in _abelian_groups_up_to(bound):
        brute = testkit.brute_gamma(orders)
        closed = qtensor.gamma(FpModule.diagonal(orders)).module.invariant_factors
        out.append(_res("10 oracle-gamma", f"A={orders}",
                        tuple(brute) == tuple(sorted(closed)),
                        f"brute {list(brute)} vs closed {list(closed)}"))
    return out


# -- 11: inner q-derivations ---------------------------------------------------

def check_inner_derivations(entries, qs=(0, 2)) -> list:
    out = []
    for name, g in entries:
        for q in qs:
            try:  # building the crossed module certifies it
                _, xm = inner_q_derivations(g, q)
                exact = xm.mu.kernel().same(q_center(g, q))
                ok, detail = exact, f"crossed=True kernel=q-center:{exact}"
            except ValidationError as exc:
                ok, detail = False, str(exc.report)
            out.append(_res("11 inner-derivations", f"{name} q={q}", ok, detail))
    return out


# -- negative control ----------------------------------------------------------

def check_negative_control() -> list:
    """A deliberately corrupted bracket table must fail validation."""
    try:
        lie_algebra([0, 0, 0], {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}, 0, "bad")
    except ValidationError as exc:
        ok = any(i.kind == "jacobi" for i in exc.report.issues)
        return [_res("negative-control", "corrupted constants", ok,
                     str(exc.report.issues[0]))]
    return [_res("negative-control", "corrupted constants", False,
                 "validator accepted a non-Jacobi table")]


# -- suite ---------------------------------------------------------------------

def run_suite(entries: Sequence, qs=DEFAULT_QS, include_oracle: bool = False,
              right_exact_pairs=None) -> list:
    """Run every theorem check on the given (name, algebra) entries.

    Results are sorted by (criterion, instance).
    """
    results = [
        *check_abelian_decomposition(entries, qs),
        *check_brace_identity(entries),
        *check_crossed_modules(entries),
        *check_gamma_sequence(entries),
        *check_right_exactness(right_exact_pairs),
        *check_center_coincidence(entries, qs),
        *check_perfect_algebras(entries),
        *check_inclusion_chains(entries, qs),
        *check_inner_derivations(entries),
        *check_negative_control(),
    ]
    if any(name == "Z" for name, _ in entries):
        results += check_free_rank_one_example()
    if include_oracle:
        results += check_oracle_products()
        results += check_oracle_gamma()
    results.sort(key=lambda r: (r.criterion, r.instance))
    return results


def single_algebra_pairs(name: str, g: LieAlgebra):
    """Right-exactness instances for one algebra: its center and derived ideal."""
    return [
        (f"{name}/center", g, Ideal(g, center(g))),
        (f"{name}/derived", g, derived_ideal(g)),
    ]


@dataclass
class SuiteReport:
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "verify",
            "all_passed": self.ok,
            "checks": [
                {"criterion": r.criterion, "instance": r.instance,
                 "ok": r.ok, "detail": r.detail}
                for r in self.results
            ],
        }
