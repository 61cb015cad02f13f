"""Workload inputs and operations of the lieq benchmark.

Every workload is a list of ops run one at a time, in a closed loop, against
the public API of ``lieq``. An op returns the canonical part of its result:
invariant factors, whether each center is zero, verdicts and flags, and each
check's pass/fail. Generator vectors are never compared, because a change of
algorithm may legitimately report other generators for the same submodule.

Algebras are built through the builders, never through ``Catalog.get`` (only
``verify.check_free_rank_one_example`` calls it, from inside the library, as
it does under the CLI). Each pass runs in a fresh process, so neither the
catalog cache nor an algebra's product cache carries over from one pass to
the next. Within a pass the algebra objects are shared the way
``verify.run_suite`` shares them.

The seed only orders the ops: the catalog checks within each check function,
the reports and products of the other catalog workloads, and the conjugates
of ``coefficient-growth``. No op's work depends on the order, since each op
meets the same cache state in any order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from lieq import capability, io_catalog, liealg, qtensor, verify
from lieq.exactlin import apply_matrix, unit_vec

WORKLOADS = ("verify-catalog", "centers-sweep", "scale-ladder",
             "coefficient-growth")

QS = verify.DEFAULT_QS

# One builder call per DEFAULT_CATALOG entry, as io_catalog registers them.
# Library functions are looked up when an op runs, never bound earlier, so
# the traced run's wrappers see every call.
CATALOG = {
    "zero": lambda: io_catalog.zero_algebra(),
    "Z": lambda: io_catalog.abelian([0], 0, "Z"),
    "Z^2": lambda: io_catalog.abelian([0, 0], 0, "Z^2"),
    "Z/2": lambda: io_catalog.abelian([2], 0, "Z/2"),
    "Z/3": lambda: io_catalog.abelian([3], 0, "Z/3"),
    "Z/6": lambda: io_catalog.abelian([6], 0, "Z/6"),
    "(Z/4)^2": lambda: io_catalog.abelian([4, 4], 0, "(Z/4)^2"),
    "Z+Z/2": lambda: io_catalog.abelian([0, 2], 0, "Z+Z/2"),
    "heisenberg": lambda: io_catalog.heisenberg(),
    "heisenberg@Z/2": lambda: io_catalog.heisenberg(2),
    "n4": lambda: io_catalog.strictly_upper(4),
    "sl2@Z/5": lambda: io_catalog.sl2(5),
    "sl2@Z/7": lambda: io_catalog.sl2(7),
}

# The checks of `lieq verify catalog --oracle`, in run_suite's order. True:
# run_suite passes its q list; False: the check's own default q list; None:
# the check takes no algebra list and runs once.
SUITE = (
    ("check_abelian_decomposition", True),
    ("check_brace_identity", False),
    ("check_crossed_modules", False),
    ("check_gamma_sequence", False),
    ("check_right_exactness", None),
    ("check_center_coincidence", True),
    ("check_perfect_algebras", False),
    ("check_inclusion_chains", True),
    ("check_inner_derivations", False),
    ("check_negative_control", None),
    ("check_free_rank_one_example", None),
    ("check_oracle_products", None),
    ("check_oracle_gamma", None),
)

# Size of the coefficient-growth inputs: basis changes whose entries reach 6
# bits, on 100 conjugates of rank-3 heisenberg per pass. Kernel outputs then
# reach thousands of bits while each op stays under 0.2 s. Larger changes, or
# rank 4 and up (filiform L4, h5, n4, even at 4 bits), send some ops past a
# minute: the unbounded growth of ROADMAP item 5.
GROWTH_BITS = 6
GROWTH_INSTANCES = 100


@dataclass
class Op:
    key: str                    # unique within the pass
    expect: str                 # key of the expected canonical result
    run: Callable[[], object]   # does the work, returns the canonical result


# -- canonical results -------------------------------------------------------

def canon_checks(results) -> dict:
    return {"checks": [[r.criterion, r.instance, r.ok] for r in results]}


def canon_centers(rep) -> dict:
    subs = (("center", rep.center), ("q_center", rep.q_center),
            ("tensor_center", rep.tensor_center),
            ("exterior_center", rep.exterior_center),
            ("ellis_tensor_center", rep.ellis_tensor_center),
            ("ellis_exterior_center", rep.ellis_exterior_center))
    return {
        "centers": {label: [list(sub.invariant_factors), sub.is_zero()]
                    for label, sub in subs},
        "verdicts": {v: [getattr(rep, v).value, getattr(rep, v).theorem_backed]
                     for v in ("q_capable", "strongly_q_capable")},
        "flags": dict(rep.flags),
    }


# -- algebras built in code ----------------------------------------------------

def filiform(n: int):
    """L_n: [e1, ei] = e(i+1) for 2 <= i < n."""
    return liealg.lie_algebra([0] * n, {(0, i): unit_vec(n, i + 1)
                                        for i in range(1, n - 1)}, 0, f"L{n}")


def heisenberg_odd(k: int):
    """h_(2k+1): [x_i, y_i] = z."""
    n = 2 * k + 1
    return liealg.lie_algebra([0] * n, {(i, k + i): unit_vec(n, n - 1)
                                        for i in range(k)}, 0, f"h{n}")


def unimodular(rng: random.Random, n: int, bits: int):
    """A seeded basis change P with its inverse, det P = +-1.

    P is a product of elementary row operations with multipliers in
    [-3, 3], applied until an entry of P or its inverse reaches ``bits`` bits,
    then one row is negated with probability 1/2.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [[int(i == j) for j in range(n)] for i in range(n)]
    while max(abs(x) for r in p + pinv for x in r).bit_length() < bits:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in pinv:        # P' = E P, so P'^-1 = P^-1 E^-1
            row[j] -= c * row[i]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        p[i] = [-x for x in p[i]]
        for row in pinv:
            row[i] = -row[i]
    return p, pinv


def conjugate(g, p, pinv, name: str):
    """The Z-algebra g on the basis f_i = sum_a p[i][a] e_a."""
    n = g.rank
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = apply_matrix(g.bracket(p[i], p[j]), pinv, n)
            if any(w):
                brackets[(i, j)] = w
    return liealg.lie_algebra([0] * n, brackets, 0, name)


# -- workloads -------------------------------------------------------------------

def _verify_ops(rng):
    entries = {name: build() for name, build in CATALOG.items()}
    missing = set(io_catalog.DEFAULT_CATALOG) ^ set(entries)
    if missing:
        raise RuntimeError(f"catalog changed: {sorted(missing)}")

    def right_exactness():
        # verify.default_right_exact_pairs, on this pass's algebra objects
        h3, n4 = entries["heisenberg"], entries["n4"]
        pairs = [("heisenberg/center", h3, liealg.Ideal(h3, liealg.center(h3))),
                 ("n4/derived", n4, liealg.derived_ideal(n4))]
        return canon_checks(verify.check_right_exactness(pairs))

    ops = []
    for check, takes_qs in SUITE:
        if takes_qs is None:
            if check == "check_right_exactness":
                run = right_exactness
            else:
                run = (lambda c=check: canon_checks(getattr(verify, c)()))
            ops.append(Op(check, check, run))
            continue
        names = list(io_catalog.DEFAULT_CATALOG)
        rng.shuffle(names)
        for name in names:
            def run(c=check, e=[(name, entries[name])], qs=takes_qs):
                fn = getattr(verify, c)
                return canon_checks(fn(e, QS) if qs else fn(e))
            key = f"{check} {name}"
            ops.append(Op(key, key, run))
    return ops


def _centers_ops(rng):
    ops = []
    for name, build in CATALOG.items():
        g = build()
        for q in QS:
            def run(g=g, q=q):
                rep = capability.center_report(g, q)
                io_catalog.report_json(rep)
                return canon_centers(rep)
            key = f"{name} q={q}"
            ops.append(Op(key, key, run))
    rng.shuffle(ops)
    return ops


def _ladder_ops(rng):
    ops = []
    for g in (io_catalog.strictly_upper(5), filiform(6), filiform(8),
              heisenberg_odd(2), heisenberg_odd(3)):
        for q in (0, 2):
            for kind in ("tensor", "exterior"):
                def run(g=g, q=q, kind=kind):
                    prod = getattr(qtensor, f"q_{kind}_product")(g, None, q)
                    prod.xi()
                    return {"factors": list(prod.invariant_factors())}
                key = f"{g.name} {kind} q={q}"
                ops.append(Op(key, key, run))
    rng.shuffle(ops)
    return ops


def growth_ops(g, base: str, label: str) -> list:
    """Products, centers and the product with the derived ideal of one algebra."""
    ops = []
    for q in (0, 2):
        for kind in ("exterior", "tensor"):
            def run(kind=kind, q=q):
                prod = getattr(qtensor, f"q_{kind}_product")(g, None, q)
                return {"factors": list(prod.invariant_factors())}
            ops.append(Op(f"{label} {kind} q={q}", f"{base} {kind} q={q}", run))
    for q in (0, 2):
        def run(q=q):
            return canon_centers(capability.center_report(g, q))
        ops.append(Op(f"{label} centers q={q}", f"{base} centers q={q}", run))
    for q in (0, 2):
        def run(q=q):
            prod = qtensor.q_tensor_product(g, liealg.derived_ideal(g), q)
            return {"factors": list(prod.invariant_factors())}
        ops.append(Op(f"{label} derived-tensor q={q}",
                      f"{base} derived-tensor q={q}", run))
    return ops


def _growth_ops(rng):
    # One fixed draw of basis changes, so that every seed does the same work;
    # the seed orders the conjugates. Drawn per seed, the slowest op hung on a
    # single outlier conjugate and slowest_op_s moved 15% from seed to seed.
    draw = random.Random("coefficient-growth conjugates")
    base = io_catalog.heisenberg()
    conjugates = []
    for i in range(GROWTH_INSTANCES):
        p, pinv = unimodular(draw, base.rank, GROWTH_BITS)
        label = f"heisenberg~{i}"
        conjugates.append((conjugate(base, p, pinv, label), label))
    rng.shuffle(conjugates)
    return [op for g, label in conjugates
            for op in growth_ops(g, "heisenberg", label)]


_BUILD = {
    "verify-catalog": _verify_ops,
    "centers-sweep": _centers_ops,
    "scale-ladder": _ladder_ops,
    "coefficient-growth": _growth_ops,
}


def build_ops(workload: str, seed: int) -> list:
    """Build the workload's algebras (the set-up) and return its ops in order."""
    return _BUILD[workload](random.Random(f"{workload}:{seed}"))


def reference_ops(workload: str) -> list:
    """Ops whose results are the expected values: the unconjugated algebra
    for coefficient-growth, and any seed for the catalog workloads."""
    if workload == "coefficient-growth":
        return growth_ops(io_catalog.heisenberg(), "heisenberg", "heisenberg")
    return build_ops(workload, 0)
