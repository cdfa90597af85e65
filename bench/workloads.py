"""Seeded inputs and known answers for the four benchmark workloads.

Nothing here imports z2covers.  Documents are rendered straight from the
building-data file format (sorted keys, two-space indent, trailing
newline), and every expected verdict comes from a closed formula, so the
answers the benchmark checks against never pass through the verifier.

Each workload is an endless stream of *cycles*.  A cycle holds a fixed
mix of jobs: the sizes are stratified, with a low-discrepancy offset from
one cycle to the next, and the oracle primes are the same in every cycle.
Sizes and primes follow the same sequence for every seed; the seed draws
the documents' contents (halving choices, matrices, torsion orders,
shifts, which jobs are mutants, the curve's d) and the order of the jobs.
So two seeds give different documents with the same work, and a run's
figures do not depend on which sizes a seed happened to draw.  The runner
always finishes the cycle it has started.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("family", "etale", "reject", "oracle")

DOC = "{doc}"  # stands for the job's document path in a CLI step

_GOLDEN = (math.sqrt(5) - 1) / 2
_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))  # 0, t1, t2, t1 + t2 in (Z/2)^2

FAMILY_PER_CYCLE = 16
FAMILY_N = (2, 256)
ETALE_KS = (3,) * 5 + (4,) * 4 + (5,) * 3  # weighted towards small k
REJECT_FAMILY_PER_CYCLE = 6
REJECT_FAMILY_N = (2, 16)
ORACLE_MUTANTS_PER_CYCLE = 2  # of ORACLE_PER_CYCLE jobs
ORACLE_P = (1000, 3000)
ORACLE_N = (3, 8)
DIGEST_CYCLES = 4


@dataclass(frozen=True)
class Expect:
    """The known answer for one job.

    ``exit_codes`` has one entry per CLI step.  ``invariants`` is
    (K^2, p_g, chi, q) and ``canonical`` is (degree, image degree), both
    None where the verifier must not compute them.  ``oracle`` is
    (curve order, invariant factors, ok) for ``--oracle`` runs.
    ``round_trip`` asks for dumps(loads(text)) == text on the document.
    """

    exit_codes: tuple[int, ...]
    ok: bool
    pairs_checked: int
    failures: int
    invariants: tuple[int, int, int, int] | None
    canonical: tuple[int, int] | None = None
    oracle: tuple[int, tuple[int, int], bool] | None = None
    round_trip: bool = False


@dataclass(frozen=True)
class Job:
    """One closed-loop request: CLI steps run one after the other.

    ``doc`` is written to the job's document path before the first step
    (outside the timed region); None when a step writes the document.
    """

    id: int
    steps: tuple[tuple[str, ...], ...]
    doc: str | None
    expect: Expect
    size: int  # n for family documents, k for etale ones


# -- document rendering ------------------------------------------------------


def _render(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _element(free: list[int], tors: list[int]) -> dict:
    return {"free": free, "tors": tors}


def _surface(a: int, degree: int, free: list[int], tors: list[int]) -> dict:
    return {"a": a, "degree": degree, "pic0": _element(free, tors)}


def _bit_strings(k: int) -> list[str]:
    return [format(v, f"0{k}b") for v in range(1, 1 << k)]


def family_doc(n: int, halving: list[int], shift: tuple[str, int] | None = None) -> str:
    """The family member with n halved fibers, as the file format spells it.

    Free generators g_1..g_n, h_1..h_n, u and torsion t_1, t_2 of
    Z^(2n+1) + (Z/2)^2.  ``shift`` = (character, offset index 1..3) adds
    one nonzero 2-torsion class to that character's L, which makes a
    single-torsion mutant.
    """
    rank = 2 * n + 1

    def free(*terms: tuple[int, int]) -> list[int]:
        vec = [0] * rank
        for index, coefficient in terms:
            vec[index] += coefficient
        return vec

    def add(*offsets: tuple[int, int]) -> list[int]:
        return [sum(o[0] for o in offsets) % 2, sum(o[1] for o in offsets) % 2]

    t1, t2 = _OFFSETS[1], _OFFSETS[2]
    points = {}
    for i in range(n):
        points[f"F{i + 1}"] = _element(free((n + i, 1)), [0, 0])
        points[f"F{i + 1}'"] = _element(free((i, 2), (n + i, -1)), [0, 0])
        points[f"F{i + 1}_{i + 1}"] = _element(free((i, 1)), list(_OFFSETS[halving[i]]))
    points["F1''"] = _element(free((2 * n, 1)), [0, 0])
    points["F2''"] = _element(free((2 * n, 1)), add(t1))
    points["F3''"] = _element(free((2 * n, 1)), add(t1, t2))

    halved = [1] * n + [0] * (n + 1)
    halved_tors = add(*(_OFFSETS[c] for c in halving))
    zero = [0] * rank
    L = {
        "100": _surface(3, n, halved, halved_tors),
        "010": _surface(1, n, halved, add(halved_tors, t1)),
        "001": _surface(1, n, halved, add(halved_tors, t2)),
        "110": _surface(2, 0, zero, add(t1)),
        "101": _surface(2, 0, zero, add(t2)),
        "011": _surface(2, 0, zero, add(t1, t2)),
        "111": _surface(1, n, halved, add(halved_tors, t1, t2)),
    }
    if shift is not None:
        chi, offset = shift
        tors = L[chi]["pic0"]["tors"]
        L[chi]["pic0"]["tors"] = add(tuple(tors), _OFFSETS[offset])

    fibers = []
    for i in range(n):
        fibers += [{"kind": "F", "label": f"F{i + 1}"}, {"kind": "F", "label": f"F{i + 1}'"}]
    elliptic = [{"kind": "E", "label": f"E{j + 1}"} for j in range(6)]
    D = {key: [] for key in _bit_strings(3)}
    D.update({"100": elliptic[0:2], "101": elliptic[2:4], "110": elliptic[4:6], "111": fibers})
    return _render({
        "schema_version": 1,
        "group_spec": {"rank": rank, "torsion": [2, 2]},
        "points_c": points,
        "points_p1": [f"E{j + 1}" for j in range(6)],
        "L": L,
        "D": D,
    })


def _rank_f2(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def random_invertible(k: int, rng: random.Random) -> list[int]:
    """Rows (as k-bit masks) of a uniformly drawn invertible k x k F_2 matrix."""
    while True:
        rows = [rng.randrange(1 << k) for _ in range(k)]
        if _rank_f2(rows) == k:
            return rows


def etale_doc(
    rows: list[int], orders: list[int], shift: tuple[str, int] | None = None
) -> str:
    """Unramified Z_2^k data: L_chi = A chi inside the 2-torsion of prod Z/m_i.

    ``shift`` = (character, nonzero k-bit mask) adds that 2-torsion class to
    one L, which makes a single-torsion mutant.
    """
    k = len(rows)

    def two_torsion(mask: int) -> list[int]:
        return [(m // 2) * ((mask >> (k - 1 - i)) & 1) for i, m in enumerate(orders)]

    def image(chi: int) -> int:
        return sum(((bin(row & chi).count("1") & 1) << (k - 1 - i)) for i, row in enumerate(rows))

    L = {}
    for key in _bit_strings(k):
        tors = two_torsion(image(int(key, 2)))
        if shift is not None and key == shift[0]:
            tors = [(a + b) % m for a, b, m in zip(tors, two_torsion(shift[1]), orders)]
        L[key] = _surface(0, 0, [], tors)
    return _render({
        "schema_version": 1,
        "group_spec": {"rank": 0, "torsion": list(orders)},
        "points_c": {},
        "points_p1": [],
        "L": L,
        "D": {key: [] for key in _bit_strings(k)},
    })


# -- known answers -----------------------------------------------------------


def pairs(k: int) -> int:
    return (1 << (k - 1)) * ((1 << k) - 1)


def mutant_failures(k: int) -> int:
    """Pairs broken by one 2-torsion shift of one L_chi: 2^k - 2 pairs hold chi
    once, and 2^(k-1) - 1 pairs multiply to chi."""
    return 3 * (1 << (k - 1)) - 3


def family_expect(n: int) -> Expect:
    return Expect(
        exit_codes=(0, 0),
        ok=True,
        pairs_checked=pairs(3),
        failures=0,
        invariants=(16 * n, 2 * n, 2 * n, 1),
        # degree x image degree = K^2; at n = 2 the image is a quadric
        canonical=(16, 2) if n == 2 else (8, 2 * n),
        round_trip=True,
    )


def etale_expect(k: int) -> Expect:
    return Expect(exit_codes=(0,), ok=True, pairs_checked=pairs(k), failures=0,
                  invariants=(0, 0, 0, 1))


def reject_expect(k: int) -> Expect:
    return Expect(exit_codes=(1,), ok=False, pairs_checked=pairs(k),
                  failures=mutant_failures(k), invariants=None)


def oracle_expect(n: int, p: int, mutant: bool) -> Expect:
    curve = (p + 1, (2, (p + 1) // 2), not mutant)
    if mutant:
        return Expect(exit_codes=(1,), ok=False, pairs_checked=pairs(3),
                      failures=mutant_failures(3), invariants=None, oracle=curve)
    base = family_expect(n)
    return Expect(exit_codes=(0,), ok=True, pairs_checked=base.pairs_checked, failures=0,
                  invariants=base.invariants, canonical=base.canonical, oracle=curve)


# -- oracle parameters -------------------------------------------------------


def _is_prime(v: int) -> bool:
    return v >= 2 and all(v % d for d in range(2, math.isqrt(v) + 1))


ORACLE_PRIMES = tuple(p for p in range(*ORACLE_P) if p % 4 == 3 and _is_prime(p))
# The primes of every oracle cycle: the middles of eight equal slices of
# ORACLE_PRIMES.  The oracle's cost hangs on the factors of p + 1, which no
# narrow range of p evens out, so the cycle fixes them.
ORACLE_CYCLE_PRIMES = tuple(
    ORACLE_PRIMES[(2 * j + 1) * len(ORACLE_PRIMES) // 16] for j in range(8)
)
ORACLE_PER_CYCLE = len(ORACLE_CYCLE_PRIMES)


def oracle_room(n: int) -> int:
    """2 * coefficient_bound * rank for the family member with n fibers.

    The largest free l1 mass is max(3, n) (F_i' = 2 g_i - h_i, and the sum
    of the halved fibers); the bound doubles it.  y^2 = x^3 - d^2 x over
    F_p with p = 3 mod 4 is supersingular with full 2-torsion, so its
    largest cyclic factor is (p + 1) / 2 and must be at least this.
    """
    return 2 * (2 * max(3, n)) * (2 * n + 1)


# -- streams -----------------------------------------------------------------


def _cycle_offsets() -> Iterator[float]:
    """Per-cycle stratum offsets in [0, 1): a golden-ratio sequence, so every
    stratum is covered evenly over a run.  It starts at the middle for every
    seed, so the sizes do not depend on the seed."""
    c = 0
    while True:
        yield (0.5 + c * _GOLDEN) % 1.0
        c += 1


def _log_strata(lo: int, hi: int, count: int, u: float) -> list[int]:
    span = math.log(hi / lo)
    return [min(hi, max(lo, round(lo * math.exp(span * (j + u) / count)))) for j in range(count)]


def _halving(n: int, rng: random.Random) -> list[int]:
    return [rng.randrange(4) for _ in range(n)]


def _family_cycle(rng: random.Random, u: float) -> list[tuple]:
    specs = []
    for n in _log_strata(*FAMILY_N, FAMILY_PER_CYCLE, u):
        halving = ",".join(str(h) for h in _halving(n, rng))
        steps = (
            ("construct", "--n", str(n), "--halving", halving, "--out", DOC),
            ("verify", DOC, "--format", "json"),
        )
        specs.append((steps, None, family_expect(n), n))
    return specs


def _etale_data(k: int, rng: random.Random) -> tuple[list[int], list[int]]:
    return random_invertible(k, rng), [rng.choice((2, 4)) for _ in range(k)]


def _etale_cycle(rng: random.Random, u: float) -> list[tuple]:
    verify = (("verify", DOC, "--format", "json"),)
    return [(verify, etale_doc(*_etale_data(k, rng)), etale_expect(k), k) for k in ETALE_KS]


def _family_mutant(n: int, rng: random.Random) -> str:
    shift = (rng.choice(_bit_strings(3)), rng.randrange(1, 4))
    return family_doc(n, _halving(n, rng), shift)


def _reject_cycle(rng: random.Random, u: float) -> list[tuple]:
    verify = (("verify", DOC, "--format", "json"),)
    specs = []
    for k in ETALE_KS:
        shift = (format(rng.randrange(1, 1 << k), f"0{k}b"), rng.randrange(1, 1 << k))
        specs.append((verify, etale_doc(*_etale_data(k, rng), shift), reject_expect(k), k))
    for n in _log_strata(*REJECT_FAMILY_N, REJECT_FAMILY_PER_CYCLE, u):
        specs.append((verify, _family_mutant(n, rng), reject_expect(3), n))
    return specs


def _oracle_cycle(rng: random.Random, u: float) -> list[tuple]:
    mutants = set(rng.sample(range(ORACLE_PER_CYCLE), ORACLE_MUTANTS_PER_CYCLE))
    sizes = range(ORACLE_N[0], ORACLE_N[1] + 1)
    specs = []
    for j, p in enumerate(ORACLE_CYCLE_PRIMES):
        # Every size in turn, the smallest on the smallest primes, and no
        # larger than the curve leaves room for.
        n = min(sizes[j % len(sizes)],
                max(n for n in sizes if oracle_room(n) <= (p + 1) // 2))
        d = rng.randrange(1, p)
        mutant = j in mutants
        doc = _family_mutant(n, rng) if mutant else family_doc(n, _halving(n, rng))
        step = ("verify", DOC, "--format", "json", "--oracle", "--oracle-prime", str(p),
                "--oracle-a", str(-d * d), "--oracle-b", "0")
        specs.append(((step,), doc, oracle_expect(n, p, mutant), n))
    return specs


_CYCLES = {
    "family": _family_cycle,
    "etale": _etale_cycle,
    "reject": _reject_cycle,
    "oracle": _oracle_cycle,
}


def cycles(workload: str, seed: int) -> Iterator[list[Job]]:
    """The workload's job stream for this seed, one shuffled cycle at a time."""
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLES[workload]
    next_id = 0
    for u in _cycle_offsets():
        specs = make(rng, u)
        rng.shuffle(specs)
        jobs = []
        for steps, doc, expect, size in specs:
            jobs.append(Job(next_id, steps, doc, expect, size))
            next_id += 1
        yield jobs


def digest(workload: str, seed: int, cycle_count: int = DIGEST_CYCLES) -> str:
    """SHA-256 over the first cycles of the stream: equal inputs, equal digest."""
    h = hashlib.sha256()
    stream = cycles(workload, seed)
    for _ in range(cycle_count):
        for job in next(stream):
            h.update(json.dumps([job.steps, job.doc]).encode())
    return h.hexdigest()
