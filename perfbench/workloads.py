"""Seeded input generators for the benchmark's workloads.

Every generator returns plain JSON data in the quathyp wire schema
(see ``quathyp.serialize``) together with the expected outcome of each
operation, derived from theory or from :mod:`oracle`, never from the
program.  The same seed always yields the same inputs.

* ``isometry_round(seed, k)``: round k of the isometry-stream workload.
  Rounds differ in every coefficient but share one fixed list of slots
  (operation, field, rank, expected verdict), so every round costs about
  the same and no input repeats within a run.
* ``catalogue(seed)``: the catalogue-scan classes and the operations
  over all their pairs.
* ``cli_round(seed, k)``: the argument vectors of one cli-oneshot round.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

import oracle

#: The library workloads use Q, Q(sqrt 5) (2 inert), Q(sqrt 3) and
#: Q(sqrt 6) (2 ramified); Q(sqrt d) with d = 1 mod 8 is left out, as the
#: program raises UnsupportedDyadicPlaceError there.

#: admissible algebras (ramified at every real place) over Q, with their
#: ramification over Q: (-1,-3) at {inf, 3}, (-1,-11) at {inf, 11},
#: (-2,-5) at {inf, 5}.  The odd prime splits in the field it serves,
#: so over Q(sqrt d) the base change ramifies at both places over it.
ADMISSIBLE = {None: (-1, -3), 5: (-1, -11), 3: (-1, -11), 6: (-2, -5)}

COEFF_BOUND = 255  # coefficients have at most 8 bits


def q(x) -> tuple[Fraction, Fraction]:
    """Normalize an int, Fraction or pair to an (a0, a1) pair."""
    if isinstance(x, tuple):
        return Fraction(x[0]), Fraction(x[1])
    return Fraction(x), Fraction(0)


# ---------------------------------------------------------------------------
# JSON in the quathyp wire schema


def field_json(d) -> dict:
    return {"base": "Q"} if d is None else {"base": "quadratic", "d": d}


def elem_json(x, d):
    a0, a1 = q(x)
    if d is None:
        return str(a0)
    return {"a0": str(a0), "a1": str(a1)}


def algebra_json(alg, d) -> dict:
    return {"a": elem_json(alg[0], d), "b": elem_json(alg[1], d)}


def herm_json(d, alg, coeffs) -> dict:
    return {
        "field": field_json(d),
        "algebra": algebra_json(alg, d),
        "coeffs": [elem_json(c, d) for c in coeffs],
    }


def quad_json(d, coeffs) -> dict:
    return {"field": field_json(d), "coeffs": [elem_json(c, d) for c in coeffs]}


def ambient_json(d, alg, coeffs) -> dict:
    return {"kind": "nonsplit", "form": herm_json(d, alg, coeffs)}


def triple_json(d, v0: int, alg) -> dict:
    return {"field": field_json(d), "v0": {"embedding": v0}, "algebra": algebra_json(alg, d)}


def restriction_json(d, c, coeffs) -> dict:
    return {
        "field": field_json(d),
        "c": elem_json(c, d),
        "coeffs": [elem_json(x, d) for x in coeffs],
    }


def real_places(d) -> tuple[int, ...]:
    return (0,) if d is None else (0, 1)


def place_names(d) -> tuple[str, ...]:
    return ("inf",) if d is None else ("inf_0", "inf_1")


# ---------------------------------------------------------------------------
# random elements with prescribed signs


def rand_elem(rng: random.Random, d, bound: int = COEFF_BOUND):
    while True:
        a0 = rng.randint(-bound, bound)
        a1 = 0 if d is None else rng.randint(-bound, bound)
        if a0 or a1:
            return q((a0, a1))


#: isometry-stream coefficients have norms built from these primes only.
#: A form's support (the places its invariants are compared at) then
#: varies little with the draw, so an operation's cost is mostly set by
#: its slot; with unrestricted 8-bit coefficients the cost of one slot
#: varied by up to 55% (interquartile range over its median) and the
#: percentiles with it.  The primes include split ones in every quadratic
#: field used: 11 and 13 in Q(sqrt 3), 11 in Q(sqrt 5), 5 in Q(sqrt 6).
PALETTE_PRIMES = (2, 3, 5, 7, 11, 13)
PALETTE_HEIGHT = {None: COEFF_BOUND, 5: 63, 3: 63, 6: 63}


@functools.lru_cache(maxsize=None)
def palette(d) -> dict[tuple[int, ...], list]:
    """Elements of height at most PALETTE_HEIGHT with PALETTE_PRIMES-smooth
    norm, grouped by their signs at the real places."""
    h = PALETTE_HEIGHT[d]
    out: dict[tuple[int, ...], list] = {}
    for a0 in range(-h, h + 1):
        for a1 in range(-h, h + 1) if d is not None else (0,):
            n = abs(a0 * a0 - (d or 0) * a1 * a1)
            if n == 0:
                continue
            for p in PALETTE_PRIMES:
                while n % p == 0:
                    n //= p
            if n == 1:
                x = q((a0, a1))
                out.setdefault(oracle.signs(x, d), []).append(x)
    return out


def palette_elem(rng: random.Random, d, want: tuple[int, ...] | None = None):
    """A random palette element, with signs ``want`` when given."""
    groups = palette(d)
    if want is None:
        want = rng.choice(sorted(groups))
    return rng.choice(groups[want])


def hyperbolic_coeffs(rng, d, n: int, v0: int):
    """n coefficients of signature (n-1, 1) at v0 and (n, 0) at the
    other real place, in random order."""
    out = []
    for i in range(n):
        want = tuple(-1 if (i == 0 and e == v0) else 1 for e in real_places(d))
        out.append(palette_elem(rng, d, want))
    rng.shuffle(out)
    return out


def represent(rng, d, alg):
    """An isomorphic presentation (a x^2, b y^2) of the algebra (a, b)."""
    small = [x for g in palette(d).values() for x in g if abs(x[0]) <= 7 and abs(x[1]) <= 7]
    return scaled_by_squares(alg, rng.choice(small), rng.choice(small), d)


def scaled_by_squares(alg, x, y, d):
    """(a x^2, b y^2): the same algebra as (a, b), presented differently."""
    sq = lambda t: oracle.mul(t, t, d)
    return oracle.mul(q(alg[0]), sq(x), d), oracle.mul(q(alg[1]), sq(y), d)


def partial_algebra(d):
    """An algebra not ramified at every real place: over Q, (-1, 3)
    (ramified at 2 and 3 only); over Q(sqrt d), (-1, 1 - 2 sqrt d),
    ramified at inf_0 but not inf_1."""
    return (q(-1), q(3) if d is None else q((1, -2)))


def ramified_reals(alg, d) -> tuple[int, ...]:
    """Real places where (a, b) ramifies: both parameters negative."""
    return tuple(
        e for e in real_places(d)
        if oracle.sign(alg[0], d, e) < 0 and oracle.sign(alg[1], d, e) < 0
    )


@functools.lru_cache(maxsize=None)
def admissible_ramification(d) -> frozenset:
    a, b = ADMISSIBLE[d]
    return oracle.base_change_ramification(oracle.ramification_q(a, b), d)


# ---------------------------------------------------------------------------
# isometry-stream


#: the slots of one round: (operation, field, rank, variant).  The costs
#: form tiers, so that no reported percentile falls in a gap between two
#: of them: a cheap part (Q up to rank 5, non-isometric pairs and failing
#: complex parameters), ten rank-6 isometries over Q holding the median
#: (one slot type, so the median sits inside a tight cluster), a middle
#: tier, 7 rank-5 operations over quadratic fields holding the 90th
#: percentile, and 2 heavy ones above it.
ISOMETRY_SLOTS = (
    # cheap: complex parameters that fail at a real or a finite place
    *(("complex", d, n, v) for d, n in ((None, 4), (5, 3), (3, 3), (6, 3))
      for v in ("finite", "real")),
    # cheap: a signature differs at a ramified real place
    ("noniso", None, 3, "adm"), ("noniso", None, 6, "adm"),
    ("noniso", 5, 5, "adm"), ("noniso", 3, 6, "adm"), ("noniso", 6, 8, "adm"),
    # cheap: Q up to rank 5
    *(("iso", None, n, "adm") for n in range(2, 6)), ("iso", None, 5, "partial"),
    *(("real", None, n, "adm") for n in range(3, 6)), ("complex", None, 4, "embeds"),
    # the median block: one tight slot type, ten times
    *(("iso", None, 6, "adm") for _ in range(10)),
    ("iso", 5, 2, "adm"), ("real", None, 6, "adm"),
    # middle
    ("iso", 6, 2, "partial"), ("real", None, 7, "adm"), ("real", None, 8, "adm"),
    ("iso", None, 7, "adm"), ("iso", None, 8, "adm"), ("real", 5, 3, "adm"),
    ("complex", 5, 3, "embeds"), ("complex", 3, 3, "embeds"), ("complex", 6, 3, "embeds"),
    ("iso", 5, 3, "partial"), ("iso", 3, 3, "adm"), ("real", 3, 4, "adm"),
    ("iso", 3, 4, "partial"), ("iso", 6, 4, "adm"), ("iso", 5, 4, "adm"),
    ("real", 6, 4, "adm"), ("iso", 3, 4, "adm"),
    # the 90th-percentile block: rank 5 over quadratic fields
    ("iso", 5, 5, "adm"), ("iso", 3, 5, "adm"), ("iso", 6, 5, "adm"),
    ("real", 5, 5, "adm"), ("real", 3, 5, "adm"), ("real", 6, 5, "adm"),
    ("iso", 3, 5, "partial"),
    # heavy: ranks 7 and 8 over quadratic fields
    ("iso", 6, 7, "adm"), ("iso", 5, 8, "adm"),
)


def iso_pair(rng, d, n: int, variant: str, isometric: bool):
    if variant == "adm":
        alg = tuple(q(x) for x in ADMISSIBLE[d])
    else:
        alg = partial_algebra(d)
    alg2 = represent(rng, d, alg) if rng.random() < 0.5 else alg
    ram = ramified_reals(alg, d)
    c1 = [palette_elem(rng, d) for _ in range(n)]
    # per place, the sign sequence of h1; h2 gets the same counts at each
    # ramified place, drawn independently, and anything at the others
    columns = []
    for e in real_places(d):
        col = [oracle.sign(c, d, e) for c in c1]
        if e not in ram:
            col = [rng.choice((1, -1)) for _ in c1]
        rng.shuffle(col)
        columns.append(col)
    if not isometric:
        e = rng.choice(ram)
        i = rng.randrange(n)
        columns[e][i] = -columns[e][i]
    c2 = [palette_elem(rng, d, tuple(col[i] for col in columns)) for i in range(n)]
    same = all(
        oracle.signature(c1, d, e) == oracle.signature(c2, d, e) for e in ram
    )
    assert same == isometric
    return {
        "op": "hermitian_isometric",
        "h1": herm_json(d, alg, c1),
        "h2": herm_json(d, alg2, c2),
        "expect": {"verdict": isometric},
    }


def _ambient(rng, d, n: int):
    alg = ADMISSIBLE[d]
    if rng.random() < 0.5:
        alg = represent(rng, d, alg)
    v0 = rng.choice(real_places(d))
    return alg, v0, hyperbolic_coeffs(rng, d, n, v0)


def _expected_witness(d, v0: int, coeffs) -> dict:
    return {
        "coeffs": [elem_json(c, d) for c in coeffs],
        "signatures": {
            name: [len(coeffs) - 1, 1] if e == v0 else [len(coeffs), 0]
            for e, name in zip(real_places(d), place_names(d))
        },
    }


def _real_embedding(rng, d, n: int):
    alg, v0, amb = _ambient(rng, d, n)
    k = rng.randint(2, n)
    form = hyperbolic_coeffs(rng, d, k, v0)
    witness = form + [q(1)] * (n - k)
    return {
        "op": "embeds_real",
        "q": quad_json(d, form),
        "ambient": ambient_json(d, alg, amb),
        "expect": {"embeds": True, "witness": _expected_witness(d, v0, witness)},
    }


def embeds_complex_expected(c, d) -> tuple[bool, str]:
    """Whether k(sqrt c) embeds in the admissible algebra over the field,
    and the first place (in CLI naming) where it fails."""
    for name in sorted(admissible_ramification(d)):
        if name.startswith("inf"):
            e = 0 if name in ("inf", "inf_0") else 1
            if oracle.sign(c, d, e) > 0:
                return False, name
            continue
        p = int(name.split("#")[0])
        if d is None:
            square = oracle.qp_is_square(c[0], p)
        else:
            square = any(oracle.split_place_squares(c, d, p))
        if square:
            return False, name
    return True, ""


def _complex_embedding(rng, d, n: int, variant: str):
    alg, v0, amb = _ambient(rng, d, n)
    while True:
        c = rand_elem(rng, d, 30)
        if oracle.is_global_square(c, d):
            continue
        embeds, where = embeds_complex_expected(c, d)
        kind = "embeds" if embeds else ("real" if where.startswith("inf") else "finite")
        if kind == variant:
            break
    data = hyperbolic_coeffs(rng, d, n, v0)
    expect = {"embeds": embeds}
    if embeds:
        expect["witness"] = _expected_witness(d, v0, data)
    else:
        expect["failed_condition"] = "subfield-does-not-embed"
    return {
        "op": "embeds_complex",
        "data": restriction_json(d, c, data),
        "ambient": ambient_json(d, alg, amb),
        "expect": expect,
    }


def isometry_round(seed: int, k: int) -> list[dict]:
    """Round k of isometry-stream: one operation per slot, fresh coefficients."""
    rng = random.Random(f"isometry-stream:{seed}:{k}")
    ops = []
    for kind, d, n, variant in ISOMETRY_SLOTS:
        if kind in ("iso", "noniso"):
            op = iso_pair(rng, d, n, variant, kind == "iso")
        elif kind == "real":
            op = _real_embedding(rng, d, n)
        else:
            op = _complex_embedding(rng, d, n, variant)
        op["slot"] = f"{kind}:{'Q' if d is None else d}:{n}:{variant}"
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# catalogue-scan

#: fields of the catalogue; each has a group of two commensurable
#: classes and a group of one
CATALOGUE_FIELDS = (None, 5, 3)
GROUP_SIZES = (2, 1)

#: second-largest prime factors of the algebra parameters, 20 to 28 bits:
#: nextprime(2**(b-1) + 2**(b-2) + 12345 + j * 2**(b-4)) for the j-th
#: prime of b bits, in parameter order (field Q, Q(sqrt 5), Q(sqrt 3);
#: group of two, group of one; a, b).  Pool and order are the same for
#: every seed, so every seed factors the same large primes equally often;
#: with the primes shuffled, ops_per_s moved by 25% from seed to seed.
SECOND_PRIMES = (
    201338971, 798781, 3158081, 1585219,
    50344039, 864319, 6303809, 1716287,
    25178171, 3420227, 12595273, 6828103,
)
#: largest prime factors, in the same order: nextprime(2**31 + j * 2**26 + 777)
LARGEST_PRIMES = (
    2147484433, 2214593299, 2281702177, 2348811029, 2415919951, 2483028773,
    2550137647, 2617246481, 2684355347, 2751464249, 2818573091, 2885681947,
)
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
FORM_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def second_largest_bits(n) -> int:
    primes = sorted(oracle.factorint(int(n)))
    return primes[-2].bit_length() if len(primes) > 1 else 0


def _catalogue_form(rng, d, v0: int):
    """Rank-3 form with entries built from small primes: (2, 1) at v0
    and (3, 0) at the other real place."""
    pick = lambda: rng.choice(FORM_PRIMES) * rng.choice(FORM_PRIMES)
    e1, e2 = q(pick()), q(pick())
    if d is None:
        e3 = q(-pick())
    else:
        p1 = rng.choice(FORM_PRIMES)
        p2 = rng.choice([p for p in FORM_PRIMES if p >= p1])
        e3 = q((p1, -p2 if v0 == 0 else p2))
    coeffs = [e1, e2, e3]
    rng.shuffle(coeffs)
    for e in real_places(d):
        assert oracle.signature(coeffs, d, e) == ((2, 1) if e == v0 else (3, 0))
    return coeffs


def catalogue(seed: int) -> dict:
    """The catalogue-scan classes and one round of operations over them.

    Per field two groups (sizes ``GROUP_SIZES``); a group is a base class
    over Q (base-changed to the field) and possibly a second presentation
    of it: over Q the swapped parameters scaled by squares, over Q(sqrt d)
    the Galois conjugate of a presentation scaled by irrational squares.  Classes in one group
    are commensurable by construction; the two groups of a field have
    different ramification sets, which come from ``oracle.ramification_q``
    and base change.
    """
    rng = random.Random(f"catalogue-scan:{seed}")
    classes, triples, meta = [], [], []
    slot = 0
    for d in CATALOGUE_FIELDS:
        rams = []
        for size in GROUP_SIZES:
            bases = []
            for _ in range(2):
                bases.append(SECOND_PRIMES[slot] * LARGEST_PRIMES[slot])
                slot += 1
            while True:
                a = -rng.choice(SMALL_PRIMES) * bases[0]
                b = -rng.choice(SMALL_PRIMES) * bases[1]
                ram = oracle.base_change_ramification(oracle.ramification_q(a, b), d)
                if all(ram != other for other in rams):
                    break
            rams.append(ram)
            for x in (a, b):
                assert 20 <= second_largest_bits(x) <= 28
            members = [(q(a), q(b))]
            if size == 1:
                pass
            elif d is None:
                x, y = rng.randint(2, 15), rng.randint(2, 15)
                members.append((q(b * y * y), q(a * x * x)))
            else:
                alg = scaled_by_squares((a, b), rand_elem(rng, d, 7), rand_elem(rng, d, 7), d)
                members.append((oracle.conj(alg[0]), oracle.conj(alg[1])))
            for m, alg in enumerate(members):
                v0 = rng.choice(real_places(d))
                classes.append(ambient_json(d, alg, _catalogue_form(rng, d, v0)))
                triples.append(triple_json(d, v0, alg))
                meta.append({"field": d, "group": len(rams) - 1, "ram": sorted(ram),
                             "algebra": alg})
            # a triple that is not admissible: over Q a positive parameter,
            # over Q(sqrt d) b times 1 - 2 sqrt(d), negative at inf_0 only
            bad = (q(-a), q(b)) if d is None else (q(a), oracle.mul(q(b), q((1, -2)), d))
            triples.append(triple_json(d, 0, bad))
            meta.append({"field": d, "group": None, "ram": None, "algebra": bad})
    class_meta = [m for m in meta if m["group"] is not None]
    ops = []
    n = len(class_meta)
    for i in range(n):
        for j in range(i + 1, n):
            mi, mj = class_meta[i], class_meta[j]
            same_field = mi["field"] == mj["field"]
            verdict = same_field and mi["ram"] == mj["ram"]
            ops.append({"op": "quaternionic_commensurable", "i": i, "j": j, "expect": verdict})
            if same_field:
                ops.append({"op": "general_cn_commensurable", "i": i, "j": j, "expect": verdict})
    for t, m in enumerate(meta):
        admissible = ramified_reals(m["algebra"], m["field"]) == real_places(m["field"])
        ops.append({"op": "is_admissible", "t": t, "expect": admissible})
    for i, m in enumerate(class_meta):
        ops.append({"op": "ramification_set", "i": i, "expect": m["ram"]})
    return {
        "workload": "catalogue-scan",
        "seed": seed,
        "classes": classes,
        "triples": triples,
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# cli-oneshot


def _q_pair(rng, bound: int = 255) -> tuple[int, int]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, bound) for _ in range(2))


def _q_algebra_json(a, b) -> dict:
    return {"field": {"base": "Q"}, "a": a, "b": b}


def _q_form(coeffs) -> dict:
    return {"field": {"base": "Q"}, "coeffs": coeffs}


def _q_ambient(a, b, coeffs) -> dict:
    return {"kind": "nonsplit", "form": {**_q_form(coeffs), "algebra": {"a": a, "b": b}}}


def _q_triple(a, b) -> dict:
    return {"field": {"base": "Q"}, "v0": {"embedding": 0}, "algebra": {"a": a, "b": b}}


def _admissible_q(rng) -> tuple[int, int]:
    return -rng.randint(1, 60), -rng.randint(1, 60)


def _hyperbolic_q(rng, n: int) -> list[int]:
    out = [rng.randint(1, 60) for _ in range(n - 1)] + [-rng.randint(1, 60)]
    rng.shuffle(out)
    return out


def cli_round(seed: int, k: int) -> list[dict]:
    """One cli-oneshot round: every subcommand once with small payloads
    over Q, the two fixed reference payloads, and verify-geometry at
    m = 2, 3, 3, 4.  Each entry has the argument vector and what to expect."""
    rng = random.Random(f"cli-oneshot:{seed}:{k}")
    ops = []

    def add(label, argv, **expect):
        ops.append({"label": label, "argv": argv, "expect": expect})

    add("symbol-reference", ["symbol", "--json", "--", "-1", "-1"], symbols={"inf": -1, "2": -1})
    a, b = _q_pair(rng)
    add("symbol", ["symbol", "--json", "--", str(a), str(b)], a=a, b=b,
        minus=sorted(str(p) for p in oracle.ramification_q(a, b)))
    add("ramification-reference", ["ramification", "--json", json_arg(_q_algebra_json(-1, -3))],
        ramified=["3", "inf"])
    a, b = _q_pair(rng)
    add("ramification", ["ramification", "--json", json_arg(_q_algebra_json(a, b))],
        ramified=sorted(str(p) for p in oracle.ramification_q(a, b)))
    coeffs = [rng.choice((1, -1)) * rng.randint(1, 99) for _ in range(rng.randint(3, 4))]
    add("invariants", ["invariants", "--json", json_arg(_q_form(coeffs))],
        coeffs=coeffs, minus=sorted(str(p) for p in oracle.primes_of(*coeffs)
                                    if oracle.hasse_q(coeffs, p) == -1))
    c1 = [rng.choice((1, -1)) * rng.randint(1, 60) for _ in range(3)]
    while c1[0] + c1[1] == 0:
        c1[0] = rng.choice((1, -1)) * rng.randint(1, 60)
    if rng.random() < 0.5:
        # <x, y> = <x + y, x y (x + y)>, then permute and scale by squares
        x, y, z = c1
        c2 = [(x + y) * 4, x * y * (x + y), z * 9]
        rng.shuffle(c2)
    else:
        c2 = [rng.choice((1, -1)) * rng.randint(1, 60) for _ in range(3)]
    add("isometric", ["isometric", "--json", json_arg(_q_form(c1)), json_arg(_q_form(c2))],
        isometric=oracle.forms_isometric_q([Fraction(c) for c in c1], [Fraction(c) for c in c2]))
    a, b = _q_pair(rng, 60)
    if rng.random() < 0.5:
        a2, b2 = b * rng.randint(1, 9) ** 2, a * rng.randint(1, 9) ** 2
    else:
        a2, b2 = _q_pair(rng, 60)
    add("commensurable",
        ["commensurable", "--json", json_arg(_q_triple(a, b)), json_arg(_q_triple(a2, b2))],
        commensurable=oracle.ramification_q(a, b) == oracle.ramification_q(a2, b2))
    a, b = _q_pair(rng, 60)
    add("admissible", ["admissible", "--json", json_arg(_q_triple(a, b))],
        admissible=a < 0 and b < 0, ramified=sorted(str(p) for p in oracle.ramification_q(a, b)))
    a, b = _admissible_q(rng)
    m = 2 + k % 3
    add("canonical-form", ["canonical-form", "--json", "--m", str(m), json_arg(_q_triple(a, b))],
        coeffs=[1] * m + [-1], algebra=[a, b])
    a, b = _admissible_q(rng)
    n = rng.randint(3, 5)
    kq = rng.randint(2, n)
    form = _hyperbolic_q(rng, kq)
    ambient = _q_ambient(a, b, _hyperbolic_q(rng, n))
    add("embeds-real", ["embeds-real", "--json", json_arg(_q_form(form)), json_arg(ambient)],
        embeds=True, witness=form + [1] * (n - kq))
    a, b = _admissible_q(rng)
    n = rng.randint(3, 5)
    c = rng.choice((1, -1)) * rng.randint(2, 40)
    while oracle.is_global_square(q(c), None):
        c += 1
    ram = oracle.ramification_q(a, b)
    embeds = all(not oracle.qp_is_square(Fraction(c), p) if p != "inf" else c < 0 for p in ram)
    data = _hyperbolic_q(rng, n)
    ambient = _q_ambient(a, b, _hyperbolic_q(rng, n))
    add("embeds-complex", ["embeds-complex", "--json", "--", str(c),
                           json_arg({**_q_form(data), "c": c}), json_arg(ambient)],
        embeds=embeds, witness=data if embeds else None)
    a, b = _admissible_q(rng)
    add("surface-witness", ["surface-witness", "--json", json_arg(_q_triple(a, b))], surface=True)
    # m = 3 twice, so that the 90th percentile sits inside its cluster
    for m in (2, 3, 3, 4):
        add(f"verify-geometry-{m}", ["verify-geometry", "--json", "--m", str(m)],
            killing=8.0 * (m + 2))
    return ops


def json_arg(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))
