"""Acceptance suite: one test per advertised behavioral guarantee.

Each test is self-contained and runs a fixed randomized workload from a
pinned seed, so a line of ``pytest -v`` output is a pass/fail verdict for
one guarantee.  Tolerances are module constants and are not adjusted per
test.  The two Killing-normalization checks hold the numeric model to
closed forms derived from the structure of sp(m,1): kappa(X1(1), X1(1)) =
8(m + 2) and kappa/g = 2(m + 2).
"""

import random

import numpy as np
import pytest

import quathyp.geometry as geo
from quathyp.algebras import quaternion_algebra, ramification_set
from quathyp.commensurability import (
    AdmissibleTriple,
    OrbifoldClassDescriptor,
    canonical_hermitian,
    quaternionic_commensurable,
)
from quathyp.errors import SquareArgumentError
from quathyp.fields import QQ, Field, places_above
from quathyp.hermitian import hermitian_form, trace_form
from quathyp.quadratic import (
    diagonal_form,
    form_support,
    isotropic_global,
    local_invariants,
    same_square_class,
    signature_at,
)
from quathyp.subspaces import ComplexRestrictionData, embeds_complex, embeds_real, surface_witness
from quathyp.symbols import hilbert_symbol, product_formula_check

KAPPA_TOLERANCE = 1e-9
RATIO_TOLERANCE = 1e-9
BASE_METRIC_TOLERANCE = 1e-12
INVARIANCE_TOLERANCE = 1e-8
PROJECTIVE_TOLERANCE = 1e-10

SMALL_PRIMES = [p for p in range(2, 51) if all(p % q for q in range(2, p))]


def nonzero_coefficients(rng, dim):
    out = []
    while len(out) < dim:
        c = rng.randint(-20, 20)
        if c:
            out.append(c)
    return out


def random_division_algebras(rng, count):
    algebras = []
    while len(algebras) < count:
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if a and b:
            algebras.append(quaternion_algebra(QQ, a, b))
    return algebras


def test_trace_form_local_invariants_match_closed_formula():
    """100 random Hermitian forms over 10 random rational algebras: at every
    finite place in the support and at every prime below 50, the trace form
    has rank 4m, trivial determinant class, and Hasse invariant
    ((a,b)_v (-1,-1)_v)^m.  Exact arithmetic, no tolerance."""
    rng = random.Random(101)
    algebras = random_division_algebras(rng, 10)
    minus_one = QQ.element(-1)
    for _ in range(100):
        D = rng.choice(algebras)
        dim = rng.randint(1, 5)
        h = hermitian_form(D, *nonzero_coefficients(rng, dim))
        q = trace_form(h)
        places = {v for v in form_support(q) if v.is_finite}
        places.update(places_above(QQ, p)[0] for p in SMALL_PRIMES)
        for v in places:
            inv = local_invariants(q, v)
            assert inv.dim == 4 * dim
            assert same_square_class(inv.det_class, QQ.one)
            expected = (hilbert_symbol(D.a, D.b, v) * hilbert_symbol(minus_one, minus_one, v)) ** dim
            assert inv.hasse == expected


def test_same_rank_forms_share_local_invariants_at_ramified_prime():
    """50 random same-dimension pairs over one algebra ramified at p: the
    trace forms have identical local invariants at p.  Exact."""
    rng = random.Random(202)
    pool = [(-1, -1), (-1, -3), (-2, -5), (-1, -11), (-7, -13), (2, 5)]
    for _ in range(50):
        D = quaternion_algebra(QQ, *rng.choice(pool))
        ramified_finite = [v for v in ramification_set(D) if v.is_finite]
        v = rng.choice(ramified_finite)
        dim = rng.randint(1, 5)
        h1 = hermitian_form(D, *nonzero_coefficients(rng, dim))
        h2 = hermitian_form(D, *nonzero_coefficients(rng, dim))
        i1 = local_invariants(trace_form(h1), v)
        i2 = local_invariants(trace_form(h2), v)
        assert i1.dim == i2.dim
        assert i1.hasse == i2.hasse
        assert same_square_class(i1.det_class, i2.det_class)


def test_killing_norm_of_corner_generator_reference_constant():
    """kappa(X1(1), X1(1)) = 8(m+2) for m = 2..6.

    The Killing form of sp(2n, C) is B(X, Y) = (2n+2) tr(XY) in the
    defining representation (Helgason, Differential Geometry, Lie Groups,
    and Symmetric Spaces).  sp(m,1) is a real form of sp(2m+2, C), so
    n = m+1 and kappa = 2(m+2) tr_C(rho(X) rho(Y)) with rho the complex
    representation of quaternion matrices.  The unit corner generator has
    tr_C(rho(X1(1))^2) = 4, so kappa(X1(1), X1(1)) = 8(m+2).
    """
    for m in (2, 3, 4, 5, 6):
        X = geo.X_element(m, 1, geo.QUAT_ONE)
        kappa = geo.killing_value(X, X, m)
        assert kappa == pytest.approx(8 * (m + 2), abs=KAPPA_TOLERANCE), (
            f"m={m}: computed {kappa}, reference 8(m+2) = {8 * (m + 2)}"
        )


def test_killing_metric_ratio_and_base_normalization():
    """g0(w, w) = 4 at the base point (1e-12) and kappa/g within 1e-9 of
    2(m+2) over 100 random tangent vectors for m = 2, 3, 4.

    The ratio follows from kappa(X1(1), X1(1)) = 8(m+2) (see the test
    above) and g(w, w) = 4 for the matching tangent vector.  Both are
    quadratic forms on the tangent space invariant under the isotropy group
    Sp(m)Sp(1), which is transitive on unit tangent vectors, so the ratio is
    the same constant in every direction."""
    for m in (2, 3, 4):
        X = geo.X_element(m, 1, geo.QUAT_ONE)
        w = geo.tangent_of_corner(X, m)
        g = geo.metric_at(geo.base_point(m), w, w)
        assert g[0] == pytest.approx(4.0, abs=BASE_METRIC_TOLERANCE)
        assert np.allclose(g[1:], 0.0, atol=BASE_METRIC_TOLERANCE)
    for m in (2, 3, 4):
        deviation = geo.metric_scaling_check(
            m, samples=100, seed=m, reference=2 * (m + 2)
        )
        assert deviation <= RATIO_TOLERANCE, (
            f"m={m}: max |kappa/g - {2 * (m + 2)}| = {deviation}"
        )


def test_bracket_identities_exact():
    """The four structural bracket identities hold with zero floating-point
    deviation over all applicable basis pairs at m = 2 and m = 3."""
    assert geo.bracket_identity_dev(2) == 0.0
    assert geo.bracket_identity_dev(3) == 0.0


def test_distance_invariance_under_group_and_scaling():
    """Distance is preserved by 100 random group elements (1e-8) and by
    right quaternion scaling of homogeneous coordinates (1e-10)."""
    rng = np.random.default_rng(606)
    for seed in range(100):
        A = geo.random_sp_element(2, seed=seed)
        v = geo.ball_point_to_line(rng.uniform(-0.45, 0.45, size=(2, 4)))
        w = geo.ball_point_to_line(rng.uniform(-0.45, 0.45, size=(2, 4)))
        d0 = geo.distance(v, w)
        d1 = geo.distance(geo.mat_mul(A, v), geo.mat_mul(A, w))
        assert abs(d0 - d1) <= INVARIANCE_TOLERANCE
    for _ in range(20):
        v = geo.ball_point_to_line(rng.uniform(-0.45, 0.45, size=(2, 4)))
        alpha = rng.standard_normal(4)
        assert geo.distance(v, geo.quat_mul(v, alpha)) <= PROJECTIVE_TOLERANCE


def test_rational_triples_commensurability_decisions():
    """The three rational algebras ramified at {inf,2}, {inf,3}, {inf,5}
    give pairwise non-commensurable rank-two ambients, while square-scaled
    and permuted re-presentations stay commensurable.  Exact decisions."""
    descriptors = []
    for a, b in [(-1, -1), (-1, -3), (-2, -5)]:
        t = AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, a, b))
        descriptors.append(OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2)))
    for i in range(3):
        for j in range(i + 1, 3):
            assert not quaternionic_commensurable(descriptors[i], descriptors[j])
    representations = [
        hermitian_form(quaternion_algebra(QQ, -4, -9), -25, 4, 9),
        hermitian_form(quaternion_algebra(QQ, -1, -16), 1, -49, 36),
    ]
    for h in representations:
        twin = OrbifoldClassDescriptor.nonsplit(h)
        assert quaternionic_commensurable(descriptors[0], twin)
        assert not quaternionic_commensurable(descriptors[1], twin)


def test_complex_embedding_discriminates_algebras():
    """Some |c| <= 50 separates the algebras ramified at {inf,2} and
    {inf,3} through the complex-restriction embedding verdict; no c
    separates an algebra from itself."""
    ambients = {}
    for key, (a, b) in {"two": (-1, -1), "three": (-1, -3)}.items():
        t = AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, a, b))
        ambients[key] = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
    coeffs = (QQ.element(1), QQ.element(1), QQ.element(-1))

    def verdicts(amb):
        out = {}
        for c in range(-50, 51):
            if c == 0:
                continue
            try:
                data = ComplexRestrictionData(QQ.element(c), coeffs)
            except SquareArgumentError:
                continue
            out[c] = embeds_complex(data, amb).embeds
        return out

    v2, v3 = verdicts(ambients["two"]), verdicts(ambients["three"])
    assert v2.keys() == v3.keys()
    discriminating = [c for c in v2 if v2[c] != v3[c]]
    assert discriminating, "no discriminating parameter below 50"
    assert -7 in discriminating
    again = verdicts(ambients["two"])
    assert all(again[c] == v2[c] for c in v2)


def test_noncommensurable_ambients_share_surface_witnesses():
    """Three pairwise nonisomorphic admissible rational algebras give
    pairwise noncommensurable rank-two ambients, yet ten sampled real
    surface forms embed into every one of them."""
    triples = [
        AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, a, b))
        for a, b in [(-1, -1), (-1, -3), (-2, -5)]
    ]
    ambients = [
        OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2)) for t in triples
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not quaternionic_commensurable(ambients[i], ambients[j])
    rng = random.Random(909)
    witnesses = []
    while len(witnesses) < 10:
        q = diagonal_form(QQ, rng.randint(1, 30), rng.randint(1, 30), -rng.randint(1, 30))
        if not isotropic_global(q):
            witnesses.append(q)
    for q in witnesses:
        assert signature_at(q, QQ.real_places()[0]) == (2, 1)
        for amb in ambients:
            verdict = embeds_real(q, amb)
            assert verdict.embeds and verdict.witness is not None


def test_surface_witness_contracts():
    """surface_witness output for the Hamilton algebra over Q(sqrt(2)) and
    over Q: hyperbolic signature at the distinguished place, definite
    elsewhere, globally anisotropic, and embeddable into the rank-two
    canonical ambient."""
    k = Field(2)
    cases = [
        AdmissibleTriple(k, k.real_places()[0], quaternion_algebra(k, k.element(-1), k.element(-1))),
        AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, -1, -1)),
    ]
    for t in cases:
        w = surface_witness(t)
        assert signature_at(w, t.v0) == (2, 1)
        for v in t.field.real_places():
            if v != t.v0:
                assert signature_at(w, v) == (3, 0)
        assert not isotropic_global(w)
        amb = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        assert embeds_real(w, amb).embeds


def test_hilbert_reciprocity():
    """Product formula: 1000 random rational pairs and 200 pairs over
    Q(sqrt(5)).  Exact."""
    rng = random.Random(1111)

    def nonzero(draw):
        while True:
            x = draw()
            if x:
                return x

    for _ in range(1000):
        a = nonzero(lambda: QQ.element(rng.randint(-60, 60)))
        b = nonzero(lambda: QQ.element(rng.randint(-60, 60)))
        assert product_formula_check(a, b)
    k = Field(5)
    for _ in range(200):
        a = nonzero(lambda: k.element(rng.randint(-12, 12), rng.randint(-6, 6)))
        b = nonzero(lambda: k.element(rng.randint(-12, 12), rng.randint(-6, 6)))
        assert product_formula_check(a, b)


def test_lie_triple_classification_and_perturbations():
    """Canonical spans of each totally geodesic type classify correctly
    for m = 2..4; 100 random perturbations of them are rejected as
    non-triples."""
    kinds = (
        geo.TOTALLY_REAL, geo.TOTALLY_COMPLEX, geo.TOTALLY_QUATERNIONIC, geo.REAL_3_SPACE_IN_LINE
    )
    for m in (2, 3, 4):
        for kind in kinds:
            assert geo.classify_subspace(geo.standard_span(m, kind)) == kind
    rng = np.random.default_rng(1212)
    rejected = 0
    while rejected < 100:
        kind = kinds[int(rng.integers(0, len(kinds)))]
        # The quaternionic span at m=2 is the whole tangent space, which no
        # perturbation can leave; perturb it only where it is proper.
        m = int(rng.integers(3, 5)) if kind == geo.TOTALLY_QUATERNIONIC else int(rng.integers(2, 5))
        W = geo.standard_span(m, kind)
        vectors = W.vectors.copy()
        bump = rng.standard_normal(vectors.shape[1:])
        vectors[int(rng.integers(0, len(vectors)))] += 0.4 * bump / np.linalg.norm(bump)
        perturbed = geo.SubspaceSpan(vectors)
        assert geo.classify_subspace(perturbed) == geo.NOT_LIE_TRIPLE
        rejected += 1
