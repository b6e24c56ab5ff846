"""Tests for the numeric model of quaternionic hyperbolic space."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import oracles
import quathyp
import quathyp.geometry as geo

RNG = np.random.default_rng(90125)

#: every totally geodesic type, as listed by Chen and Nagano
KINDS = [
    geo.TOTALLY_REAL, geo.TOTALLY_COMPLEX, geo.TOTALLY_QUATERNIONIC, geo.REAL_3_SPACE_IN_LINE
]


def random_quat(shape=()):
    return RNG.standard_normal(shape + (4,))


def random_negative_vector(m):
    """A random line vector with h(v, v) < 0, built inside the unit ball."""
    b = RNG.uniform(-0.4, 0.4, size=(m, 4))
    return geo.ball_point_to_line(b)


class TestQuaternionArithmetic:
    def test_multiplication_table(self):
        i, j, k = geo.QUAT_I, geo.QUAT_J, geo.QUAT_K
        assert np.allclose(geo.quat_mul(i, j), k)
        assert np.allclose(geo.quat_mul(j, k), i)
        assert np.allclose(geo.quat_mul(k, i), j)
        for u in (i, j, k):
            assert np.allclose(geo.quat_mul(u, u), -geo.QUAT_ONE)

    def test_conjugation_reverses_products(self):
        p, q = random_quat(), random_quat()
        lhs = geo.quat_conj(geo.quat_mul(p, q))
        rhs = geo.quat_mul(geo.quat_conj(q), geo.quat_conj(p))
        assert np.allclose(lhs, rhs)

    def test_norm_is_multiplicative(self):
        p, q = random_quat((5,)), random_quat((5,))
        lhs = geo.quat_norm_sq(geo.quat_mul(p, q))
        assert np.allclose(lhs, geo.quat_norm_sq(p) * geo.quat_norm_sq(q))

    def test_broadcasting(self):
        p = random_quat((2, 3))
        out = geo.quat_mul(p, geo.QUAT_J)
        assert out.shape == (2, 3, 4)


class TestFormAndDistance:
    def test_base_point_has_norm_minus_one(self):
        base = geo.base_point(2)
        assert np.allclose(geo.form_h(base, base), -geo.QUAT_ONE)

    def test_hermitian_symmetry(self):
        v, w = random_negative_vector(3), random_negative_vector(3)
        assert np.allclose(geo.form_h(v, w), geo.quat_conj(geo.form_h(w, v)))

    def test_distance_is_a_metric_on_samples(self):
        pts = [random_negative_vector(2) for _ in range(3)]
        for v in pts:
            assert geo.distance(v, v) == pytest.approx(0.0, abs=1e-7)
        d01 = geo.distance(pts[0], pts[1])
        assert d01 == pytest.approx(geo.distance(pts[1], pts[0]), abs=1e-10)
        assert d01 + geo.distance(pts[1], pts[2]) >= geo.distance(pts[0], pts[2]) - 1e-10

    def test_radial_distance_in_ball_model(self):
        """A ball point at radius r sits at distance 2 artanh(r) from the center."""
        for m in (2, 3):
            for r in (0.3, 0.7):
                b = np.zeros((m, 4))
                b[0, 0] = r
                v = geo.ball_point_to_line(b)
                assert geo.distance(geo.base_point(m), v) == pytest.approx(
                    2 * np.arctanh(r), abs=1e-12
                )

    def test_projective_scaling_is_free(self):
        v = random_negative_vector(2)
        alpha = random_quat()
        assert geo.distance(v, geo.quat_mul(v, alpha)) == pytest.approx(0.0, abs=1e-10)

    def test_positive_vectors_rejected(self):
        v = np.zeros((3, 4))
        v[0, 0] = 1.0
        with pytest.raises(ValueError):
            geo.distance(v, geo.base_point(2))

    def test_group_invariance(self):
        for seed in range(3):
            A = geo.random_sp_element(2, seed=seed)
            v, w = random_negative_vector(2), random_negative_vector(2)
            d0 = geo.distance(v, w)
            d1 = geo.distance(geo.mat_mul(A, v), geo.mat_mul(A, w))
            assert abs(d0 - d1) < 1e-8


class TestBallModel:
    def test_round_trip(self):
        b = RNG.uniform(-0.3, 0.3, size=(2, 4))
        v = geo.ball_point_to_line(b)
        back = geo.ball_line_convert(v)
        assert np.allclose(back[:-1], b)
        assert np.allclose(back[-1], geo.QUAT_ONE)

    def test_negative_lines_land_inside_the_ball(self):
        v = random_negative_vector(3)
        assert geo.ball_norm_sq(geo.ball_line_convert(v)) < 1.0

    def test_vanishing_last_coordinate_is_infinity(self):
        v = np.zeros((3, 4))
        v[0, 0] = 1.0
        with pytest.raises(ValueError, match="infinity"):
            geo.ball_line_convert(v)


class TestGroupMembership:
    def test_identity_and_random_elements(self):
        eye = np.zeros((3, 3, 4))
        eye[np.arange(3), np.arange(3), 0] = 1.0
        assert geo.sp_check(eye)
        assert not geo.sp_check(2.0 * eye)
        for seed in (0, 1, 2):
            assert geo.sp_check(geo.random_sp_element(2, seed=seed))

    def test_exponential_lands_in_the_group(self):
        for m in (2, 3):
            basis = geo.lie_basis(m)
            X = 0.3 * basis[1] - 0.2 * basis[7] + 0.1 * basis[-1]
            assert geo.lie_algebra_check(X)
            assert geo.sp_check(geo.matrix_exp(X))

    def test_exponential_inverts(self):
        X = 0.25 * geo.lie_basis(2)[3]
        prod = geo.mat_mul(geo.matrix_exp(X), geo.matrix_exp(-X))
        eye = np.zeros_like(prod)
        eye[np.arange(3), np.arange(3), 0] = 1.0
        assert np.allclose(prod, eye, atol=1e-12)

    def test_complex_matrix_round_trip(self):
        A = geo.random_sp_element(2, seed=5)
        assert np.allclose(geo.from_complex_matrix(geo.to_complex_matrix(A)), A)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 10])
    @pytest.mark.parametrize("norm", [0.0, 0.1, 0.5, 3.0, 40.0])
    def test_complex_kernel_matches_scipy(self, n, norm):
        # 1-norms up to 1/2 are summed directly; larger ones are squared back
        rng = np.random.default_rng(100 * n + int(10 * norm))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M *= norm * n / np.abs(M).sum(axis=0).max()
        expected = scipy.linalg.expm(M)
        got = geo._expm(M)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_complex_kernel_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            geo._expm(np.array([[np.inf]], dtype=complex))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_sampled_isometries_lie_in_the_group(self, m):
        for seed in range(5):
            assert geo.sp_check(geo.random_sp_element(m, seed))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
    @pytest.mark.parametrize("check", [geo.sp_check, geo.lie_algebra_check])
    def test_membership_checks_reject_non_quaternion_matrices(self, check, shape):
        # a real 4x4 array would otherwise be read as a 4-vector of quaternions
        with pytest.raises(ValueError, match="square quaternion matrix"):
            check(np.zeros(shape))


class TestLieAlgebraBasis:
    @pytest.mark.parametrize("m,expected", [(2, 21), (3, 36), (4, 55)])
    def test_dimension(self, m, expected):
        assert geo.lie_dim(m) == expected
        assert len(geo.lie_basis(m)) == expected

    def test_membership(self):
        for B in geo.lie_basis(2):
            assert geo.lie_algebra_check(B)

    def test_coordinates_invert_the_basis(self):
        basis = geo.lie_basis(2)
        for i in (0, 5, 13, 20):
            coords = geo.coordinates(basis[i], 2)
            expected = np.zeros(len(basis))
            expected[i] = 1.0
            assert np.allclose(coords, expected, atol=1e-10)

    def test_bracket_closure(self):
        basis = geo.lie_basis(2)
        for _ in range(6):
            i, j = RNG.integers(0, len(basis), size=2)
            assert geo.lie_algebra_check(geo.bracket(basis[i], basis[j]))

    def test_bracket_antisymmetry_and_jacobi(self):
        basis = geo.lie_basis(2)
        A, B, C = basis[2], basis[9], basis[17]
        assert np.allclose(geo.bracket(A, B), -geo.bracket(B, A))
        jac = (
            geo.bracket(A, geo.bracket(B, C))
            + geo.bracket(B, geo.bracket(C, A))
            + geo.bracket(C, geo.bracket(A, B))
        )
        assert np.allclose(jac, 0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_structural_bracket_identities_are_exact(self, m):
        assert geo.bracket_identity_dev(m) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_batched_identities_match_loop(self, m):
        # at m = 1 every family is empty
        assert geo.bracket_identity_dev(m) == oracles.bracket_identity_dev_loop(m) == 0.0

    def test_identity_check_sees_a_wrong_bracket(self, monkeypatch):
        def anticommutator(A, B):
            return geo.mat_mul(A, B) + geo.mat_mul(B, A)

        monkeypatch.setattr(geo, "bracket", anticommutator)
        batched = geo.bracket_identity_dev(3)
        assert batched > 0.0
        assert batched == oracles.bracket_identity_dev_loop(3)


class TestKillingForm:
    def test_symmetry(self):
        basis = geo.lie_basis(2)
        A, B = basis[4], basis[11]
        assert geo.killing_value(A, B, 2) == pytest.approx(
            geo.killing_value(B, A, 2), rel=1e-10
        )

    def test_ad_invariance(self):
        basis = geo.lie_basis(2)
        A, B, C = basis[1], basis[8], basis[19]
        lhs = geo.killing_value(geo.bracket(A, B), C, 2)
        rhs = -geo.killing_value(B, geo.bracket(A, C), 2)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_value_on_first_corner_generator(self, m):
        # The trace form evaluates to 8(m + 2) on this generator.
        X = geo.X_element(m, 1, geo.QUAT_ONE)
        assert geo.killing_value(X, X, m) == pytest.approx(8 * (m + 2), abs=1e-9)

    def test_base_metric_normalization(self):
        for m in (2, 3):
            X = geo.X_element(m, 1, geo.QUAT_ONE)
            w = geo.tangent_of_corner(X, m)
            g = geo.metric_at(geo.base_point(m), w, w)
            assert g[0] == pytest.approx(4.0, abs=1e-12)
            assert np.allclose(g[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_killing_to_metric_ratio_is_constant(self, m):
        ratios = geo.killing_metric_ratios(m, samples=20, seed=3)
        assert np.allclose(ratios, 2 * (m + 2), atol=1e-9)
        assert geo.metric_scaling_check(m, samples=20, seed=3, reference=2 * (m + 2)) < 1e-9
        assert geo.metric_scaling_check(m, samples=20, seed=3) < 1e-9

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            geo.killing_metric_ratios(1, samples=1, seed=0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form_matches_ad_trace(self, m):
        basis = np.stack(geo.lie_basis(m))
        rng = np.random.default_rng(m)
        for _ in range(6):
            A, B = np.tensordot(rng.standard_normal((2, len(basis))), basis, axes=1)
            expected = oracles.killing_adtrace(A, B, m)
            got = geo.killing_value(A, B, m)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-9)

    def test_shape_must_match_rank(self):
        X = geo.X_element(2, 1, geo.QUAT_ONE)
        with pytest.raises(ValueError):
            geo.killing_value(X, X, 3)


class TestSubspaceClassification:
    def test_table_lists_every_type(self):
        assert list(geo.GEODESIC_TYPES) == KINDS

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_standard_spans(self, m, kind):
        W = geo.standard_span(m, kind)
        assert geo.lie_triple_closure(W)
        assert geo.classify_subspace(W) == kind

    def test_span_sizes(self):
        assert geo.standard_span(2, geo.TOTALLY_REAL).count == 2
        assert geo.standard_span(3, geo.TOTALLY_REAL, dim=3).count == 3
        assert geo.standard_span(2, geo.TOTALLY_COMPLEX).count == 2
        assert geo.standard_span(2, geo.TOTALLY_QUATERNIONIC).count == 8
        assert geo.standard_span(1, geo.REAL_3_SPACE_IN_LINE).count == 3
        with pytest.raises(ValueError, match="needs m >= 2"):
            geo.standard_span(1, geo.TOTALLY_QUATERNIONIC)
        with pytest.raises(ValueError, match="unknown kind"):
            geo.standard_span(2, geo.NOT_LIE_TRIPLE)

    def test_complex_span_survives_right_rotation(self):
        q = random_quat()
        q = q / np.sqrt(geo.quat_norm_sq(q))
        W = geo.standard_span(3, geo.TOTALLY_COMPLEX)
        rotated = geo.SubspaceSpan(geo.quat_mul(W.vectors, q))
        assert geo.classify_subspace(rotated) == geo.TOTALLY_COMPLEX

    def test_perturbation_breaks_closure(self):
        e1 = np.zeros((2, 4))
        e1[0, 0] = 1.0
        mixed = geo.quat_mul(
            np.roll(e1, 1, axis=0), geo.QUAT_J
        ) + 0.3 * geo.quat_mul(e1, geo.QUAT_I)
        W = geo.SubspaceSpan(np.stack([e1, mixed]))
        assert not geo.lie_triple_closure(W)
        assert geo.classify_subspace(W) == geo.NOT_LIE_TRIPLE

    def test_dependent_vectors_rejected(self):
        e1 = np.zeros((2, 4))
        e1[0, 0] = 1.0
        with pytest.raises(ValueError):
            geo.SubspaceSpan(np.stack([e1, 2.0 * e1]))

    @staticmethod
    def _spans(m):
        """(type, span) pairs: standard spans and their images under a
        random Sp(m) rotation, real 2- and 3-planes in a random
        quaternionic line (complex lines and real 3-spaces), and random
        spans of every size (not closed, but for a line and the whole
        space).  In a 3-plane u.span(1, i, j) the last term of the triple
        product leaves the span and only the full sum stays inside."""
        for kind in KINDS:
            if kind == geo.TOTALLY_QUATERNIONIC and m < 2:
                continue
            W = geo.standard_span(m, kind, dim=min(2, m))
            yield kind, W
            B = RNG.standard_normal((m, m, 4))
            U = geo.matrix_exp(B - geo.mat_conj_transpose(B))
            yield kind, geo.SubspaceSpan(np.stack([geo.mat_mul(U, v) for v in W.vectors]))
        u = RNG.standard_normal((m, 4))
        for k, kind in ((2, geo.TOTALLY_COMPLEX), (3, geo.REAL_3_SPACE_IN_LINE)):
            yield kind, geo.SubspaceSpan(geo.quat_mul(u, RNG.standard_normal((k, 1, 4))))
        for k in range(1, 4 * m + 1, 3):
            kind = {1: geo.TOTALLY_REAL, 4 * m: geo.TOTALLY_QUATERNIONIC}.get(k, geo.NOT_LIE_TRIPLE)
            yield kind, geo.SubspaceSpan(RNG.standard_normal((k, m, 4)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_types_and_sectional_curvatures(self, m):
        """Each span classifies as its type, and random planes in it have
        the type's sectional curvatures (the curvature-tensor oracle with
        c = 1): -1 when totally real, -4 in a real 3-space of a line, and
        within [-4, -1] when complex or quaternionic."""
        bounds = {geo.TOTALLY_REAL: (-1.0, -1.0), geo.REAL_3_SPACE_IN_LINE: (-4.0, -4.0)}
        for kind, W in self._spans(m):
            assert geo.classify_subspace(W) == kind
            if kind == geo.NOT_LIE_TRIPLE or W.count < 2:
                continue
            lo, hi = bounds.get(kind, (-4.0, -1.0))
            Q = W.orthonormal_flat()
            for _ in range(8):
                P, _ = np.linalg.qr(Q @ RNG.standard_normal((W.count, 2)))
                X, Y = P.T.reshape(2, m, 4)
                assert lo - 1e-9 <= oracles.sectional_curvature(X, Y) <= hi + 1e-9, kind

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_batched_closure_matches_loop(self, m):
        verdicts = []
        for _, W in self._spans(m):
            verdicts.append(oracles.lie_triple_closure_loop(W))
            assert geo.lie_triple_closure(W) == verdicts[-1]
        assert True in verdicts
        if m > 1:
            assert False in verdicts

    def test_sliced_closure_matches_loop(self, monkeypatch):
        # one slice per first index, as for spans too large for one batch
        monkeypatch.setattr(geo, "_CLOSURE_CHUNK", 1)
        for _, W in self._spans(2):
            assert geo.lie_triple_closure(W) == oracles.lie_triple_closure_loop(W)


class TestStacks:
    """The report's sections run over stacks of samples; each stacked
    helper agrees with its one-matrix public form."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sampled_isometries_stack(self, m):
        seeds = [3, 11, 1000, 2024]
        stack = geo._random_sp_elements(m, seeds)
        assert stack.shape == (len(seeds), m + 1, m + 1, 4)
        for A, seed in zip(stack, seeds):
            np.testing.assert_allclose(A, geo.random_sp_element(m, seed), rtol=0, atol=1e-15)
        assert np.array_equal(geo.random_sp_element(m, 3), geo.random_sp_element(m, 3))
        assert not np.array_equal(stack[0], stack[1])
        assert geo.sp_dev(stack) == max(geo.sp_dev(A) for A in stack) <= geo.GROUP_TOLERANCE

    def test_exponential_of_a_stack_scales_each_matrix(self):
        # 1-norms from 0 to 40 need 0 to 7 squarings, each its own
        rng = np.random.default_rng(17)
        M = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
        norms = np.abs(M).sum(axis=-2).max(axis=-1)
        M *= (np.array([0.0, 0.2, 1.0, 3.0, 12.0, 40.0]) / norms)[:, None, None]
        got = geo._expm(M)
        for one, expected in zip(got, M):
            want = scipy.linalg.expm(expected)
            assert np.linalg.norm(one - want) <= 1e-12 * np.linalg.norm(want)
            np.testing.assert_allclose(one, geo._expm(expected), rtol=1e-15, atol=0)

    def test_membership_over_the_basis_stack(self):
        basis = geo._cached_basis(3)
        assert geo.lie_algebra_dev(basis) == max(geo.lie_algebra_dev(A) for A in basis) == 0.0
        # 0.5 on every component: the real parts of the diagonal miss by 1
        assert geo.lie_algebra_dev(np.concatenate([basis, basis[:1] + 0.5])) == 1.0

    def test_distances_over_a_stack(self):
        v = np.stack([random_negative_vector(3) for _ in range(8)])
        w = np.stack([random_negative_vector(3) for _ in range(8)])
        w[0] = geo.quat_mul(v[0], random_quat())  # one pair on one line: 0
        got = geo._distances(v, w)
        assert got.shape == (8,) and got[0] == 0.0
        for d, a, b in zip(got, v, w):
            expected = oracles.distance_by_floats(a, b)
            assert d == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert geo.distance(a, b) == pytest.approx(expected, rel=1e-12, abs=0.0)
        with pytest.raises(ValueError, match="negative vectors"):
            geo._distances(v, np.concatenate([w[:7], np.eye(4, 4)[None, :]]))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_killing_ratios_match_the_one_sample_functions(self, m):
        alphas = geo._gaussians(random.Random(3), (20, m, 4))
        ratios = geo.killing_metric_ratios(m, samples=20, seed=3)
        for alpha, ratio in zip(alphas, ratios):
            X = np.zeros((m + 1, m + 1, 4))
            X[:m, m] = alpha
            X[m, :m] = geo.quat_conj(alpha)
            w = geo.tangent_of_corner(X, m)
            g = geo.metric_at(geo.base_point(m), w, w)[0]
            assert ratio == pytest.approx(geo.killing_value(X, X, m) / g, rel=1e-14)

    def test_public_shapes_are_still_checked(self):
        v = geo.base_point(2)
        with pytest.raises(ValueError, match="share shape"):
            geo.distance(np.stack([v, v]), np.stack([v, v]))
        with pytest.raises(ValueError, match="share shape"):
            geo.metric_at(v, np.stack([v, v]), np.stack([v, v]))
        X = geo.X_element(2, 1, geo.QUAT_ONE)
        with pytest.raises(ValueError):
            geo.killing_value(np.stack([X, X]), np.stack([X, X]), 2)

    def test_tangent_of_corner_reads_the_last_column(self):
        X = np.stack([geo.X_element(3, ell, geo.QUAT_I) for ell in (1, 2, 3)])
        w = geo.tangent_of_corner(X, 3)
        for ell in range(3):
            expected = np.zeros((4, 4))
            expected[ell] = geo.QUAT_I
            assert np.array_equal(w[ell], expected)
            assert np.array_equal(geo.tangent_of_corner(X[ell], 3), expected)

    def test_every_sampled_isometry_is_checked(self, monkeypatch):
        # the last of each ten samples stretches the first axis: both
        # sampled checks must see it
        sample = geo._random_sp_elements

        def one_bad(m, seeds):
            stack = sample(m, seeds)
            stack[-1, 0, 0] *= 2.0
            return stack

        monkeypatch.setattr(geo, "_random_sp_elements", one_bad)
        checks = {c["name"]: c for c in geo.geometry_report(3)["checks"]}
        assert not checks["distance-invariance"]["passed"]
        assert not checks["group-membership"]["passed"]
        assert checks["killing-metric-ratio"]["passed"]


class TestReport:
    def test_structure_and_honest_failures(self):
        rep = geo.geometry_report(2, samples=8, seed=7)
        names = [c["name"] for c in rep["checks"]]
        assert len(names) == 10 and len(set(names)) == 10
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["basis-count"]["passed"]
        assert by_name["bracket-identities"]["passed"]
        assert by_name["base-metric"]["passed"]
        assert by_name["distance-invariance"]["passed"]
        assert by_name["triple-classification"]["passed"]
        # the Killing numbers match the derived constants 8(m+2) and 2(m+2)
        assert by_name["killing-x1"]["passed"]
        assert "32" in by_name["killing-x1"]["detail"]
        assert by_name["killing-x1"]["reference"] == 32.0
        assert by_name["killing-metric-ratio"]["passed"]
        assert "2(m+2) = 8" in by_name["killing-metric-ratio"]["detail"]
        assert rep["all_passed"]

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            geo.geometry_report(1)


def child_stdout(code, **env):
    """Standard output of ``code`` in a fresh interpreter that imports the
    same quathyp as this test process."""
    root = os.path.dirname(os.path.dirname(quathyp.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        check=True,
    )
    return proc.stdout


def _modules_loaded_by(statement):
    # the last line: the statement may print output of its own first
    out = child_stdout(f"{statement}; import sys; print(' '.join(sys.modules))")
    return set(out.splitlines()[-1].split())


def _packages(modules):
    return {name.split(".")[0] for name in modules}


def test_cli_imports_geometry_without_scipy():
    loaded = _modules_loaded_by("import quathyp.cli")
    assert "quathyp.geometry" in loaded
    assert "scipy" not in _packages(loaded)


def test_cli_imports_neither_dataclasses_nor_inspect():
    # records are slotted classes; what the interpreter loads at start-up
    # on its own does not count against the CLI
    added = _modules_loaded_by("import quathyp.cli") - _modules_loaded_by("pass")
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & added


#: what ``import quathyp.cli`` adds over a bare interpreter: the modules of
#: argparse, json and fractions, the lazy numpy stub and quathyp's own
CLI_START_UP_MODULES = {
    "__future__", "_decimal", "_json", "argparse", "decimal", "fractions", "gettext", "numbers",
    "json", "json.decoder", "json.encoder", "json.scanner", "numpy",
}


def test_cli_start_up_imports_no_new_module():
    # a module added to the one-shot CLI's path fails here instead of
    # reading as start-up noise in a benchmark
    added = _modules_loaded_by("import quathyp.cli") - _modules_loaded_by("pass")
    assert {m for m in added if m.split(".")[0] != "quathyp"} <= CLI_START_UP_MODULES


def test_package_imports_neither_numpy_nor_scipy():
    packages = _packages(_modules_loaded_by("import quathyp"))
    assert "numpy" not in packages and "scipy" not in packages


HAMILTON = '{"field": {"base": "Q"}, "v0": {"embedding": 0}, "algebra": {"a": -1, "b": -1}}'
AMBIENT = (
    '{"kind": "nonsplit", "form": {"field": {"base": "Q"}, '
    '"algebra": {"a": -1, "b": -3}, "coeffs": [1, 1, -1]}}'
)
ARITHMETIC_COMMANDS = [
    ["symbol", "--", "-1", "-1"],
    ["ramification", '{"field": {"base": "Q"}, "a": -1, "b": -3}'],
    ["invariants", '{"field": {"base": "Q"}, "algebra": {"a": -1, "b": -1}, "coeffs": [1, -3]}'],
    ["isometric", '{"field": {"base": "Q"}, "coeffs": [1, -6]}',
     '{"field": {"base": "Q"}, "coeffs": [2, -12]}'],
    ["commensurable", HAMILTON, HAMILTON.replace('"b": -1', '"b": -3')],
    ["admissible", HAMILTON],
    ["canonical-form", "--m", "2", HAMILTON],
    ["embeds-real", '{"field": {"base": "Q"}, "coeffs": [1, 1, -3]}', AMBIENT],
    ["embeds-complex", "0", '{"field": {"base": "Q"}, "c": -7, "coeffs": [1, 1, -1]}', AMBIENT],
    ["surface-witness", HAMILTON],
]


def _modules_loaded_by_cli(argv):
    return _modules_loaded_by(f"from quathyp.cli import main; assert main({argv!r}) == 0")


@pytest.mark.parametrize("argv", ARITHMETIC_COMMANDS, ids=lambda argv: argv[0])
def test_arithmetic_commands_never_execute_numpy(argv):
    loaded = _modules_loaded_by_cli(argv)
    # the lazy "numpy" module itself is there; its package code never ran
    assert "quathyp.geometry" in loaded
    assert not [name for name in loaded if name.startswith("numpy.")]


def test_verify_geometry_loads_numpy():
    assert "numpy._core" in _modules_loaded_by_cli(["verify-geometry", "--m", "2"])


def test_verify_geometry_draws_without_numpy_random():
    loaded = _modules_loaded_by_cli(["verify-geometry", "--m", "2"])
    assert "numpy._core" in loaded
    assert not [name for name in loaded if name.split(".")[:2] == ["numpy", "random"]]


class TestLazyModuleSurface:
    UNIT_NAMES = ("QUAT_ONE", "QUAT_I", "QUAT_J", "QUAT_K")

    def test_unit_rows(self):
        rows = ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
        for name, row in zip(self.UNIT_NAMES, rows):
            value = getattr(geo, name)
            assert isinstance(value, np.ndarray) and value.dtype == float
            assert np.array_equal(value, row)
        units = geo.QUAT_UNITS
        assert isinstance(units, tuple) and len(units) == 4
        assert all(unit is getattr(geo, name) for unit, name in zip(units, self.UNIT_NAMES))

    def test_zero_band(self):
        assert geo.ZERO_BAND == 64 * np.finfo(float).eps

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            geo.no_such_name

    def test_from_import(self):
        from quathyp.geometry import QUAT_J

        assert np.array_equal(QUAT_J, [0.0, 0.0, 1.0, 0.0])
