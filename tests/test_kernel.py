"""The component-wise amplitude kernel against an independent transcription.

`FieldVector.amplitude` groups terms by action chain, maps each distinct
chain once and multiplies the summed base Gaussians by the chain's phase
and frequency factor.  The oracle here applies the defining formula

    (Phi_g a)(k) = exp(i theta_g(k)) sqrt(w(L_g^-1 k) / w(k)) a(L_g^-1 k)

one element at a time, term by term, on stacked (..., 3) momenta, with
theta_g and L_g written out from their definitions.  The chain folds
(`modes.fold`) are checked against the same transcription.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccr_reduce import (
    BHPElement,
    FieldVector,
    GaussianPacket,
    RotationElement,
    TransformedPacket,
    ZeroModeDivergenceError,
    apply_group,
    average_field_bhp,
    generate_corpus,
    load_corpus,
)
from ccr_reduce import inverse, modes
from ccr_reduce.forms import _affine_of_term
from ccr_reduce.modes import _half_lines, field_from_json, fold, lorentz_map, rays_at
from ccr_reduce.quadrature import spherical_grid

from conftest import random_field, random_s0_field, s0_field


def oracle_gaussian(base, K):
    d = (K - base.center) / base.width
    return base.coeff * np.exp(-0.5 * np.sum(d * d, axis=-1))


def oracle_action(g, K):
    """(theta_g(K), L_g^-1 K, w(L_g^-1 K) / w(K)) with ratio 1 at K = 0."""
    if isinstance(g, RotationElement):
        c, s = np.cos(g.angle), np.sin(g.angle)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return np.zeros(K.shape[:-1]), K @ R, np.ones(K.shape[:-1])  # K @ R == R^T K
    theta = 2.0 * np.pi * g.n * K[..., 0] + g.beta * K[..., 2]
    w = np.linalg.norm(K, axis=-1)
    back = K.copy()
    back[..., 1] = K[..., 1] * np.cosh(g.alpha) + w * np.sinh(g.alpha)
    w_back = np.linalg.norm(back, axis=-1)
    ratio = np.where(w > 0.0, w_back / np.where(w > 0.0, w, 1.0), 1.0)
    return theta, back, ratio


def oracle_term(chain, base, K):
    """Phi_{g_1} (Phi_{g_2} (... base)) at K, chain outermost-first."""
    if not chain:
        return oracle_gaussian(base, K)
    theta, back, ratio = oracle_action(chain[0], K)
    return np.exp(1j * theta) * np.sqrt(ratio) * oracle_term(chain[1:], base, back)


def forward_center(term):
    c = term.base.center
    for g in reversed(term.chain):
        c = lorentz_map(fold((g,)).forward, c)
    return c


packets = st.builds(
    GaussianPacket,
    st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3),
    st.lists(st.floats(0.3, 1.5), min_size=3, max_size=3),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
rotations = st.builds(RotationElement, st.floats(0.0, 2.0 * np.pi))
bhp_plain = st.builds(BHPElement, st.integers(-2, 2), st.just(0.0), st.floats(-2.0, 2.0))
bhp_boosted = st.builds(BHPElement, st.integers(-2, 2), st.floats(-1.5, 1.5),
                        st.floats(-2.0, 2.0))
chains = st.lists(st.one_of(rotations, bhp_plain, bhp_boosted), min_size=1, max_size=3)


@st.composite
def fields(draw):
    """Two to five terms over one to three chains (shared or distinct), some bare."""
    chain_pool = [()] + [tuple(c) for c in draw(st.lists(chains, min_size=1, max_size=2))]
    terms = []
    for _ in range(draw(st.integers(2, 5))):
        chain = draw(st.sampled_from(chain_pool))
        base = draw(packets)
        terms.append(TransformedPacket(base, chain) if chain else base)
    return FieldVector(0.0, tuple(terms))


def oracle_pull_back(chain, K):
    """(L_chain^-1 K, theta(K)) one element at a time, outermost first."""
    theta = np.zeros(K.shape[:-1])
    for g in chain:
        th, K, _ = oracle_action(g, K)
        theta = theta + th
    return K, theta


def oracle_push_forward(chain, K):
    """L_chain K, innermost element first, each L_g as the pull-back of g^-1."""
    for g in reversed(chain):
        K = oracle_action(inverse(g), K)[1]
    return K


def oracle_affine(chain, base):
    """(M, b, phi) of a boost-free term, from the innermost element out.

    A rotation R maps them to (R M R^T, R b, R phi), and an element (n, 0, beta)
    adds (2 pi n, 0, beta) to phi.
    """
    M, b, phi = np.diag(base.width ** -2.0), base.center, np.zeros(3)
    for g in reversed(chain):
        if isinstance(g, RotationElement):
            c, s = np.cos(g.angle), np.sin(g.angle)
            R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            M, b, phi = R @ M @ R.T, R @ b, R @ phi
        else:
            phi = phi + [2.0 * np.pi * g.n, 0.0, g.beta]
    return M, b, phi


def unit_rows(rng, n):
    D = rng.normal(size=(n, 3))
    return D / np.linalg.norm(D, axis=-1, keepdims=True)


class TestChainKernel:
    @given(f=fields(), pts=st.lists(st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
                                    min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_transcribed_action(self, f, pts):
        centres = [forward_center(t) for t in f.terms]
        flat = np.array([[0.0, 0.0, 0.0]] + centres + pts)
        blocks = [flat[0], flat, flat[: 2 * (len(flat) // 2)].reshape(2, -1, 3)]
        for K in blocks:
            ref_terms = [oracle_term(t.chain, t.base, K) for t in f.terms]
            ref = sum(ref_terms)
            # terms of one field may cancel, so the scale is the largest summed
            # modulus of the terms, which is max|a| when nothing cancels
            scale = float(np.max(sum(np.abs(r) for r in ref_terms)))
            got = f.amplitude(K)
            assert np.shape(got) == K.shape[:-1]
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    def test_origin_keeps_ratio_one(self):
        base = GaussianPacket([0.2, -0.4, 0.3], [0.8, 1.0, 0.9], 1.0 - 0.5j)
        f = apply_group(BHPElement(1, 0.9, 0.4), FieldVector(0.0, (base,)))
        assert f.amplitude(np.zeros(3)) == base.amplitude(np.zeros(3))

    def test_one_chain_evaluation_per_distinct_chain(self, monkeypatch):
        calls = []
        real = modes.map_chain

        def counting(chain, *components):
            calls.append(chain)
            return real(chain, *components)

        monkeypatch.setattr(modes, "map_chain", counting)
        p = [GaussianPacket([0.5 * i, 0.3, -0.2], [0.7, 0.9, 1.1], 1.0 + 0.1j * i)
             for i in range(5)]
        a = (RotationElement(0.4), BHPElement(1, 0.3, -0.5))
        b = (BHPElement(0, -0.7, 0.2),)
        f = FieldVector(0.0, (TransformedPacket(p[0], a), p[1], TransformedPacket(p[2], b),
                              TransformedPacket(p[3], a), p[4]))
        K = np.random.default_rng(7).uniform(-3.0, 3.0, size=(4, 5, 3))
        f.amplitude(K)
        assert sorted(map(len, calls)) == [0, 1, 2]
        # a boosted s0 pair: both terms carry the same chain, so one evaluation
        calls.clear()
        boosted = apply_group(BHPElement(1, 0.5, 0.8), s0_field([1.0, 0.4, -0.3],
                                                                [0.8, 0.9, 1.0], 0.6j))
        boosted.amplitude(K)
        assert calls == [(BHPElement(1, 0.5, 0.8),)]


boost_free_chains = st.lists(st.one_of(rotations, bhp_plain), min_size=1, max_size=3)
boosted_chains = chains.filter(lambda c: any(isinstance(g, BHPElement) and g.alpha for g in c))


class TestFold:
    @given(chain=boost_free_chains, base=packets)
    @settings(max_examples=60, deadline=None)
    def test_affine_term_matches_element_by_element_fold(self, chain, base):
        coeff, M, b, phi = _affine_of_term(TransformedPacket(base, tuple(chain)))
        M_ref, b_ref, phi_ref = oracle_affine(chain, base)
        assert coeff == base.coeff
        assert np.max(np.abs(M - M_ref)) <= 1e-13 * np.max(np.abs(M_ref))
        assert np.max(np.abs(b - b_ref)) <= 1e-13 * (1.0 + np.max(np.abs(b_ref)))
        assert np.max(np.abs(phi - phi_ref)) <= 1e-13 * (1.0 + np.max(np.abs(phi_ref)))

    @given(chain=boosted_chains, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_forward_map_and_stretch(self, chain, seed):
        chain = tuple(chain)
        f = fold(chain)
        D = unit_rows(np.random.default_rng(seed), 200)
        pushed = oracle_push_forward(chain, D)
        assert np.max(np.abs(modes.lorentz_map(f.forward, D) - pushed)) <= 1e-12 * f.stretch
        # the stretch bounds how far either map moves |k|
        for moved in (oracle_pull_back(chain, D)[0], pushed):
            ratio = np.linalg.norm(moved, axis=-1)
            assert np.all(ratio <= f.stretch * (1.0 + 1e-12))
            assert np.all(ratio >= (1.0 - 1e-12) / f.stretch)
        # the pull-back stretches most along the spatial part of its first row
        lead = f.pull[0, 1:]
        if np.linalg.norm(lead) > 1e-6:
            d = lead / np.linalg.norm(lead)
            peak = np.linalg.norm(oracle_pull_back(chain, d)[0])
            assert peak == pytest.approx(f.stretch, rel=1e-12)

    def test_large_rapidity_folds_from_the_inverse_elements(self):
        # cosh(30)^2 is about 1e26: a numerical inverse of such a product is
        # singular in double precision, the matrix of the inverse element is
        # not; the last translation acts behind the large boost, so the phase
        # is large too
        chain = (RotationElement(0.7), BHPElement(1, 30.0, 0.4), RotationElement(2.1),
                 BHPElement(1, -2.0, 0.3))
        f = fold(chain)
        # the net rapidity lies between 30 - 2 and 30 + 2
        assert f.boosted and np.exp(28.0) <= f.stretch <= np.exp(32.0)
        K = np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3))
        qx, qy, qz, theta, root = modes.pull_back_chain(chain, K[:, 0], K[:, 1], K[:, 2])
        back, theta_ref = oracle_pull_back(chain, K)
        # roundoff of the largest intermediate momentum, about stretch |k|
        scale = 1e-15 * f.stretch * np.linalg.norm(K, axis=-1)
        assert np.all(np.abs(np.stack((qx, qy, qz), axis=-1) - back).max(axis=-1) <= scale)
        assert np.all(np.abs(root ** 2 * np.linalg.norm(K, axis=-1)
                             - np.linalg.norm(back, axis=-1)) <= scale)
        assert np.all(np.abs(theta - theta_ref) <= 2.0 * np.pi * scale)


ray_elements = st.one_of(rotations, st.builds(BHPElement, st.integers(-1, 1),
                                              st.floats(-1.5, 1.5), st.floats(-2.0, 2.0)))


@st.composite
def ray_fields(draw):
    """One to three packets over one or two chains of up to three elements, some bare."""
    chain_pool = [tuple(c) for c in draw(st.lists(st.lists(ray_elements, max_size=3),
                                                  min_size=1, max_size=2))]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        chain = draw(st.sampled_from(chain_pool))
        base = draw(packets)
        terms.append(TransformedPacket(base, chain) if chain else base)
    return FieldVector(0.0, tuple(terms))


# the unit directions of a spherical-grid level, with one ray along +z
_, _, GRID_RAYS, _ = spherical_grid(1.0, 1, 8, 12)
RAYS = np.vstack([[[0.0, 0.0, 1.0]], GRID_RAYS.reshape(-1, 3)])


def check_rays(f, D, r):
    """rays_at(on_rays(D), r) against amplitude(r D), to 1e-12 of the summed term moduli.

    The summed moduli are max|a| wherever the terms do not cancel.
    """
    got = rays_at(f.on_rays(D), r)
    assert got.shape == D.shape[:-1]
    size = np.max(sum(np.abs(FieldVector(0.0, (t,)).amplitude(r * D)) for t in f.terms))
    assert np.max(np.abs(got - f.amplitude(r * D))) <= 1e-12 * size + 1e-300


class TestRays:
    @given(f=ray_fields(), r=st.floats(0.01, 12.0), stretch=st.floats(0.3, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_amplitude_on_the_shell(self, f, r, stretch):
        # stretched rays are not unit, as for the pushed-forward rays of
        # the reduced integrand
        check_rays(f, stretch * GRID_RAYS, r)

    def test_narrow_packet_far_out(self):
        # centre 4, width 0.1: |v|^2 / 2 = 800, so the expanded square would
        # need exp(800); the completed square never exceeds the log of the root
        base = GaussianPacket([0.0, 0.0, 4.0], [0.1, 0.1, 0.1], 1.0 - 0.5j)
        f = FieldVector(0.0, (base, TransformedPacket(base, (BHPElement(1, 0.4, 0.8),))))
        for r in (3.7, 3.95, 4.0, 4.02, 4.3):
            check_rays(f, RAYS, r)
        # on +z the bare packet peaks at r = 4
        assert abs(rays_at(FieldVector(0.0, (base,)).on_rays(RAYS), 4.0)[0] - base.coeff) <= 1e-15


class TestZeroModeFree:
    def test_narrow_packets_between_samples(self):
        # a(0, 0.5, 0) is 1
        width = [1.0, 3e-4, 1.0]
        f = FieldVector(0.0, (GaussianPacket([0.0, 0.5, 0.0], width, 1.0),
                              GaussianPacket([0.0, 0.0, 0.0], width, -1.0)))
        assert f.amplitude(np.array([0.0, 0.5, 0.0])) == pytest.approx(1.0, abs=1e-15)
        assert not f.is_zero_mode_free()

    def test_translations_are_decided_exactly(self):
        width = [0.6, 3e-4, 0.8]
        f = FieldVector(0.0, (GaussianPacket([0.0, 0.5, 0.0], width, 1.0),
                              GaussianPacket([0.0, 0.0, 0.0], width, -1.0)))
        moved = apply_group(BHPElement(2, 0.0, 1.5), f)
        assert not moved.is_zero_mode_free()
        # x-mirrored pairs cancel on the line whatever the translation
        pair = apply_group(BHPElement(-1, 0.0, 0.7), s0_field([0.9, 0.5, 0.2], width, 1.0))
        assert pair.is_zero_mode_free()

    def test_weights_across_x_and_z(self):
        # same (c_y, w_y): the coefficients cancel after the x and z weights
        wx, wz = 0.7, 1.3
        e = np.exp(-0.5 * (1.0 / wx) ** 2 - 0.5 * (0.5 / wz) ** 2)
        f = FieldVector(0.0, (GaussianPacket([1.0, 0.2, 0.5], [wx, 0.4, wz], 1.0),
                              GaussianPacket([0.0, 0.2, 0.0], [wx, 0.4, wz], -e)))
        assert f.is_zero_mode_free()
        assert not FieldVector(0.0, f.terms[:1]).is_zero_mode_free()

    def test_corpus_fields(self):
        s0 = load_corpus(generate_corpus(42, 6, s0=True))
        assert all(f.is_zero_mode_free() for f in s0)
        assert not any(f.is_zero_mode_free() for f in load_corpus(generate_corpus(42, 6)))

    def test_boosted_terms_are_decided_exactly(self):
        f = apply_group(BHPElement(0, 0.6, 0.0), s0_field([0.9, 0.5, 0.2], [0.8, 0.9, 1.0], 1.0))
        assert f.is_zero_mode_free()
        g = apply_group(BHPElement(0, 0.6, 0.0),
                        FieldVector(0.0, (GaussianPacket([0.1, 0.5, 0.2], [0.8, 0.9, 1.0], 1.0),)))
        assert not g.is_zero_mode_free()

    @pytest.mark.parametrize("g", [BHPElement(0, 0.3, 0.0), RotationElement(0.2)],
                             ids=["boost", "rotation"])
    def test_narrow_images_are_not_free(self, g):
        # |a| on the line reaches 1.16 (boost) and 0.99 (rotation) inside a
        # peak 4e-4 wide in k_y, which a sample of the line can miss
        p = GaussianPacket([0.0, 0.5, 0.0], [1.0, 3e-4, 1.0], 1.0)
        f = apply_group(g, FieldVector(0.0, (p,)))
        assert not f.is_zero_mode_free()
        with pytest.raises(ZeroModeDivergenceError):
            average_field_bhp(f, 1.0, 0.0)

    @pytest.mark.parametrize("g, half", [
        (BHPElement(2, 0.6, 0.4), BHPElement(1, 0.3, 0.2)),
        (RotationElement(0.4), RotationElement(0.2)),
        (BHPElement(0, 0.02, 0.0), BHPElement(0, 0.01, 0.0)),
    ], ids=["bhp", "rotation", "small-boost"])
    def test_rounding_apart_chains_cancel(self, g, half):
        # Phi_(g/2, g/2) p - Phi_g p read as given, not composed: zero in
        # exact arithmetic, while its half-line keys differ in the last bits
        term = {"center": [0.3, 0.5, -0.2], "width": [0.8, 0.6, 0.9]}
        f = field_from_json({"mass": 0.0, "terms": [
            dict(term, coeff=[1.0, 0.0], actions=[half.to_json(), half.to_json()]),
            dict(term, coeff=[-1.0, 0.0], actions=[g.to_json()])]})
        assert len(f.by_chain) == 2
        assert f.is_zero_mode_free()

    @given(f=ray_fields())
    @settings(max_examples=100, deadline=None)
    def test_half_lines_match_amplitude(self, f):
        # off k = 0, where a boosted term takes the root convention 1; to
        # 1e-14 of the summed coefficients, the scale of is_zero_mode_free
        s = np.geomspace(1e-3, 8.0, 60)
        side, peak, h, r0, theta = _half_lines(f)
        scale = sum(abs(t.base.coeff) for t in f.terms)
        for sign in (1.0, -1.0):
            m = side == sign
            rows = np.sum(peak[m, None] * np.exp(-h[m, None] * (s - r0[m, None]) ** 2
                                                 + 1j * theta[m, None] * s), axis=0)
            K = np.stack([0.0 * s, sign * s, 0.0 * s], axis=-1)
            assert np.max(np.abs(rows - f.amplitude(K))) <= 1e-14 * scale + 1e-300

    @given(seed=st.integers(0, 2 ** 32 - 1), s0=st.booleans(),
           g=st.builds(BHPElement, st.integers(-2, 2), st.floats(-3.0, 3.0),
                       st.floats(-2.0, 2.0)))
    @settings(max_examples=60, deadline=None)
    def test_group_invariance(self, seed, s0, g):
        # a boost scales a half line's peaks by at most e^(|alpha| / 2); with
        # centres within 1.5 of the line every plain peak stays far above the
        # 1e-10 threshold, so no field sits near it
        rng = np.random.default_rng(seed)
        f = random_s0_field(rng) if s0 else random_field(rng, n_terms=2, center_range=1.5)
        assert apply_group(g, f).is_zero_mode_free() == f.is_zero_mode_free() == s0
