"""The component-wise amplitude kernel against an independent transcription.

`FieldVector.amplitude` groups terms by action chain, maps each distinct
chain once and multiplies the summed base Gaussians by the chain's phase
and frequency factor.  The oracle here applies the defining formula

    (Phi_g a)(k) = exp(i theta_g(k)) sqrt(w(L_g^-1 k) / w(k)) a(L_g^-1 k)

one element at a time, term by term, on stacked (..., 3) momenta, with
theta_g and L_g written out from their definitions.
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
    apply_group,
    generate_corpus,
    load_corpus,
)
from ccr_reduce import modes

from conftest import s0_field


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
        c = g.forward_momentum_map(c)
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


class TestZeroModeFree:
    def test_narrow_packets_between_samples(self):
        # the 257 line samples straddle both packets; a(0, 0.5, 0) is 1
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

    def test_boosted_terms_are_sampled(self):
        f = apply_group(BHPElement(0, 0.6, 0.0), s0_field([0.9, 0.5, 0.2], [0.8, 0.9, 1.0], 1.0))
        assert f.is_zero_mode_free()
        g = apply_group(BHPElement(0, 0.6, 0.0),
                        FieldVector(0.0, (GaussianPacket([0.1, 0.5, 0.2], [0.8, 0.9, 1.0], 1.0),)))
        assert not g.is_zero_mode_free()
