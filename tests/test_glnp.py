"""Tower decomposition: residue level exhaustively, lifts with audits."""

import random
from itertools import product

import pytest

from padicu import glnp
from padicu.errors import NotInvertible, Unsupported
from padicu.matrices import PadicMatrix
from padicu.sampling import random_unitary
from padicu.scalars import Zp
from padicu.unitary import classify


def test_build_generators_orders():
    gens = glnp.build_generators(1, 3)
    assert gens.matrices[0] == ((2,),)
    gens2 = glnp.build_generators(2, 3)
    t2 = PadicMatrix(Zp(3, 1), gens2.matrices[1])
    power, order = t2, 1
    identity = PadicMatrix.identity(Zp(3, 1), 2)
    while power != identity:
        power = power @ t2
        order += 1
    assert order == 8
    # exhaustive order audit for k <= 3, p in {3, 5}
    for p in (3, 5):
        gens3 = glnp.build_generators(3, p)
        for k, rows in enumerate(gens3.matrices, start=1):
            mat = PadicMatrix(Zp(p, 1), rows)
            power, order = mat, 1
            identity = PadicMatrix.identity(Zp(p, 1), 3)
            while power != identity:
                power = power @ mat
                order += 1
            assert order == p**k - 1


def test_decompose_fp_trivial_cases():
    identity = [[1, 0], [0, 1]]
    out = glnp.decompose_fp(3, identity)
    assert out.word.exponents == (2, 8)  # all m_k = p^k - 1 encodes the identity
    assert out.n_matrix == PadicMatrix.identity(Zp(3, 1), 2).rows

    unitriangular = [[1, 2], [0, 1]]
    out2 = glnp.decompose_fp(3, unitriangular)
    assert out2.word.exponents == (2, 8)
    assert out2.n_matrix == ((1, 2), (0, 1))


def test_decompose_fp_rejects_singular():
    with pytest.raises(NotInvertible):
        glnp.decompose_fp(3, [[1, 1], [1, 1]])


def test_decompose_fp_exhaustive_gl2f3():
    seen_t, seen_n, seen_pairs = set(), set(), set()
    count = 0
    for entries in product(range(3), repeat=4):
        rows = (entries[0:2], entries[2:4])
        det = (entries[0] * entries[3] - entries[1] * entries[2]) % 3
        if det == 0:
            continue
        count += 1
        out = glnp.decompose_fp(3, rows)
        f3 = Zp(3, 1)
        assert (PadicMatrix(f3, out.t_matrix) @ PadicMatrix(f3, out.n_matrix)).rows == rows
        seen_t.add(out.t_matrix)
        seen_n.add(out.n_matrix)
        seen_pairs.add((out.t_matrix, out.n_matrix))
    assert count == 48
    assert len(seen_pairs) == 48  # uniqueness: distinct inputs, distinct pairs
    assert len(seen_t) == 16  # |Phi| = (3-1)(3^2-1)
    assert len(seen_n) == 3  # |B| = 3^(2*1/2)


def test_b_membership_examples():
    ring = Zp(3, 2)
    assert glnp.b_membership(PadicMatrix.identity(ring, 2))
    assert glnp.b_membership(PadicMatrix(ring, [[1, 5], [3, 1]]))
    assert not glnp.b_membership(PadicMatrix(ring, [[2, 0], [0, 1]]))


def test_decompose_zp_trivial_and_audits():
    ring = Zp(3, 2)
    out = glnp.decompose_zp(PadicMatrix.identity(ring, 2))
    assert out.t_matrix == PadicMatrix.identity(ring, 2)
    assert out.n_matrix == PadicMatrix.identity(ring, 2)
    assert out.teichmuller

    rng = random.Random(51)
    for _ in range(12):
        u = random_unitary(ring, 2, rng)
        out = glnp.decompose_zp(u)
        assert out.t_matrix @ out.n_matrix == u
        assert glnp.b_membership(out.n_matrix)
        # lift coherence with the residue decomposition
        residue = glnp.decompose_fp(3, u.residue_rows())
        assert out.word == residue.word
        assert out.t_matrix.residue_rows() == residue.t_matrix
        assert out.n_matrix.residue_rows() == residue.n_matrix
        if out.teichmuller:
            assert classify(out.t_matrix).is_teichmuller


def test_decompose_zp_nonregular_words_fall_back():
    # some word elements have order divisible by p; no Teichmuller-type lift exists
    ring = Zp(3, 2)
    rng = random.Random(99)
    fallbacks = 0
    for _ in range(40):
        u = random_unitary(ring, 2, rng)
        out = glnp.decompose_zp(u)
        if not out.teichmuller:
            fallbacks += 1
            order = 1
            power = out.t_matrix.reduce(1)
            identity = PadicMatrix.identity(ring.at_precision(1), 2)
            probe = power
            while probe != identity:
                probe = probe @ power
                order += 1
            assert order % 3 == 0  # exactly the p-irregular residues fall back
    assert fallbacks > 0


def test_decompose_zp_uniqueness_small_brute_force():
    """Over Z/9 the lifted word set times B covers GL_2 exactly once."""
    ring = Zp(3, 2)
    # the canonical lift of each word, via the library's own constructor
    lifts = {}
    for m2 in range(1, 9):
        for m1 in range(1, 3):
            word = glnp.PhiWord(3, (m1, m2))
            residue_t = glnp.build_generators(2, 3).word_matrix(word)
            # reconstruct the canonical lift the way decompose_zp does
            sample = PadicMatrix(ring, residue_t)
            out = glnp.decompose_zp(sample)
            assert out.word == word
            lifts[word.exponents] = out.t_matrix
    assert len(set(lifts.values())) == 16
    b_elements = []
    for d0, d1, low, up in product((1, 4, 7), (1, 4, 7), (0, 3, 6), range(9)):
        b_elements.append(PadicMatrix(ring, [[d0, up], [low, d1]]))
    assert len(b_elements) == 243
    products = set()
    for t in lifts.values():
        for b in b_elements:
            products.add(t @ b)
    assert len(products) == 16 * 243  # 3888 = |GL_2(Z/9)|: the cover is exact


def test_decompose_zp_requires_base_ring_and_unitary():
    ring = Zp(3, 2)
    with pytest.raises(Unsupported):
        from padicu.scalars import UnramRing

        glnp.decompose_zp(PadicMatrix.identity(UnramRing(3, 2, 2), 2))
    from padicu.errors import NotUnitary

    with pytest.raises(NotUnitary):
        glnp.decompose_zp(PadicMatrix(ring, [[3, 0], [0, 1]]))
