"""Tower decomposition of GL_n: residue level and its lift over Z_p.

Every invertible residue matrix factors uniquely as a generator word
T_n^(m_n) ... T_1^(m_1) times an upper unitriangular matrix, where T_k is a
primitive multiplication operator on F_{p^k} embedded in the top-left block.
The word exponents are found by descending through the affine subgroups.

Over Z_p the word is lifted canonically.  When the residue word element is
p-regular the lift is its Teichmuller Jordan part, which is an exact
Teichmuller-type matrix; some word elements have order divisible by p
(already in GL_2(F_3)), and for those no Teichmuller-type lift can exist, so
the word is evaluated in the Teichmuller-lifted generators instead.  Either
way the cofactor N lands in the principal congruence group B, because B is
the full preimage of the unitriangular residue group.
"""

from __future__ import annotations

from typing import NamedTuple

from . import moduli
from .arith import factorize
from .errors import InputError, LiftAuditError, NotInvertible, NotUnitary, Unsupported
from .matrices import PadicMatrix
from .scalars import Zp
from .unitary import jordan_decompose


class PhiWord(NamedTuple("PhiWord", [("p", int), ("exponents", tuple[int, ...])])):
    """Exponent list (m_1, ..., m_n) with 1 <= m_k <= p^k - 1; identity is all p^k - 1."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.exponents)

    def __new__(cls, p: int, exponents: tuple[int, ...]):
        self = super().__new__(cls, p, exponents)
        for k, m in enumerate(self.exponents, start=1):
            if not 1 <= m <= self.p**k - 1:
                raise InputError(f"exponent m_{k} = {m} outside [1, p^{k} - 1]")
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: validate there too
        return cls(*fields)


def _embed_block(block, n):
    k = len(block)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(k):
        rows[i][:k] = block[i][:k]
    return tuple(tuple(r) for r in rows)


class GeneratorSet(NamedTuple):
    """Residue generators T_1, ..., T_n embedded in GL_n(F_p), orders p^k - 1."""

    p: int
    n: int
    matrices: tuple  # T_k as n x n int tuples, index k-1

    def word_matrix(self, word: PhiWord):
        ring = Zp(self.p, 1)
        return _evaluate_word([PadicMatrix(ring, m) for m in self.matrices], word).rows


def build_generators(n: int, p: int) -> GeneratorSet:
    """Companion realizations of primitive elements per degree, orders verified."""
    if n < 1:
        raise InputError("n must be >= 1")
    ring = Zp(p, 1)
    identity = PadicMatrix.identity(ring, n)
    mats = []
    for k in range(1, n + 1):
        block = PadicMatrix.companion(ring, list(moduli.residue_modulus(p, k))[:-1]).rows
        embedded = PadicMatrix(ring, _embed_block(block, n))
        order = p**k - 1
        if embedded.matrix_power(order) != identity:
            raise ArithmeticError(f"generator T_{k} does not have order p^{k} - 1")
        for q in factorize(order):
            if embedded.matrix_power(order // q) == identity:
                raise ArithmeticError(f"generator T_{k} has order below p^{k} - 1")
        mats.append(embedded.rows)
    return GeneratorSet(p, n, tuple(mats))


class FpDecomposition(NamedTuple):
    word: PhiWord
    t_matrix: tuple
    n_matrix: tuple


def decompose_fp(p: int, rows) -> FpDecomposition:
    """Unique factorization of an invertible residue matrix as word * unitriangular.

    Descends through the affine subgroups: at level k the unique exponent m_k
    is the one driving the last row of the k-block to (0, ..., 0, 1); the
    search is brute force over at most p^k - 1 candidates.
    """
    return _decompose_fp(p, rows)[0]


def _decompose_fp(p: int, rows) -> tuple[FpDecomposition, GeneratorSet]:
    """`decompose_fp` together with the generator set it built."""
    ring = Zp(p, 1)
    A = PadicMatrix(ring, rows)
    n = A.n
    if not A.is_unitary():
        raise NotInvertible("residue matrix is singular")
    gens = build_generators(n, p)
    exponents = [0] * n
    current = A
    for k in range(n, 1, -1):
        t_inv = PadicMatrix(ring, gens.matrices[k - 1]).inverse()
        candidate = current
        found = None
        for m in range(1, p**k):
            candidate = t_inv @ candidate
            last = candidate.rows[k - 1][:k]
            if last == tuple([0] * (k - 1) + [1]):
                if found is not None:
                    raise ArithmeticError("exponent at this level is not unique")
                found = (m, candidate)
        if found is None:
            raise ArithmeticError("no exponent found; decomposition failed")
        exponents[k - 1] = found[0]
        # strip the translation column: recurse on the principal block
        block = [row[: k - 1] for row in found[1].rows[: k - 1]]
        current = PadicMatrix(ring, _embed_block(block, n))
    # level 1: discrete log in F_p^*
    target = current.rows[0][0]
    gen = gens.matrices[0][0][0]
    value = 1
    for m in range(1, p):
        value = value * gen % p
        if value == target:
            exponents[0] = m
            break
    else:
        raise ArithmeticError("level-1 discrete log failed")
    word = PhiWord(p, tuple(exponents))
    t_matrix = PadicMatrix(ring, gens.word_matrix(word))
    n_matrix = t_matrix.inverse() @ A
    if not _is_unitriangular(n_matrix.rows, p):
        raise ArithmeticError("cofactor is not unitriangular")
    if t_matrix @ n_matrix != A:
        raise ArithmeticError("multiply-back failed")
    return FpDecomposition(word, t_matrix.rows, n_matrix.rows), gens


def _is_unitriangular(rows, p) -> bool:
    n = len(rows)
    for i in range(n):
        if rows[i][i] % p != 1:
            return False
        for j in range(i):
            if rows[i][j] % p != 0:
                return False
    return True


def b_membership(N: PadicMatrix) -> bool:
    """Principal congruence test: diagonal = 1 mod p, strictly lower = 0 mod p."""
    return _is_unitriangular(N.residue_rows(), N.ring.p)


class ZpDecomposition(NamedTuple):
    word: PhiWord
    t_matrix: PadicMatrix
    n_matrix: PadicMatrix
    teichmuller: bool  # whether T is Teichmuller type (possible iff residue is p-regular)


def _teichmuller_generators(ring: Zp, n: int) -> list[PadicMatrix]:
    p, K = ring.p, ring.K
    out = []
    for k in range(1, n + 1):
        block = PadicMatrix.companion(ring, list(moduli.canonical_modulus(p, k, K))[:-1]).rows
        out.append(PadicMatrix(ring, _embed_block(block, n)))
    return out


def _evaluate_word(generators: list[PadicMatrix], word: PhiWord) -> PadicMatrix:
    ring = generators[0].ring
    acc = PadicMatrix.identity(ring, generators[0].n)
    for k in range(len(generators), 0, -1):
        acc = acc @ generators[k - 1].matrix_power(word.exponents[k - 1])
    return acc


def decompose_zp(U: PadicMatrix) -> ZpDecomposition:
    """U = T * N with T in the lifted word set and N in the congruence group B.

    T is the Teichmuller Jordan part of the plainly lifted word when the
    residue word element is p-regular; otherwise (orders divisible by p occur
    in the word set) T is the word evaluated in the Teichmuller-lifted
    generators, which still reduces correctly.
    """
    if not isinstance(U.ring, Zp):
        raise Unsupported("the tower decomposition is defined over the base ring")
    if not U.is_unitary():
        raise NotUnitary("decomposition needs a unitary matrix")
    ring = U.ring
    p = ring.p
    residue, gens = _decompose_fp(p, U.residue_rows())
    naive_gens = [PadicMatrix(ring, g) for g in gens.matrices]
    plain = _evaluate_word(naive_gens, residue.word)
    t_candidate, _ = jordan_decompose(plain)
    # the residue of plain is p-regular exactly when its Teichmuller part keeps it
    is_teich = t_candidate.residue_rows() == plain.residue_rows()
    if is_teich:
        t_matrix = t_candidate
    else:
        t_matrix = _evaluate_word(_teichmuller_generators(ring, U.n), residue.word)
    n_matrix = t_matrix.inverse() @ U
    if t_matrix.residue_rows() != residue.t_matrix or not b_membership(n_matrix):
        raise LiftAuditError("lifted decomposition failed its membership audit")
    return ZpDecomposition(residue.word, t_matrix, n_matrix, is_teich)
