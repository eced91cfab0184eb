"""Teichmuller lifts of residue moduli, and the shipped table of Conway-style moduli.

For a monic irreducible pi of degree m over F_p, `teichmuller_modulus` gives
the unique monic polynomial phi_pi over Z/p^K that reduces to pi and whose
roots are Teichmuller elements.  In Z/p^K[X]/(phi_pi), the degree-m
unramified ring, the class of X is then an exact Teichmuller root of phi_pi
and X -> X^p induces the exact Frobenius endomorphism (Serre, *Local
Fields*, ch. II, sections 4-5).  The ring is named by its modulus
(`modulus_id`).  The residue-field moduli of the table (version "cw1") are
the standard Conway polynomials for p in {3, 5, 7} and degrees m <= 4:
monic, irreducible mod p, primitive; `canonical_modulus` lifts them, and
`UnramRing(p, K, m)` is the ring over that lift.

A lift is a constant of the residue field, like a table modulus: `_lift`
keeps `LIFTS_KEPT` per process, keyed by (p, residue as a tuple of ints, K),
each about (m + 1)(K bits(p) / 8 + 80) + 200 bytes: 56 MB in all at the
CLI's caps m <= 32, K <= 128 and p = 1000003 (p is not capped).
"""

from __future__ import annotations

from functools import lru_cache

from . import fppoly
from .arith import teichmuller_exponent
from .errors import InputError, Unsupported

TABLE_VERSION = "cw1"
LIFTS_KEPT = 4096  # Teichmuller lifts kept per process (`_lift`)

# Ascending coefficients, leading coefficient 1.  Verified primitive and
# irreducible by tests/test_moduli.py.
_CONWAY: dict[tuple[int, int], tuple[int, ...]] = {
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (7, 4): (3, 4, 5, 0, 1),
}


def has_entry(p: int, m: int) -> bool:
    return (p, m) in _CONWAY


def residue_modulus(p: int, m: int) -> tuple[int, ...]:
    """Defining polynomial of F_{p^m} over F_p from the shipped table."""
    try:
        return _CONWAY[(p, m)]
    except KeyError:
        raise Unsupported(
            f"no modulus shipped for p={p}, m={m}; table covers p in {{3,5,7}}, m <= 4"
        ) from None


def ring_modulus(p: int, residue: tuple[int, ...], K: int) -> tuple[str, tuple[int, ...]]:
    """(name, modulus) of the unramified ring over the Teichmuller lift of residue.

    The name depends only on the modulus: `cw1-p{p}-m{m}` when residue is
    the table's entry of its degree m, whose lift is `canonical_modulus`'s,
    else `tl1-p{p}-` and residue's coefficients, ascending, joined by ".".
    """
    m = len(residue) - 1
    if _CONWAY.get((p, m)) == residue:
        return f"{TABLE_VERSION}-p{p}-m{m}", canonical_modulus(p, m, K)
    return f"tl1-p{p}-" + ".".join(map(str, residue)), teichmuller_modulus(p, residue, K)


def canonical_modulus(p: int, m: int, K: int) -> tuple[int, ...]:
    """The Teichmuller lift of the table's degree-m modulus (`teichmuller_modulus`)."""
    return teichmuller_modulus(p, residue_modulus(p, m), K)


def teichmuller_modulus(p: int, residue, K: int) -> tuple[int, ...]:
    """Monic polynomial over Z/p^K whose roots are Teichmuller units, reducing to residue.

    residue is a monic irreducible polynomial over F_p, ascending, of degree
    m.  The lift is built by moving the naive lift's generator X to its
    Teichmuller representative y = X^alpha (alpha = 1 mod p^m - 1, 0 mod
    p^(K-1)) and taking the product over its Frobenius orbit, the
    characteristic polynomial of multiplication by y on Z/p^K[X]/(naive
    lift).  Three audits: y^(p^m) = y, the product vanishes at y, and it is
    monic and reduces to residue.  Any other residue raises InputError on
    every call: `_lift`, keyed by residue as a tuple of ints, keeps no failure.
    """
    base = tuple(residue)
    if not all(isinstance(c, int) for c in base):
        raise InputError(f"{list(base)} is not a polynomial with int coefficients")
    return _lift(p, base, K)


@lru_cache(maxsize=LIFTS_KEPT)
def _lift(p: int, base: tuple[int, ...], K: int) -> tuple[int, ...]:
    m, pk = len(base) - 1, p**K
    monic = m >= 1 and base[-1] == 1 and all(0 <= c < p for c in base)
    if not (monic and fppoly.is_irreducible(list(base), p)):
        raise InputError(f"{list(base)} is not a monic irreducible polynomial mod {p} with coefficients in [0, {p})")
    naive = [c % pk for c in base]
    alpha, _ = teichmuller_exponent(p**m, p, K, 1, (1,))
    y = fppoly.pow_mod([0, 1], alpha, naive, pk)
    if fppoly.pow_mod(y, p**m, naive, pk) != y:
        raise RuntimeError("Teichmuller generator is not fixed by x -> x^(p^m)")
    # moduli is imported by scalars, which matrices imports: bind late
    from .matrices import orbit_polynomial
    from .scalars import Zp

    flat = orbit_polynomial(Zp(p, K), naive, y)
    value = []  # flat(y) in the scaffold ring, by Horner's rule
    for c in reversed(flat):
        value = fppoly.add(fppoly.divmod_poly(fppoly.mul(value, y, pk), naive, pk)[1], [c], pk)
    if value:
        raise RuntimeError("orbit polynomial does not vanish at the Teichmuller generator")
    if flat[-1] != 1 or [c % p for c in flat] != [c % p for c in base]:
        raise RuntimeError("canonical modulus failed its reduction audit")
    return tuple(flat)
