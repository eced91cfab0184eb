"""Shipped table of Conway-style defining polynomials and their canonical lifts.

The residue-field moduli (version "cw1") are the standard Conway polynomials
for p in {3, 5, 7} and degrees m <= 4: monic, irreducible mod p, primitive.
At working precision K each entry is lifted to the unique monic polynomial
over Z/p^K whose roots are Teichmuller elements; in the quotient ring the
class of X is then an exact Teichmuller generator and X -> X^p induces the
exact Frobenius endomorphism.
"""

from __future__ import annotations

from functools import lru_cache

from . import fppoly
from .arith import teichmuller_exponent
from .errors import Unsupported

TABLE_VERSION = "cw1"

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


def modulus_id(p: int, m: int) -> str:
    return f"{TABLE_VERSION}-p{p}-m{m}"


@lru_cache(maxsize=None)
def canonical_modulus(p: int, m: int, K: int) -> tuple[int, ...]:
    """Monic degree-m polynomial over Z/p^K whose roots are Teichmuller units.

    Built by moving the naive lift's generator X to its Teichmuller
    representative y = X^alpha (alpha = 1 mod p^m - 1, 0 mod p^(K-1)) and
    taking the product over its Frobenius orbit, the characteristic
    polynomial of multiplication by y on Z/p^K[X]/(naive lift).
    """
    base = residue_modulus(p, m)
    pk = p**K
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
