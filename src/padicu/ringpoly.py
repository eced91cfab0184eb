"""Dense polynomials over a ring handle: ascending lists of its raw values.

A polynomial is a list of raw values of a `Zp` or `UnramRing` handle, lowest
degree first, with no zero top coefficient; [] is the zero polynomial.  Every
modulus is monic, so reduction needs no inversion; only `gcd` inverts, so it
runs over a field (K = 1), where every nonzero leading coefficient is a unit.
Coefficients given as plain ints are lifted by the caller with
`ring.rfrom_int`.

This layer serves the polynomials whose coefficients are not plain ints: the
division L = m / (t - lambda) behind a spectral projector, and the root finder
in F_{p^d}[T], which takes `rem`, `gcd` and `divide_linear` from here: its
power is packed in `fppoly`.  Powers of an extension-ring matrix go through
Z_p (`matrices._restrict`).  `fppoly` keeps the int arithmetic mod N.
"""

from __future__ import annotations


def trim(ring, a: list) -> list:
    """Drop zero top coefficients, in place."""
    zero = ring.zero
    while a and a[-1] == zero:
        a.pop()
    return a


def rem(ring, a: list, g: list) -> list:
    """a mod the monic g."""
    a, d, zero = list(a), len(g) - 1, ring.zero
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c != zero:
            for k in range(d):
                a[top - d + k] = ring.rsub(a[top - d + k], ring.rmul(c, g[k]))
    return trim(ring, a[:d])


def gcd(ring, a: list, b: list) -> list:
    """The monic gcd of a and a nonzero b, over a field."""
    while b:
        inv = ring.rinv(b[-1])
        a, b = [ring.rmul(inv, c) for c in b], a
        b = rem(ring, b, a)
    return a


def divide_linear(ring, f: list, x) -> tuple[list, object]:
    """(q, v) with f = q * (t - x) + v for a nonzero f, by synthetic division.

    The remainder is Horner's value v = f(x), so `divide_linear(ring, f, x)[1]`
    evaluates f at a raw value x.
    """
    acc, q = f[-1], []
    for c in reversed(f[:-1]):
        q.append(acc)
        acc = ring.radd(c, ring.rmul(acc, x))
    return q[::-1], acc
