"""Substitution into a ``poly.MultiPoly``: a test oracle for ``geometry.mirror_x0``.

The library negates x0 by flipping the sign of the terms of odd degree in
x0.  ``substitute`` is the general map that specialises: it replaces named
variables by polynomials of the same ring and expands term by term.
"""


def substitute(poly, mapping):
    """poly with each variable named in mapping replaced by its image."""
    ring = poly.ring
    images = [ring.coerce(mapping[name]) if name in mapping else ring.gen(name)
              for name in ring.variables]
    out = ring.zero()
    for exp, c in poly.terms.items():
        term = ring.constant(c)
        for image, e in zip(images, exp):
            if e:
                term = term * image ** e
        out = out + term
    return out
