"""Scalar reference for the four-case construction, one case per branch.

These are written case by case over ``classify`` and ``residues`` so that the
broadcasting rule in ``gyrogroups.construct`` is compared against an
independent statement of the same definitions.
"""

from gyrogroups.construct import CyclicParams, ParityClass, classify, residues


def ref_oplus(p: CyclicParams, i: int, j: int) -> int:
    res = residues(p, i, j)
    ci = classify(p, i)
    cj = classify(p, j)
    if ci is ParityClass.EVEN_HIGH and cj is ParityClass.ODD_HIGH:
        return res.s
    if ci is ParityClass.EVEN_HIGH and cj is ParityClass.ODD_LOW:
        return res.s + p.m
    if ci.is_high == cj.is_high:
        return res.t
    return res.t + p.m


def ref_half_shift(p: CyclicParams, i: int) -> int:
    cls = classify(p, i)
    r = (i + p.half) % p.m
    if cls is ParityClass.ODD_LOW:
        return r
    if cls is ParityClass.ODD_HIGH:
        return r + p.m
    return i


def ref_gyration_selector(p: CyclicParams, a: int, b: int) -> bool:
    ca = classify(p, a)
    cb = classify(p, b)
    if ca is ParityClass.ODD_LOW:
        return cb.is_high
    if ca is ParityClass.ODD_HIGH:
        return cb is ParityClass.ODD_LOW or cb is ParityClass.EVEN_HIGH
    if ca is ParityClass.EVEN_HIGH:
        return cb.is_odd
    return False


def ref_inverse_element(p: CyclicParams, x: int) -> int:
    classify(p, x)  # range check
    if x < p.m:
        return (-x) % p.m
    return (-(x - p.m)) % p.m + p.m
