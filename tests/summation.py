"""Plain-Python references for the summation order of ``bochner_bounds.hilbert.row_sums``.

Each operation is one IEEE double operation on Python floats, so these give
the documented order's bits without numpy.
"""

import math


def pairwise_sum(terms) -> float:
    """The pairwise order of ``row_sums``: its docstring, step by step, added to 0.0."""
    terms = list(terms)

    def run(lo: int, n: int) -> float:
        if n < 8:
            total = 0.0
            for i in range(lo, lo + n):
                total += terms[i]
            return total
        if n <= 128:
            r = terms[lo:lo + 8]
            i = 8
            while i < n - n % 8:
                for j in range(8):
                    r[j] += terms[lo + i + j]
                i += 8
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for k in range(lo + i, lo + n):
                total += terms[k]
            return total
        n2 = n // 2
        n2 -= n2 % 8
        return run(lo, n2) + run(lo + n2, n - n2)

    return 0.0 + run(0, len(terms))


def floats(row) -> list:
    """A row of complex or real numbers as its float view: re, im of each entry in turn."""
    out = []
    for z in row:
        out.extend((z.real, z.imag) if isinstance(z, complex) else (z,))
    return out


def row_norm(row) -> float:
    """The norm of ``row_norms``: the root of the pairwise sum of the float view's squares."""
    return math.sqrt(pairwise_sum(x * x for x in floats(row)))
