"""Generate the coefficient table of lfunctions' series kernel g(u).

    PYTHONPATH=src python tests/make_g_table.py

prints the G_PIECES literal that src/tracecensus/lfunctions.py holds, for
the piece layout that module declares.  Every Cohen term is
chi(k) * g(k / sqrt(D0)) with

    g(u) = erfc(sqrt(pi) u) / u + E1(pi u^2).

Piece i covers [i/16, (i+1)/16) up to G_END = 4.5 and holds the
coefficients in s = 16u - i of the degree-9 polynomial that interpolates,
at the ten Chebyshev nodes of the piece,

    g(u) - 1/u + log(u^2)   below G_SPLIT = 1/2, which is entire in u^2
                            (from the power series of E1 and erf; see
                            series_part),
    exp(pi u^2) g(u)        from G_SPLIT on, which is smooth and tends to
                            2 / (pi u^2).

Everything is computed with mpmath at DPS digits and rounded to the nearest
double once, so the table is reproducible bit for bit.
"""

import mpmath

from tracecensus.lfunctions import G_END, G_SPLIT, PIECES_PER_UNIT

DPS = 40
DEGREE = 9


def g_exact(u):
    """g(u) at the working precision, for an mpf or float u > 0."""
    u = mpmath.mpf(u)
    return mpmath.erfc(mpmath.sqrt(mpmath.pi) * u) / u + mpmath.e1(mpmath.pi * u * u)


def series_part(u):
    """g(u) - 1/u + log(u^2) from its power series in v = u^2,

        -gamma - log(pi) - sum_{n>=1} (-pi v)^n / (n n!) - 2 sum_{n>=0} (-pi v)^n / (n! (2n+1)),

    the series of E1(pi v) + log(pi v) and of (erfc(sqrt(pi) u) - 1) / u.
    """
    y = -mpmath.pi * mpmath.mpf(u) ** 2
    total = -mpmath.euler - mpmath.log(mpmath.pi) - 2
    term, n = mpmath.mpf(1), 1
    while True:
        term *= y / n  # y^n / n!
        step = -term / n - 2 * term / (2 * n + 1)
        total += step
        if abs(step) < mpmath.mpf(10) ** -DPS:
            return total
        n += 1


def piece_coefficients(i):
    with mpmath.workdps(DPS):
        nodes = [(1 + mpmath.cos((2 * j + 1) * mpmath.pi / (2 * DEGREE + 2))) / 2 for j in range(DEGREE + 1)]
        values = []
        for s in nodes:
            u = (i + s) / PIECES_PER_UNIT
            if u < G_SPLIT:
                values.append(series_part(u))
            else:
                values.append(mpmath.exp(mpmath.pi * u * u) * g_exact(u))
        vander = mpmath.matrix([[s**j for j in range(DEGREE + 1)] for s in nodes])
        coeffs = mpmath.lu_solve(vander, mpmath.matrix(values))
        return tuple(float(c) for c in coeffs)


def g_table():
    """G_PIECES: one tuple of DEGREE + 1 floats per piece, lowest degree first."""
    return tuple(piece_coefficients(i) for i in range(round(G_END * PIECES_PER_UNIT)))


def render(pieces) -> str:
    lines = ["G_PIECES = ("]
    for row in pieces:
        cells = [repr(c) for c in row]
        lines.append("    (%s," % ", ".join(cells[:4]))
        lines.append("     %s," % ", ".join(cells[4:7]))
        lines.append("     %s)," % ", ".join(cells[7:]))
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(g_table()))
