"""Closed-form combinatorics that depend only on bidegrees, never on forms.

chi(d, a) is the Euler characteristic of the degree-a strand of the Koszul
complex on three forms of bidegree d; equivalently the x^a1 y^a2 coefficient
of (1 - x^d1 y^d2)^3 / ((1-x)^2 (1-y)^2).  nd(d, a) is the clamped expected
corank (dom - 3 cod)_+; the signed version is kept separately because the
two disagree exactly where the clamp bites.
"""

from __future__ import annotations

from .bipoly import strand_dim


def pos_part(c):
    return max(c, 0)


def neg_part(c):
    return max(-c, 0)


def dom(d, a):
    d1, d2 = d
    a1, a2 = a
    return (pos_part(a1 - 3 * d1 + 1) * pos_part(3 * d2 - a2 - 1)
            + pos_part(3 * d1 - a1 - 1) * pos_part(a2 - 3 * d2 + 1))


def cod(d, a):
    d1, d2 = d
    a1, a2 = a
    return (pos_part(a1 - 2 * d1 + 1) * pos_part(2 * d2 - a2 - 1)
            + pos_part(2 * d1 - a1 - 1) * pos_part(a2 - 2 * d2 + 1))


def nd_signed(d, a):
    return dom(d, a) - 3 * cod(d, a)


def nd(d, a):
    if d[0] < 1 or d[1] < 1:
        raise ValueError("d must be >= (1,1)")
    return pos_part(nd_signed(d, a))


def chi(d, a):
    """Inclusion-exclusion strand Euler characteristic (the ground truth)."""
    d1, d2 = d
    a1, a2 = a
    return (strand_dim((a1, a2))
            - 3 * strand_dim((a1 - d1, a2 - d2))
            + 3 * strand_dim((a1 - 2 * d1, a2 - 2 * d2))
            - strand_dim((a1 - 3 * d1, a2 - 3 * d2)))


def nd_grid(d, box):
    """nd values as a grid indexed [a1][a2] over [0,box1]x[0,box2]."""
    return [[nd(d, (a1, a2)) for a2 in range(box[1] + 1)]
            for a1 in range(box[0] + 1)]


def render_grid(grid):
    """Fixed-width text of an integer grid indexed [a1][a2].

    Rows are printed with a2 decreasing so the bottom row is a2 = 0 and the
    left column is a1 = 0.  Column widths adapt to the widest entry of each
    column; entries are left-justified and space-separated.
    """
    ncols = len(grid)
    nrows = len(grid[0])
    widths = [max(len(str(v)) for v in col) for col in grid]
    lines = []
    for a2 in range(nrows - 1, -1, -1):
        cells = [str(grid[a1][a2]).ljust(widths[a1]) for a1 in range(ncols)]
        lines.append("      | " + " ".join(cells) + " |")
    return "\n".join(lines) + "\n"
