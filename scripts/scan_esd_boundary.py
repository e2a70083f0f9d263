#!/usr/bin/env python3
"""Scan where real-rootedness of edgewise local h-polynomials breaks.

The interlacing theorem needs the dilation parameter r to be at least
the vertex count n.  This sweep takes the one-point starred simplex,
refines it by esd_r across a grid of (n, r), and marks which local
h-polynomials are real-rooted.  The r >= n region must be solid; the
interesting part is how ragged the r < n side is.

Each local h-polynomial is the uniform expansion of the starred
simplex's coefficient matrix against the face-count triangle of esd_r,
the identity that ``verify thm-uniform`` checks, so no refined complex
is built and cells past the library's facet cap cost nothing extra.

Usage: scan_esd_boundary.py [--n-max 7] [--r-max 8]
"""

from __future__ import annotations

import argparse

from subdiv.localh import c_coefficients, local_h_via_uniform
from subdiv.poly import format_poly
from subdiv.realroot import is_real_rooted
from subdiv.triangulate import f_triangle, stellar, trivial


def starred_simplex(n: int):
    verts = tuple(range(1, n + 1))
    return stellar(trivial(verts), verts)


def starred_local_h(n: int, r: int):
    """Local h of esd_r of the starred simplex on n vertices."""
    return local_h_via_uniform(f_triangle(f"esd:{r}", n),
                               c_coefficients(starred_simplex(n)))


def run() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--r-max", type=int, default=8)
    args = parser.parse_args()

    print("legend: R real-rooted, x not real-rooted, 0 zero polynomial,")
    print("        * marks the r = n diagonal; rows n, columns r")
    print()
    print("     " + "".join(f"r={r:<4d}" for r in range(1, args.r_max + 1)))
    witnesses = []
    for n in range(2, args.n_max + 1):
        row = []
        for r in range(1, args.r_max + 1):
            ell = starred_local_h(n, r)
            if not ell:
                mark = "0"
            elif is_real_rooted(ell):
                mark = "R"
            else:
                mark = "x"
                witnesses.append((n, r, ell))
            row.append(mark + ("*" if r == n else " "))
        print(f"n={n}  " + "    ".join(row))

    if witnesses:
        print()
        print("non-real-rooted witnesses:")
        for n, r, ell in witnesses:
            print(f"  n={n} r={r}: {format_poly(ell)}")


if __name__ == "__main__":
    run()
