"""Shared hypothesis strategies and oracles for the test suite."""

from hypothesis import strategies as st

from subdiv.poly import normalize


def eval_at(f, q):
    """Exact Horner evaluation: over ``Fraction`` the slow oracle that
    the library's integer sign kernel is checked against."""
    acc = 0
    for c in reversed(f):
        acc = acc * q + c
    return acc


def polys(min_coeff=-9, max_coeff=9, max_len=8):
    """Normalized integer polynomials as coefficient tuples."""
    return st.lists(
        st.integers(min_value=min_coeff, max_value=max_coeff), max_size=max_len
    ).map(lambda cs: normalize(cs))


def nonneg_polys(max_coeff=9, max_len=8):
    return polys(min_coeff=0, max_coeff=max_coeff, max_len=max_len)


@st.composite
def refined_stellar(draw):
    """A random stellar subdivision of a simplex on 1 <= n <= 5 vertices,
    refined by sd, esd:2 or esd:3 over the same base."""
    from subdiv.triangulate import barycentric, edgewise, random_triangulation

    n = draw(st.sampled_from(range(1, 6)))
    steps = draw(st.integers(0, 2 if n == 5 else 4))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("sd", "esd:2", "esd:3")))
    G = random_triangulation(tuple(range(1, n + 1)), steps, seed=seed)
    return barycentric(G) if kind == "sd" else edgewise(G, int(kind[4:]))


@st.composite
def perturbed(draw, triangulations):
    """Triangulations as drawn, or with one vertex given a wrong carrier
    or none, so that fast and slow routes must also fail alike."""
    from subdiv.triangulate import Triangulation

    T = draw(triangulations)
    mode = draw(st.sampled_from(("keep", "keep", "recarry", "drop")))
    verts = T.total.vertices
    if mode == "keep" or not verts:
        return T
    v = draw(st.sampled_from(verts))
    carriers = dict(T.vertex_carrier)
    if mode == "drop":
        del carriers[v]
    else:
        carriers[v] = draw(st.sampled_from([f for f in T.base.faces() if f]))
    return Triangulation(T.base, T.total, carriers)


def outcome(fn, *args):
    """Value of ``fn(*args)``, or the type, text and witness of its error."""
    try:
        return ("value", fn(*args))
    except ValueError as err:
        return (type(err).__name__, str(err), getattr(err, "witness", None))
