"""The benchmark's three workloads: inputs made from a seed, the
operations of one pass, and the check of every operation's output.

Each workload function returns ``(ops, sizes)``.  An operation is a call into a
public ``subdiv`` function plus a check of what it returned; ``sizes``
describes the generated inputs for the environment record.  These
functions run before the timed region, so input generation counts as set-up.

Operations look their functions up on the ``subdiv`` modules at call
time, so the wrappers ``tracing`` installs see the benchmark's own
calls.  Expected outputs are pinned in ``expected.json`` as digests keyed by
operation label.  A label names its inputs completely (suite, n and
triangulation seed; pair seed and index; CLI arguments), so a digest
applies to every benchmark seed that produces that operation, and
seed-independent operations are checked on every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# The verify suites' defaults: n in {2,3,4}, step cap 6, r in
# {n, n+1, n+2}, refinement kinds sd, esd:2, esd:3.
GAMMA_NS = (2, 3, 4)
STEPS_CAP = 6
GAMMA_KINDS = ("sd", "esd:2", "esd:3")

# A suite derives a case's step count as ``seed % (STEPS_CAP + 1)``, so
# one triangulation seed per residue covers every step count once.  The
# cost of a case grows with the facet count of its random base, which
# varies widely between seeds of one step count; each (n, steps) draw is
# therefore taken among seeds whose base has the most common facet
# count of that stratum (measured over 200 seeds), which keeps the work
# of a pass nearly the same for every benchmark seed.
FACET_TARGET = {
    2: (1, 2, 3, 4, 5, 6, 7),
    3: (1, 2, 4, 5, 6, 9, 11),
    4: (1, 2, 4, 6, 10, 14, 18),
}
MAX_DRAWS = 2000

DNKJ_N_MAX = 6
PAIRS_PER_PASS = 96
CLI_PAIRS_PER_PASS = 24

RANDOM_BASES = 4
RANDOM_STEPS = 6

SD2_LOCAL_H = "541x+5381x^2+5381x^3+541x^4"
COUNTEREXAMPLE_LOCAL_H = "7x+42x^2+63x^3+42x^4+7x^5"


@dataclass
class Op:
    """One timed call and the check of its result."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, dict[str, str]]:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def pinned(expected: dict[str, str], label: str, text: str) -> bool:
    """True unless ``label`` has a pinned digest that ``text`` misses."""
    want = expected.get(label)
    return want is None or want == digest(text)


# ---------------------------------------------------------------- gamma-suites

def matched_seed(rng: random.Random, n: int, steps: int) -> int:
    """A triangulation seed with ``steps`` steps and the target facet count."""
    from subdiv.triangulate import random_triangulation

    for _ in range(MAX_DRAWS):
        t = steps + (STEPS_CAP + 1) * rng.randrange(1, 10 ** 6)
        G = random_triangulation(range(1, n + 1), steps, seed=t)
        if len(G.total.facets) == FACET_TARGET[n][steps]:
            return t
    raise RuntimeError(
        f"no triangulation seed with {FACET_TARGET[n][steps]} facets for "
        f"n={n}, steps={steps}; the draw protocol changed")


def gamma_triangulation_seeds(seed: int) -> dict[tuple[int, int], int]:
    """One triangulation seed per (n, steps), drawn from ``Random(seed)``."""
    rng = random.Random(seed)
    return {(n, steps): matched_seed(rng, n, steps)
            for n in GAMMA_NS for steps in range(STEPS_CAP + 1)}


def _suite_variants(suite: str, n: int) -> list[tuple[str, dict]]:
    if suite == "thm-esd":
        return [(f" r={r}", {"rs": (r,)}) for r in (n, n + 1, n + 2)]
    if suite == "thm-uniform":
        return [(f" kind={k}", {"kinds": (k,)}) for k in GAMMA_KINDS]
    return [("", {})]


def gamma_ops(seed: int, workdir: Path, expected: dict[str, str]):
    from subdiv import verify

    tri = gamma_triangulation_seeds(seed)
    ops = []
    for suite in ("thm-sd", "thm-esd", "thm-uniform"):
        for n in GAMMA_NS:
            for steps in range(STEPS_CAP + 1):
                t = tri[(n, steps)]
                for tail, extra in _suite_variants(suite, n):
                    label = f"{suite} n={n} seed={t}{tail}"

                    def call(suite=suite, n=n, t=t, extra=extra):
                        return verify.run_suite(suite, ns=(n,), seeds=(t,),
                                                steps=STEPS_CAP, **extra)

                    def check(report, label=label):
                        return (report.cases_run == 1 and report.ok
                                and pinned(expected, label, report.cases[0].detail))

                    ops.append(Op(label, call, check))
    sizes = {"triangulation_seeds": {f"n={n} steps={s}": t
                                     for (n, s), t in sorted(tri.items())},
             "base_facets": {f"n={n}": list(FACET_TARGET[n]) for n in GAMMA_NS}}
    return ops, sizes


# --------------------------------------------------------------- certify-pairs

def _poly_mul(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _from_roots(roots) -> tuple[int, ...]:
    """Integer polynomial prod (q x - p) over the roots p/q."""
    f: tuple[int, ...] = (1,)
    for r in roots:
        f = _poly_mul(f, (-r.numerator, r.denominator))
    return f


def poly_text(f: tuple[int, ...]) -> str:
    """``c0+c1x+c2x^2`` with explicit coefficients, as the CLI parses it."""
    terms = []
    for i, c in enumerate(f):
        if c:
            power = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            terms.append(f"{c:+d}{power}")
    return "".join(terms).lstrip("+") or "0"


ROOT_GRID = sorted({Fraction(p, q) for q in (1, 2, 3, 4) for p in range(-24, 25)})
PAIR_KINDS = ("interlacing", "broken", "complex")


def draw_pair(rng: random.Random, kind: str, d: int):
    """Polynomials ``f``, ``g`` with rational roots and a known answer.

    ``g`` has ``d`` distinct roots.  ``f`` has one root in each gap
    ``[beta_(i+1), beta_i]`` of the roots of ``g`` (and one below
    ``beta_d`` when the degrees are equal), sometimes on the upper end,
    so the pair interlaces.  ``broken`` moves the largest root of ``f``
    above every root of ``g``; ``complex`` trades two roots of ``f``
    for a factor ``x^2 + 1``.  Both make the answer false.
    """
    betas = sorted(rng.sample(ROOT_GRID, d), reverse=True)
    e = rng.choice((d - 1, d))
    alphas = []
    for i in range(e):
        hi = betas[i]
        lo = betas[i + 1] if i + 1 < d else hi - 2
        if i + 1 < d and rng.random() < 0.25:
            alphas.append(hi)
        else:
            alphas.append(lo + (hi - lo) * rng.choice(
                (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))))
    if kind == "broken":
        alphas[0] = betas[0] + 1
    f = _from_roots(alphas)
    if kind == "complex":
        f = _poly_mul(_from_roots(alphas[2:]), (1, 0, 1))
    return f, _from_roots(betas), kind == "interlacing"




def certify_pairs(seed: int):
    """The pass's drawn pairs as ``(index, f, g, answer)``.

    Kinds and degrees 4..9 of ``g`` take turns, so every seed gets
    nearly the same mix, in an order shuffled by the seed; the library
    calls and the CLI calls each get their own mix.
    """
    rng = random.Random(seed)
    plan = []
    for count in (PAIRS_PER_PASS, CLI_PAIRS_PER_PASS):
        mix = [(PAIR_KINDS[i % 3], 4 + (i // 3) % 6) for i in range(count)]
        rng.shuffle(mix)
        plan += mix
    return [(i, *draw_pair(rng, kind, d)) for i, (kind, d) in enumerate(plan)]


@dataclass
class CliResult:
    code: int
    text: str
    bytes_io: int


def run_cli(argv: list[str], out_path: Path | None = None) -> CliResult:
    """``cli.main(argv)`` with captured stdout, optionally saved to a file.

    ``bytes_io`` adds the size of the ``--input`` file to the bytes
    printed.
    """
    from subdiv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if out_path is not None:
        out_path.write_text(text, encoding="utf-8")
    size = len(text.encode())
    if "--input" in argv:
        size += os.path.getsize(argv[argv.index("--input") + 1])
    return CliResult(code, text, size)


def certify_ops(seed: int, workdir: Path, expected: dict[str, str], pairs=None):
    from subdiv import perm, realroot

    ops = []
    for n in range(DNKJ_N_MAX + 1):
        for k in range(n + 1):
            def row(n=n, k=k):
                seq = [perm.d_nkj(n, k, j) for j in range(n + 1)]
                a_n = perm.eulerian(n)
                return (realroot.is_interlacing_sequence(seq),
                        all(realroot.interlaces(a_n, seq[j])
                            for j in range(n - k + 1)))

            ops.append(Op(f"thm-dnkj row n={n} k={k}", row,
                          lambda got: got == (True, True)))
    if pairs is None:
        pairs = certify_pairs(seed)
    for i, f, g, answer in pairs:
        if i < PAIRS_PER_PASS:
            ops.append(Op(f"interlaces s{seed}#{i}",
                          lambda f=f, g=g: realroot.interlaces(f, g),
                          lambda got, answer=answer: got is answer))
        else:
            label = f"cli interlace --explain s{seed}#{i}"
            argv = ["interlace", "--explain", "--", poly_text(f), poly_text(g)]

            def check(got, answer=answer, label=label):
                lines = got.text.splitlines()
                return (got.code == (0 if answer else 1)
                        and lines[:1] == ["true" if answer else "false"]
                        and len(lines) > 1 and lines[1].startswith("reason: ")
                        and pinned(expected, label, got.text))

            ops.append(Op(label, lambda argv=argv: run_cli(argv), check))
    degrees = [[len(f) - 1, len(g) - 1] for _, f, g, _ in pairs]
    sizes = {"dnkj_rows": (DNKJ_N_MAX + 1) * (DNKJ_N_MAX + 2) // 2,
             "pairs": len(pairs), "cli_pairs": CLI_PAIRS_PER_PASS,
             "pair_degrees": degrees,
             "answers_true": sum(1 for *_, a in pairs if a)}
    return ops, sizes


# ------------------------------------------------------------------- cli-files

def _simplex_file(path: Path, n: int) -> None:
    verts = list(range(1, n + 1))
    path.write_text(json.dumps({"vertices": verts, "facets": [verts]}),
                    encoding="utf-8")


def _parse_c_row0(text: str) -> list[int]:
    """The k = 0 row of ``localh --emit-c`` output as coefficients."""
    body = json.loads(text)
    row = [0] * (body["n"] + 1)
    for k, j, v in body["c"]:
        if k == 0:
            row[j] = v
    while row and row[-1] == 0:
        row.pop()
    return row


def _coefficients(text: str) -> list[int]:
    """Coefficients of the CLI's compact polynomial text (``0`` is [])."""
    coeffs: dict[int, int] = {}
    for term in text.strip().replace("-", "+-").split("+"):
        if not term or term == "0":
            continue
        head, x, power = term.partition("x")
        c = int(head) if head not in ("", "-") else (-1 if head == "-" else 1)
        exp = 0 if not x else int(power[1:]) if power else 1
        coeffs[exp] = coeffs.get(exp, 0) + c
    top = max(coeffs, default=-1)
    return [coeffs.get(i, 0) for i in range(top + 1)]


def _symmetric_nonnegative(text: str, n: int) -> bool:
    c = _coefficients(text)
    c += [0] * (n + 1 - len(c))
    return len(c) == n + 1 and c == c[::-1] and all(v >= 0 for v in c)


def cli_ops(seed: int, workdir: Path, expected: dict[str, str]):
    s4, s5, s6 = workdir / "s4.json", workdir / "s5.json", workdir / "s6.json"
    _simplex_file(s4, 4)
    _simplex_file(s5, 5)
    _simplex_file(s6, 6)
    ops = []

    def add(label, argv, out=None, check=None):
        def call():
            return run_cli([a if isinstance(a, str) else str(a) for a in argv], out)

        def verdict(got):
            return (got.code == 0 and pinned(expected, label, got.text)
                    and (check is None or check(got.text)))

        ops.append(Op(label, call, verdict))

    def w(name):
        return workdir / name

    add("subdivide --kind sd s5", ["subdivide", "--input", s5, "--kind", "sd"], w("sd1.json"))
    add("subdivide --kind sd sd(s5)", ["subdivide", "--input", w("sd1.json"), "--kind", "sd"],
        w("sd2.json"))
    add("localh sd2(s5)", ["localh", "--input", w("sd2.json")],
        check=lambda t: t == SD2_LOCAL_H + "\n")
    # --emit-c and ftriangle --input read the first sd: on the second they
    # would each repeat the 3.5 s load above, leaving too few passes per
    # run for a steady median.
    add("localh --emit-c sd(s5)", ["localh", "--input", w("sd1.json"), "--emit-c"])
    add("ftriangle --input sd(s5)", ["ftriangle", "--input", w("sd1.json")])
    add("subdivide --kind stellar s6",
        ["subdivide", "--input", s6, "--kind", "stellar:1,2,3,4,5,6"], w("st6.json"))
    add("subdivide --kind esd:2 stellar(s6)",
        ["subdivide", "--input", w("st6.json"), "--kind", "esd:2"], w("st6e.json"))
    add("localh esd2(stellar(s6))", ["localh", "--input", w("st6e.json")],
        check=lambda t: t == COUNTEREXAMPLE_LOCAL_H + "\n")
    add("ftriangle --kind sd --n 7", ["ftriangle", "--kind", "sd", "--n", "7"])
    add("tables --which 3 --n 7", ["tables", "--which", "3", "--n", "7"])

    # Seed-dependent bases: a random stellar refinement of the 3-simplex
    # (facet count matched as in gamma-suites), refined by sd and esd:2,
    # each local h computed twice, once from the refined file and once
    # from the base's coefficient matrix.
    rng = random.Random(seed)
    tri_seeds = [matched_seed(rng, 4, RANDOM_STEPS) for _ in range(RANDOM_BASES)]
    for t in tri_seeds:
        tag = f"random:{RANDOM_STEPS} seed={t}"
        base = w(f"g{t}.json")
        seen: dict[str, str] = {}

        def keep(key, check=None, seen=seen):
            def inner(text):
                seen[key] = text
                return check is None or check(text)
            return inner

        add(f"subdivide {tag}", ["subdivide", "--input", s4, "--kind",
                                 f"random:{RANDOM_STEPS}", "--seed", t], base,
            check=lambda text: len(json.loads(text)["total"]["vertices"])
            == 4 + RANDOM_STEPS)
        add(f"localh {tag}", ["localh", "--input", base],
            check=keep("base", lambda text: _symmetric_nonnegative(text, 4)))
        add(f"localh --emit-c {tag}", ["localh", "--input", base, "--emit-c"],
            check=lambda text, seen=seen: _parse_c_row0(text)
            == _coefficients(seen.get("base", "")))
        for kind in ("sd", "esd:2"):
            refined = w(f"g{t}-{kind.replace(':', '')}.json")
            add(f"subdivide --kind {kind} {tag}",
                ["subdivide", "--input", base, "--kind", kind], refined)
            add(f"localh {kind}({tag})", ["localh", "--input", refined],
                check=keep(kind, lambda text: _symmetric_nonnegative(text, 4)))
            add(f"localh --via-uniform {kind} {tag}",
                ["localh", "--input", base, "--via-uniform", kind],
                check=lambda text, kind=kind, seen=seen: text == seen.get(kind))
    sizes = {"random_bases": tri_seeds}
    return ops, sizes


def file_sizes(workdir: Path) -> dict[str, dict[str, int]]:
    """Facets, vertices and bytes of every triangulation file of a pass."""
    out = {}
    for path in sorted(workdir.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        total = obj.get("total", obj)
        out[path.name] = {"facets": len(total["facets"]),
                          "vertices": len(total["vertices"]),
                          "bytes": os.path.getsize(path)}
    return out


OPS_FOR = {
    "gamma-suites": gamma_ops,
    "certify-pairs": certify_ops,
    "cli-files": cli_ops,
}
WORKLOADS = tuple(OPS_FOR)
