"""Acceptance gate: eleven end-to-end criteria, one test each, and the
report digests of the suites no criterion runs.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line
per criterion; a failing criterion shows up as the corresponding failed
test.  Stated runtime caps are asserted, not aspirational.
"""

import hashlib
import json
import pathlib
import time

import pytest

from subdiv import verify as verify_mod
from subdiv.cli import main
from subdiv.localh import local_h, second_sd_local_h
from subdiv.poly import format_poly
from subdiv.realroot import is_real_rooted
from subdiv.triangulate import (
    barycentric,
    compose,
    edgewise,
    identity,
    iterated_sd,
    random_triangulation,
    stellar,
    trivial,
)
from subdiv.verify import run_suite

pytestmark = pytest.mark.acceptance

GOLDEN = pathlib.Path(__file__).parent / "golden"

# sha256 of each gate report's ``label\tok\tdetail`` lines, so that every
# case's verdict and detail stay byte-identical, not only the pass count.
REPORT_DIGESTS = {
    "thm-uniform": "1b45e8c6ef9471206639ab385ae35be8f52f41ff59ac293f75967f02b2f5a5a8",
    "thm-sd": "84a85a9ba3e7082946df968b7239197771fd16e4781566bcf2c9b2aed9b36070",
    "thm-esd": "52d771977b077a601ba0b5ba4dec81a739ae4e73b43a102d9c08c20a7ad7499f",
    "esd-counterexample": "3f9fa5cc71e900219e739ce93da16885459e68e7200627bdeb5cc241e14558bd",
    "prop-dnkj": "2f5e39b78f2dfd2653f033e28d5d37738645df89313d66e2ee394dddbb47a691",
    "prop-dnkj-rec": "051cf3d2408e5ae56cdede29a83d9ed6d8766aee19626bd987887dac75906d91",
    "thm-dnkj": "e14d3c3fba19053816ed5ebdd325217239cd4f1c19d12a6f647e1cefa5199936",
    "prop-esdr": "98c63dcd95a602bbc907e8ddb95491f3436a3cc32bd8cb955901e4d67495f061",
    "foata": "7e3c9a2afc69255cf811dcea0b26f17c07f6f6ac6730bbcc599d50c2c49aede3",
    "cor-sd": "2f586a79b934e857fb7f7ec3fe51932a60f548365ad436016ddf1a7dc7a18815",
    "cor-2sd": "96b4229de218f6c47bcd650e1334e5d84dbbabeaf78514ca543108336aea535e",
    "prop-lnkj": "6c845e1eecaf06119d93aa1c8c51c58a55416b0d277e8b550c46cece43d2e3aa",
}


def assert_digest(report) -> None:
    text = "".join(f"{c.label}\t{c.ok}\t{c.detail}\n" for c in report.cases)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[report.suite]


def announce(num: int, seconds: float, what: str) -> None:
    print(f"criterion {num:2d} PASS ({seconds:6.2f}s): {what}")


def test_criterion_01_reference_tables(capsys):
    start = time.perf_counter()
    for which in (1, 2, 3):
        code = main(["tables", "--which", str(which), "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / f"table{which}.txt").read_text()
    _, out, _ = (None, *capsys.readouterr())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        announce(1, elapsed, "tables 1-3 at n=4 are byte-identical to goldens")


def test_criterion_02_halved_stellar_simplex(capsys):
    start = time.perf_counter()
    T = edgewise(stellar(trivial(range(1, 7)), tuple(range(1, 7))), 2)
    ell = local_h(T)
    assert ell == (0, 7, 42, 63, 42, 7)
    assert not is_real_rooted(ell)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        announce(2, elapsed,
                 "esd_2 of the stellar 6-simplex gives 7x+42x^2+63x^3+42x^4"
                 "+7x^5, not real-rooted")


def test_criterion_03_uniform_expansion_identity(capsys):
    start = time.perf_counter()
    report = run_suite("thm-uniform")
    assert report.ok, [f.label for f in report.failures]
    assert report.cases_run == 180
    assert_digest(report)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    with capsys.disabled():
        announce(3, elapsed,
                 "direct local h equals the weighted expansion on 20 seeds x "
                 "n in 2..4 x {sd, esd:2, esd:3}, zero tolerance")


def test_criterion_04_barycentric_interlacing(capsys):
    start = time.perf_counter()
    report = run_suite("thm-sd")
    assert report.ok, [f.label for f in report.failures]
    assert report.cases_run == 60
    assert_digest(report)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        announce(4, elapsed,
                 "local h of sd(Gamma) certified real-rooted and interlaced "
                 "by the Eulerian polynomial on the whole seed family")


def test_criterion_05_edgewise_interlacing_with_boundary(capsys):
    start = time.perf_counter()
    report = run_suite("thm-esd")
    assert report.ok, [f.label for f in report.failures]
    assert report.cases_run == 180
    assert_digest(report)
    boundary = run_suite("esd-counterexample")
    assert boundary.ok
    assert_digest(boundary)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        announce(5, elapsed,
                 "local h of esd_r(Gamma) certified for r in {n, n+1, n+2}; "
                 "r < n boundary fails real-rootedness as it must")


def test_criterion_06_second_subdivision_crosscheck(capsys):
    start = time.perf_counter()
    ns = [1, 2, 3, 4]  # n = 5 is test_criterion_06_second_subdivision_n5, slow
    for n in ns:
        assert second_sd_local_h(n) == local_h(iterated_sd(range(1, n + 1), 2))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        announce(6, elapsed,
                 f"second barycentric local h equals its permutation "
                 f"expansion exactly for n in {ns}")


@pytest.mark.slow
def test_criterion_06_second_subdivision_n5():
    assert second_sd_local_h(5) == local_h(iterated_sd(range(1, 6), 2))


def test_criterion_07_d_polynomial_identities(capsys):
    start = time.perf_counter()
    refined = run_suite("prop-dnkj", ns=(7,))
    rows = run_suite("prop-dnkj-rec", ns=(7,))
    assert refined.ok, [f.label for f in refined.failures]
    assert rows.ok, [f.label for f in rows.failures]
    assert_digest(refined)
    assert_digest(rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        announce(7, elapsed,
                 "all refined d-polynomial identities and row recurrences "
                 "hold exactly for n <= 7")


def test_criterion_08_interlacing_sequences(capsys):
    start = time.perf_counter()
    report = run_suite("thm-dnkj", ns=(6,))
    assert report.ok, [f.label for f in report.failures]
    assert_digest(report)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        announce(8, elapsed,
                 "(d_nkj)_j certified interlacing via Cauchy-index sign "
                 "counts for n <= 6, all k")


def test_criterion_09_dilation_formulas(capsys):
    start = time.perf_counter()
    report = run_suite("prop-esdr", ns=(5,), rs=(6,))
    assert report.ok, [f.label for f in report.failures]
    assert_digest(report)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        announce(9, elapsed,
                 "edgewise section formulas match their defining sums for "
                 "n <= 5, r <= 6, zero tolerance")


def test_criterion_10_cycle_transform(capsys):
    start = time.perf_counter()
    report = run_suite("foata", ns=(8,))
    assert report.ok, [f.label for f in report.failures]
    assert_digest(report)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        announce(10, elapsed,
                 "all three transform properties hold for every w in S_n, "
                 "n <= 8")


def test_criterion_11_structural_invariants(capsys, monkeypatch):
    start = time.perf_counter()

    calls = []
    original = verify_mod._structural

    def counting(T, n, problems):
        calls.append(n)
        return original(T, n, problems)

    monkeypatch.setattr(verify_mod, "_structural", counting)
    report = run_suite("thm-sd", ns=(2, 3), seeds=(1, 2, 3))
    assert report.ok
    assert len(calls) == report.cases_run
    monkeypatch.undo()

    sd3 = barycentric(trivial((1, 2, 3)))
    zoo = [
        (barycentric(random_triangulation((1, 2, 3, 4), 5, seed=3)), 4),
        (edgewise(trivial((1, 2, 3, 4)), 3), 4),
        (stellar(sd3, sd3.total.facets[0][:2]), 3),
        (compose(barycentric(identity(trivial((1, 2, 3)).total)),
                 trivial((1, 2, 3))), 3),
        (iterated_sd((1, 2), 3), 2),
    ]
    for T, n in zoo:
        problems: list[str] = []
        verify_mod._structural(T, n, problems)
        assert problems == []
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        announce(11, elapsed,
                 "symmetry, nonnegativity, h round trip, and carrier rules "
                 "enforced on every triangulation the suites construct")


@pytest.mark.parametrize("suite, cases", [
    ("cor-sd", 8), ("cor-2sd", 5), ("prop-lnkj", 18),
])
def test_remaining_suites_at_default_scale(suite, cases):
    report = run_suite(suite)
    assert report.ok, [f.label for f in report.failures]
    assert report.cases_run == cases
    assert_digest(report)
