"""Suite machinery: determinism, sharding, and honest failure reporting."""

from itertools import count

import pytest

from subdiv import localh as localh_mod
from subdiv import triangulate as triangulate_mod
from subdiv import verify
from subdiv.triangulate import (
    FTriangle,
    Triangulation,
    barycentric,
    iterated_sd,
    trivial,
)
from subdiv.verify import CaseResult, VerifySuiteReport, run_suite

SMALL = {
    "thm-sd": dict(ns=(2, 3), seeds=(1, 2, 3)),
    "thm-esd": dict(ns=(2, 3), seeds=(1, 2)),
    "thm-uniform": dict(ns=(2, 3), seeds=(1, 2), kinds=("sd", "esd:2")),
    "thm-dnkj": dict(ns=(4,)),
    "cor-sd": dict(ns=(3,)),
    "cor-2sd": dict(ns=(3,)),
    "prop-lnkj": dict(kinds=("sd",)),
    "prop-dnkj": dict(ns=(4,)),
    "prop-dnkj-rec": dict(ns=(4,)),
    "prop-esdr": dict(ns=(3,), rs=(3,)),
    "esd-counterexample": {},
    "foata": dict(ns=(5,)),
}


def snapshot(report: VerifySuiteReport):
    return [(c.params, c.ok, c.detail) for c in report.cases]


class TestReportShape:
    def test_counts_and_flags(self):
        good = CaseResult((("n", 2),), True, "fine")
        bad = CaseResult((("n", 3),), False, "broke")
        report = VerifySuiteReport("s", (good, bad), 0.1)
        assert report.cases_run == 2
        assert report.failures == (bad,)
        assert not report.ok

    def test_label_joins_params(self):
        case = CaseResult((("n", 4), ("seed", 7)), True, "")
        assert case.label == "n=4 seed=7"

    def test_label_of_parameterless_case(self):
        assert CaseResult((), True, "").label == "-"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("no-such-suite")

    @pytest.mark.parametrize("kinds, message", [
        (("esd:0",), "edgewise parameter must be at least 1"),
        (("foo",), "unknown subdivision kind 'foo' (use sd or esd:R)"),
    ])
    def test_bad_kind_rejected_before_any_case(self, monkeypatch, kinds, message):
        def refuse(item):
            raise AssertionError("a case ran before the kinds were checked")

        monkeypatch.setattr(verify, "_run_case", refuse)
        with pytest.raises(ValueError) as err:
            run_suite("thm-uniform", kinds=kinds)
        assert str(err.value) == message

    @pytest.mark.parametrize("options, message", [
        (dict(rs=(0,)), "edgewise parameter must be at least 1"),
        (dict(ns=(3,), rs=(2, -300)), "edgewise parameter must be at least 1"),
        (dict(ns=(-2,)), "n must be nonnegative"),
        (dict(ns=(2, -1), rs=(3,)), "n must be nonnegative"),
    ])
    def test_bad_r_or_n_rejected_before_any_case(self, monkeypatch, options,
                                                 message):
        def refuse(item):
            raise AssertionError("a case ran before r and n were checked")

        monkeypatch.setattr(verify, "_run_case", refuse)
        with pytest.raises(ValueError) as err:
            run_suite("thm-esd", **options)
        assert str(err.value) == message

    @pytest.mark.parametrize("suite, options, message", [
        ("thm-sd", dict(steps=-1), "--steps must be nonnegative"),
        ("thm-esd", dict(steps=-3), "--steps must be nonnegative"),
        ("thm-sd", dict(ns=()), "an option given lists no value"),
        ("foata", dict(ns=[]), "an option given lists no value"),
        ("prop-esdr", dict(rs=()), "an option given lists no value"),
        ("foata", dict(ns=(), seeds=(1,)),
         "suite foata does not read --seeds; it reads --n"),
        ("esd-counterexample", dict(k_max=99),
         "suite esd-counterexample does not read --k; it reads no option"),
    ])
    def test_bad_option_rejected_before_any_case(self, monkeypatch, suite,
                                                 options, message):
        def refuse(item):
            raise AssertionError("a case ran before the options were checked")

        monkeypatch.setattr(verify, "_run_case", refuse)
        with pytest.raises(ValueError) as err:
            run_suite(suite, **options)
        assert str(err.value) == message

    def test_misspelt_option_is_a_type_error(self):
        with pytest.raises(TypeError):
            run_suite("foata", n=(3,))

    @pytest.mark.parametrize("suite, options", [
        ("cor-sd", dict(k_max=0)),
        ("cor-sd", dict(k_max=-3)),
        ("cor-sd", dict(ns=(0,))),
        ("foata", dict(ns=(0,))),
        ("prop-dnkj-rec", dict(ns=(0,))),
    ])
    def test_empty_suite_rejected_before_any_case(self, monkeypatch, suite,
                                                  options):
        def refuse(item):
            raise AssertionError("a case ran in a suite that lists none")

        monkeypatch.setattr(verify, "_run_case", refuse)
        with pytest.raises(ValueError) as err:
            run_suite(suite, **options)
        widen = "--n or --k" if suite == "cor-sd" else "--n"
        assert str(err.value) == f"suite {suite} lists no cases; widen {widen}"

    def test_unread_option_is_refused_before_its_value_is_read(self):
        def unread():
            raise AssertionError("the value of an unread option was read")
            yield

        with pytest.raises(ValueError) as err:
            run_suite("foata", seeds=unread())
        assert str(err.value) == "suite foata does not read --seeds; it reads --n"


class TestDeterminism:
    def test_repeat_runs_agree(self):
        a = run_suite("thm-sd", ns=(3,), seeds=(5, 6, 7))
        b = run_suite("thm-sd", ns=(3,), seeds=(5, 6, 7))
        assert snapshot(a) == snapshot(b)

    def test_cases_sorted_by_key(self):
        report = run_suite("foata", ns=(4,))
        keys = [c.params for c in report.cases]
        assert keys == sorted(keys)


class TestAllSuitesSmall:
    @pytest.mark.parametrize("suite", verify.SUITE_NAMES)
    def test_suite_passes(self, suite):
        report = run_suite(suite, **SMALL[suite])
        assert report.ok, [f.detail for f in report.failures]
        assert report.cases_run > 0
        assert report.suite == suite

    def test_every_suite_has_a_description(self):
        for suite in verify.SUITE_NAMES:
            assert verify.suite_description(suite)


class TestCaseCap:
    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(verify, "CASE_CAP", 10)
        assert run_suite("thm-dnkj", ns=(3,)).cases_run == 10
        with pytest.raises(ValueError) as err:
            run_suite("thm-dnkj", ns=(4,))
        assert str(err.value) == ("suite thm-dnkj lists more than 10 cases; "
                                  "narrow --n")

    @pytest.mark.parametrize("suite, hint", [
        ("thm-sd", "--n or --seeds"),
        ("thm-uniform", "--n, --seeds or --kinds"),
        ("cor-sd", "--n or --k"),
        ("prop-lnkj", "--kinds"),
        ("prop-esdr", "--n or --r"),
    ])
    def test_refusal_names_the_suites_own_options(self, monkeypatch, suite, hint):
        monkeypatch.setattr(verify, "CASE_CAP", 1)
        with pytest.raises(ValueError) as err:
            run_suite(suite)
        assert str(err.value) == (f"suite {suite} lists more than 1 cases; "
                                  f"narrow {hint}")

    def test_cases_are_drawn_lazily(self, monkeypatch):
        def never(params):
            raise AssertionError("no case may run")

        monkeypatch.setitem(
            verify._SUITES, "endless",
            ("endless", {}, lambda o: ({"n": n} for n in count()), never))
        with pytest.raises(ValueError, match="more than 100000 cases"):
            run_suite("endless")


class TestFailureDetection:
    def test_injected_failure_is_reported(self, monkeypatch):
        def runner(params):
            return CaseResult((("n", params["n"]),), params["n"] != 2, "n is 2")

        monkeypatch.setitem(
            verify._SUITES, "stub",
            ("forced failure", {}, lambda o: [{"n": n} for n in (1, 2, 3)], runner))
        report = run_suite("stub")
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].detail == "n is 2"

    def test_structural_flags_wrong_carrier(self):
        T = barycentric(trivial((1, 2, 3)))
        wrong = dict(T.vertex_carrier)
        apex = max(wrong)
        wrong[apex] = (1, 2)
        broken = Triangulation(T.base, T.total, wrong)
        problems: list[str] = []
        verify._structural(broken, 3, problems)
        assert problems

    # thm-sd and thm-esd share one case function; the ids keep naming
    # the suite each row covers.
    @pytest.mark.parametrize("case, params, ell, ref", [
        ("_case_local_theorem", {"n": 3, "seed": 2, "steps": 6},
         "5x+5x^2", "1+4x+x^2"),
        ("_case_local_theorem", {"n": 3, "r": 3, "seed": 2, "steps": 6},
         "7x+7x^2", "1+7x+x^2"),
        ("_case_cor_sd", {"n": 3, "k": 1}, "x+x^2", "1+4x+x^2"),
    ], ids=["_case_thm_sd-params0-5x+5x^2-1+4x+x^2",
            "_case_thm_esd-params1-7x+7x^2-1+7x+x^2",
            "_case_cor_sd-params2-x+x^2-1+4x+x^2"])
    def test_certify_failure_details(self, monkeypatch, case, params, ell, ref):
        run_case = getattr(verify, case)
        monkeypatch.setattr(verify, "is_real_rooted", lambda f: False)
        assert run_case(params).detail == f"not real-rooted: {ell}"
        monkeypatch.setattr(verify, "is_real_rooted", lambda f: True)
        monkeypatch.setattr(verify, "interlaces", lambda f, g: False)
        assert run_case(params).detail == f"{ref} does not interlace {ell}"

    def test_structural_quiet_on_sound_input(self):
        problems: list[str] = []
        ell = verify._structural(iterated_sd((1, 2, 3), 1), 3, problems)
        assert problems == []
        assert ell == (0, 1, 1)


class TestCaseValues:
    def test_second_sd_detail_carries_value(self):
        case = verify._case_cor_2sd({"n": 3})
        assert case.ok
        assert "13x+13x^2" in case.detail

    def test_counterexample_case(self):
        case = verify._case_esd_counterexample({})
        assert case.ok
        assert "not real-rooted" in case.detail

    def test_gamma_steps_follow_seed(self):
        report = run_suite("thm-sd", ns=(2,), seeds=(9,), steps=6)
        assert "steps=2" in report.cases[0].detail

    @pytest.mark.parametrize("kind, size", [
        ("esd:3", 5), ("esd:03", 5), ("esd:13", 6), ("sd", 6)])
    def test_lnkj_size_follows_r_not_spelling(self, kind, size):
        # esd:13 on 6 vertices is refused at FACETS_CAP, a failed case.
        report = run_suite("prop-lnkj", kinds=(kind,))
        assert {dict(case.params)["size"] for case in report.cases} == {size}
        assert report.ok == (kind != "esd:13")


class TestEnumerationCap:
    """verify's own sweeps over S_m stop at perm's desk-scale bound."""

    def test_foata_refuses_past_the_bound(self):
        with pytest.raises(ValueError, match=r"^enumeration over S_11 exceeds "
                                             r"the desk-scale bound 10$"):
            verify._case_foata({"n": 11})

    def test_bad_point_buckets_refuse_past_the_bound(self):
        with pytest.raises(ValueError, match=r"^enumeration over S_11 exceeds "
                                             r"the desk-scale bound 10$"):
            verify._refined_bad_point_counts(10)

    @pytest.mark.parametrize("suite, params", [
        ("foata", (("n", 11),)),
        ("prop-dnkj", (("n", 10), ("part", "c"))),
    ])
    def test_refusal_is_a_failed_case(self, suite, params):
        case = verify._run_case((suite, params))
        assert not case.ok
        assert case.detail == ("raised ValueError: enumeration over S_11 "
                               "exceeds the desk-scale bound 10")


class TestDnkjSuitesStayIndependent:
    """Only prop-dnkj parts a-c read the library's d_nkj; the identities
    of parts d-g and of prop-dnkj-rec are tested on counted tables,
    because the library builds its table by the same recurrences."""

    # A wrong d_{4,1,2} would show at n = 4, and at n = 5 as a row of size n-1.
    CASES = [(suite, (("n", n), ("part", p)))
             for suite, parts in (("prop-dnkj", "defg"), ("prop-dnkj-rec", "ab"))
             for n in (4, 5) for p in parts]

    @staticmethod
    def perturb(monkeypatch):
        real = verify.d_nkj

        def wrong(n, k, j):
            f = real(n, k, j)
            return f + (1,) if (n, k, j) == (4, 1, 2) else f

        monkeypatch.setattr(verify, "d_nkj", wrong)

    def test_part_c_sees_a_wrong_entry(self, monkeypatch):
        assert verify._case_prop_dnkj({"n": 4, "part": "c"}).ok
        self.perturb(monkeypatch)
        case = verify._case_prop_dnkj({"n": 4, "part": "c"})
        assert not case.ok
        assert case.detail == "(k,j)=(1,2): bad-point route differs"

    def test_identity_parts_do_not_read_the_library(self, monkeypatch):
        before = [verify._run_case(item) for item in self.CASES]
        assert all(case.ok for case in before)
        self.perturb(monkeypatch)
        assert [verify._run_case(item) for item in self.CASES] == before


class TestTriangleSuitesStayIndependent:
    """prop-lnkj, prop-dnkj parts a and b and prop-esdr test formulas about
    the face triangle, so they count it on a built subdivision; only
    thm-uniform's expansion side reads the library's ``f_triangle``."""

    FORMULA_CASES = (
        [("prop-lnkj", (("kind", kind), ("part", p), ("size", 4)))
         for kind in ("sd", "esd:2") for p in "abcdef"]
        + [("prop-dnkj", (("n", 4), ("part", p))) for p in "ab"]
        + [("prop-esdr", (("n", 3), ("r", r))) for r in (1, 2, 3)])
    UNIFORM_CASE = ("thm-uniform",
                    (("kind", "sd"), ("n", 3), ("seed", 1), ("steps", 6)))

    @staticmethod
    def perturb(monkeypatch):
        real = verify.f_triangle

        def wrong(kind, n):
            F = real(kind, n)
            top = F.rows[-1]
            return FTriangle(n, F.rows[:-1] + (top[:-1] + (top[-1] + 1,),))

        monkeypatch.setattr(verify, "f_triangle", wrong)
        verify._triangle.cache_clear()

    def test_formula_suites_do_not_read_the_library(self, monkeypatch):
        before = [verify._run_case(item) for item in self.FORMULA_CASES]
        assert all(case.ok for case in before)
        self.perturb(monkeypatch)
        assert [verify._run_case(item) for item in self.FORMULA_CASES] == before

    def test_part_d_sees_a_wrong_p(self, monkeypatch):
        # ell_mkj at k = 0 is p_poly itself, so part d must read p off
        # the built refinement to see a wrong p_{4,1}.
        real = localh_mod.p_poly

        def wrong(F, m, k):
            f = real(F, m, k)
            return f + (1,) if (m, k) == (4, 1) else f

        for module in (localh_mod, verify):
            monkeypatch.setattr(module, "p_poly", wrong)
        for kind, size in (("sd", 6), ("esd:2", 6), ("esd:3", 5)):
            case = verify._case_prop_lnkj(
                {"kind": kind, "part": "d", "size": size})
            assert not case.ok
            assert case.detail == "(m,j)=(4,1) k=0 specialization fails"

    def test_uniform_expansion_reads_the_library(self, monkeypatch):
        assert verify._run_case(self.UNIFORM_CASE).ok
        self.perturb(monkeypatch)
        case = verify._run_case(self.UNIFORM_CASE)
        assert not case.ok
        assert "!= expansion" in case.detail


class TestFacetCap:
    """verify refuses builds past FACETS_CAP facets, as the CLI does,
    before any builder runs."""

    @staticmethod
    def refuse_builders(monkeypatch, draw=True):
        """Make the primitives that ``refine`` and ``iterated_sd`` call
        raise, and verify's ``random_triangulation`` too if ``draw``."""
        def refuse(*args, **kwargs):
            raise AssertionError("a builder ran before the size check")

        monkeypatch.setattr(triangulate_mod, "barycentric", refuse)
        monkeypatch.setattr(triangulate_mod, "edgewise", refuse)
        if draw:
            monkeypatch.setattr(verify, "random_triangulation", refuse)
        verify._triangle.cache_clear()

    @pytest.mark.parametrize("suite, params, what", [
        ("prop-lnkj", (("kind", "esd:9"), ("part", "a"), ("size", 6)), "esd:9"),
        ("prop-dnkj", (("n", 9), ("part", "a")), "sd"),
        ("prop-dnkj", (("n", 9), ("part", "b")), "sd"),
        ("prop-esdr", (("n", 6), ("r", 9)), "esd:9"),
        ("cor-sd", (("k", 2), ("n", 6)), "sd^2"),
        ("cor-sd", (("k", 1), ("n", 9)), "sd^1"),
        ("cor-2sd", (("n", 6),), "sd^2"),
        ("thm-sd", (("n", 9), ("seed", 7), ("steps", 6)), "sd"),
        ("thm-esd", (("n", 6), ("r", 9), ("seed", 7), ("steps", 6)), "esd:9"),
        ("thm-uniform", (("kind", "esd:9"), ("n", 6), ("seed", 7), ("steps", 6)),
         "esd:9"),
    ], ids=["prop-lnkj", "prop-dnkj-a", "prop-dnkj-b", "prop-esdr", "cor-sd-k2",
            "cor-sd-k1", "cor-2sd", "thm-sd", "thm-esd", "thm-uniform"])
    def test_refused_before_building(self, monkeypatch, suite, params, what):
        self.refuse_builders(monkeypatch)
        case = verify._run_case((suite, params))
        assert not case.ok
        assert case.detail == (f"raised ValueError: {what} would build more "
                               f"than 40320 facets")

    def test_refinement_of_gamma_is_counted(self, monkeypatch):
        # seed 1 takes one stellar step: 2 facets, so sd builds 2 * 8!.
        self.refuse_builders(monkeypatch, draw=False)
        case = verify._run_case(
            ("thm-sd", (("n", 8), ("seed", 1), ("steps", 6))))
        assert case.detail == ("raised ValueError: sd would build more than "
                               "40320 facets")

    @pytest.mark.parametrize("suite, params", [
        ("prop-dnkj", (("n", 8), ("part", "a"))),
        ("cor-sd", (("k", 1), ("n", 8))),
        ("thm-sd", (("n", 8), ("seed", 7), ("steps", 6))),
    ], ids=["sd-triangle", "iterated-sd", "gamma"])
    def test_exactly_the_cap_reaches_the_builder(self, monkeypatch, suite, params):
        self.refuse_builders(monkeypatch, draw=False)
        case = verify._run_case((suite, params))
        assert case.detail == ("raised AssertionError: a builder ran before "
                               "the size check")

    def test_below_r_one_is_refused_by_parse_kind(self):
        case = verify._run_case(
            ("thm-esd", (("n", 3), ("r", -300), ("seed", 7), ("steps", 6))))
        assert case.detail == ("raised ValueError: edgewise parameter must "
                               "be at least 1")


class TestSimplexCap:
    """esd:1 keeps one facet per facet, so the facet cap never trips;
    verify refuses a base past TABLES_N_CAP vertices before building."""

    @pytest.mark.parametrize("suite, params", [
        ("prop-esdr", (("n", 9), ("r", 1))),
        ("thm-esd", (("n", 9), ("r", 1), ("seed", 7), ("steps", 6))),
    ], ids=["prop-esdr", "thm-esd"])
    def test_refused_before_building(self, monkeypatch, suite, params):
        TestFacetCap.refuse_builders(monkeypatch)
        case = verify._run_case((suite, params))
        assert not case.ok
        assert case.detail == ("raised ValueError: a simplex on 9 vertices "
                               "is past the limit of 8")

    def test_eight_vertices_reach_the_builder(self, monkeypatch):
        TestFacetCap.refuse_builders(monkeypatch)
        case = verify._run_case(("prop-esdr", (("n", 8), ("r", 1))))
        assert case.detail == ("raised AssertionError: a builder ran before "
                               "the size check")


class TestStepsAndKCaps:
    def test_gamma_past_the_step_cap_fails_alone(self):
        report = run_suite("thm-sd", ns=(2,), seeds=(64, 65), steps=100)
        assert [c.ok for c in report.cases] == [True, False]
        assert report.cases[1].detail == ("raised ValueError: random refinement "
                                          "is limited to 64 steps")

    def test_k_past_the_cap_is_refused_before_any_case(self, monkeypatch):
        def refuse(item):
            raise AssertionError("a case ran before k was checked")

        monkeypatch.setattr(verify, "_run_case", refuse)
        with pytest.raises(ValueError) as err:
            run_suite("cor-sd", ns=(1,), k_max=16)
        assert str(err.value) == ("k is limited to 15: sd^k has at least 2^k "
                                  "facets and the limit is 40320")
