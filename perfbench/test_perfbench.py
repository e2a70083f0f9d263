"""Self-test of the benchmark's output checks: a wrong expected answer
must count as a failed operation, never drop the operation.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import one_pass  # noqa: E402
import workloads  # noqa: E402


def subset(make_ops, keep, **kwargs):
    def make_subset(seed, workdir, expected):
        ops, sizes = make_ops(seed, workdir, expected, **kwargs)
        return [op for op in ops if keep(op.label)], sizes
    return make_subset


def tally(result):
    verdicts = [verdict for _, _, verdict in result["ops"]]
    return len(verdicts), sum(1 for v in verdicts if v != "ok")


def test_wrong_pinned_digest_fails_its_case(tmp_path):
    expected = dict(workloads.load_expected()["gamma-suites"])
    build = subset(workloads.gamma_ops, lambda label: " n=2 " in label)
    good = one_pass.run("gamma-suites", 1, False, tmp_path / "a", expected, make_ops=build)
    attempted, failed = tally(good)
    assert attempted == 49 and failed == 0
    label = good["ops"][0][0]
    assert label in expected
    expected[label] = "0" * 16
    bad = one_pass.run("gamma-suites", 1, False, tmp_path / "b", expected, make_ops=build)
    assert tally(bad) == (attempted, 1)
    assert bad["ops"][0][2] == "wrong output"


def test_wrong_known_answer_fails_its_pair(tmp_path):
    pairs = workloads.certify_pairs(1)
    flipped = [(i, f, g, not answer if i == 0 else answer) for i, f, g, answer in pairs]
    keep = lambda label: not label.startswith("thm-dnkj")  # noqa: E731
    expected = workloads.load_expected()["certify-pairs"]
    good = one_pass.run("certify-pairs", 1, False, tmp_path / "a", expected,
                        make_ops=subset(workloads.certify_ops, keep, pairs=pairs))
    attempted, failed = tally(good)
    assert attempted == len(pairs) and failed == 0
    bad = one_pass.run("certify-pairs", 1, False, tmp_path / "b", expected,
                       make_ops=subset(workloads.certify_ops, keep, pairs=flipped))
    assert tally(bad) == (attempted, 1)


def test_raising_operation_is_counted(tmp_path):
    def build(seed, workdir, expected):
        def boom():
            raise ValueError("no answer")
        return [workloads.Op("raises", boom, lambda out: True)], {}

    result = one_pass.run("certify-pairs", 1, False, tmp_path, {}, make_ops=build)
    assert tally(result) == (1, 1)
    assert result["ops"][0][2].startswith("raised ValueError")


def test_drawn_pairs_repeat_per_seed_and_cover_every_kind():
    assert workloads.certify_pairs(5) == workloads.certify_pairs(5)
    answers = [answer for *_, answer in workloads.certify_pairs(5)]
    assert 0 < sum(answers) < len(answers)
