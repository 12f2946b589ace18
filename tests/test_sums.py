"""Every float reduction adds left to right from 0.0, so outputs keep their
bits on every Python the package accepts.

Python 3.12's built-in sum compensates its rounding (Neumaier summation), so
its last bit can differ from a plain loop's. Each input here is one where the
two orders differ, and each result must equal the plain loop's. On 3.11 the
built-in sum is the plain loop, so these tests guard the Python 3.12 run.
"""
import math

from citebench import benchgen
from citebench.metrics import average_precision, metric_means, ndcg
from citebench.util import sum_in_order

# 1.0 left to right; 1.0000000000000002 compensated
SPLIT = [1.0, 1e-16, 1e-16]


def _in_order(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def _compensated(values) -> float:
    """Neumaier summation, the way Python 3.12's built-in sum adds floats."""
    total = correction = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            correction += (total - step) + value
        else:
            correction += (value - step) + total
        total = step
    return total + correction


def test_sum_in_order_adds_left_to_right():
    assert _compensated(SPLIT) != _in_order(SPLIT) == 1.0
    assert sum_in_order(SPLIT) == sum_in_order(iter(SPLIT)) == 1.0
    assert sum_in_order([]) == 0.0


def test_metric_means_sum_in_order():
    rows = [{"map": v} for v in SPLIT]
    assert metric_means(rows, ["map"]) == {"map": _in_order(SPLIT) / 3}
    assert _compensated(SPLIT) / 3 != _in_order(SPLIT) / 3


def test_average_precision_sums_in_order():
    # relevant ids at ranks 1, 2, 5 and 7
    ranked = ["r1", "r2", "x3", "x4", "r5", "x6", "r7"]
    terms = [1 / 1, 2 / 2, 3 / 5, 4 / 7]
    assert _compensated(terms) != _in_order(terms)
    assert average_precision(ranked, {"r1", "r2", "r5", "r7"}) == _in_order(terms) / 4


def test_ndcg_sums_dcg_and_idcg_in_order():
    # four of six relevant ids found, at ranks 1, 2, 3 and 6
    ranked = ["r1", "r2", "r3", "x4", "x5", "r6", "x7"]
    relevant = {"r1", "r2", "r3", "r6", "lost1", "lost2"}
    dcg = [1.0 / math.log2(r + 1) for r in (1, 2, 3, 6)]
    idcg = [1.0 / math.log2(r + 1) for r in range(1, 7)]
    for terms in (dcg, idcg):
        assert _compensated(terms) != _in_order(terms)
    assert ndcg(ranked, relevant) == _in_order(dcg) / _in_order(idcg)


def test_select_diverse_models_sums_in_order(monkeypatch):
    # per-query Jaccards by model pair: (a, b)'s mean equals (a, c)'s only
    # when summed in order; then b and c tie on score and the name picks b,
    # while compensated sums would score b higher and pick c
    values = {("a", "b"): SPLIT, ("a", "c"): [1.0, 0.0, 0.0], ("b", "c"): [0.0, 0.0, 0.0]}
    assert _compensated(SPLIT) / 3 > _in_order([1.0, 0.0, 0.0]) / 3 == _in_order(SPLIT) / 3

    def jaccard(sa, sb):
        (x,), (y,) = sa, sb  # model name then query number, e.g. "a0"
        return values[(x[0], y[0])][int(x[1:])]

    monkeypatch.setattr(benchgen, "jaccard", jaccard)
    per_model = {m: {f"q{i}": [f"{m}{i}"] for i in range(3)} for m in "abc"}
    assert benchgen.select_diverse_models(per_model, 1) == ["b"]
