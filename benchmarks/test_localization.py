"""Bench EXP-L1 — Future-work extension: anchor-based localization."""

from repro.channel.geometry import Point
from repro.experiments import localization_exp
from repro.localization.anchors import AnchorNetwork


def test_localization(benchmark):
    result = localization_exp.run(trials=16)
    print()
    print(result.render())

    assert result.metric("median_error_m").measured < 0.25
    assert result.metric("valid_fix_rate").measured > 0.8

    network = AnchorNetwork(localization_exp.ANCHORS, seed=5, n_slots=4,
                            n_shapes=1)
    benchmark(network.locate, Point(5.0, 4.0))
