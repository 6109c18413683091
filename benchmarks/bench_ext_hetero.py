"""Extension bench: heterogeneous fleets (Hetero-ViTAL's setting).

Shapes: the big+edge pair improves on a single big board but not as much
as two big boards; capability-normalized placement puts more work (busy
slot-time) on the big board.
"""

from __future__ import annotations

from repro.experiments import ext_hetero

from conftest import emit


def test_ext_heterogeneous_fleets(benchmark, settings):
    result = benchmark.pedantic(
        lambda: ext_hetero.run(settings=settings),
        rounds=1, iterations=1,
    )
    single = result.response("1x big")
    pair = result.response("2x big")
    hetero = result.response("big + edge")
    assert pair <= hetero * 1.05
    assert hetero <= single * 1.05
    # Work is busy slot-time: the big board takes fewer but longer apps.
    big_busy, edge_busy = result.run_busy_ms["big + edge"]
    assert big_busy > edge_busy
    emit(ext_hetero.format_result(result))
