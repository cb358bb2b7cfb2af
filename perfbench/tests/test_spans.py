"""Self-time and coverage arithmetic on synthetic span trees."""

import pytest

import layers
from spans import Span, SpanTree, spans_from_chrome, union_seconds


def span(name, sid, parent, start, end, pid=1, **args):
    return Span(name, pid, sid, parent, start, end, args)


def test_union_merges_overlaps_and_keeps_gaps():
    assert union_seconds([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_seconds([]) == 0.0


def test_self_time_subtracts_children_once():
    # root 0..10; children 1..4 and 3..6 overlap (covered 1..6 = 5);
    # a grandchild inside a child is not the root's child.
    tree = SpanTree([
        span("root", 1, None, 0.0, 10.0),
        span("a", 2, 1, 1.0, 4.0),
        span("b", 3, 1, 3.0, 6.0),
        span("c", 4, 2, 1.5, 2.0),
    ])
    root, a = tree.spans[0], tree.spans[1]
    assert tree.self_seconds(root) == pytest.approx(5.0)
    assert tree.self_seconds(a) == pytest.approx(2.5)


def test_child_running_past_its_parent_is_clipped():
    tree = SpanTree([span("p", 1, None, 0.0, 2.0), span("c", 2, 1, 1.0, 5.0)])
    assert tree.self_seconds(tree.spans[0]) == pytest.approx(1.0)


def test_outermost_skips_nested_calls_of_the_same_name():
    tree = SpanTree([
        span("scorer.score_table", 1, None, 0, 10),
        span("criteria.evaluate", 2, 1, 1, 4),
        span("criteria.evaluate", 3, 2, 2, 3),
        span("criteria.evaluate", 4, None, 20, 21),
    ])
    assert [s.sid for s in tree.outermost("criteria.evaluate")] == [2, 4]
    assert [s.sid for s in tree.outermost(
        "criteria.evaluate", ("scorer.score_table",))] == [2]


def test_span_ids_are_per_process():
    tree = SpanTree([
        span("root", 1, None, 0, 4, pid=1),
        span("root", 1, None, 0, 4, pid=2),
        span("kid", 2, 1, 0, 1, pid=2),
    ])
    assert tree.self_seconds(tree.spans[0]) == pytest.approx(4.0)
    assert tree.self_seconds(tree.spans[1]) == pytest.approx(3.0)


def test_unaccounted_share_counts_uncovered_window():
    tree = SpanTree([
        span("core.fit", 1, None, 1.0, 4.0),
        span("stage", 2, 1, 1.0, 2.0),
        span("scorer.score_table", 3, None, 6.0, 8.0),
    ])
    # window 0..10: roots cover 3 + 2 = 5 seconds.
    assert layers.unaccounted_share(tree, 1, 0.0, 10.0) == pytest.approx(0.5)


def test_chrome_round_trip_matches_the_program_tracer():
    from repro.obs import trace

    tracer = trace.Tracer()
    previous = trace.set_tracer(tracer)
    try:
        with trace.span("outer"):
            with trace.span("inner", rows=3):
                pass
    finally:
        trace.set_tracer(previous)
    spans = spans_from_chrome(tracer.chrome_trace(), pid=1)
    tree = SpanTree(spans)
    inner = tree.named("inner")[0]
    assert tree.parent(inner).name == "outer"
    assert inner.args == {"rows": 3}


def test_layer_metrics_scope_scoring_spans_to_score_table():
    tree = SpanTree([
        # fit-time featurization: must not count as scoring
        span("core.fit", 1, None, 0, 10),
        span("scorer.base_matrix", 2, 1, 1, 3, nbytes=100),
        # scoring: base matrix with an embedding child
        span("scorer.score_table", 3, None, 20, 30, cells=40),
        span("featurize", 4, 3, 20, 26),
        span("scorer.base_matrix", 5, 4, 20, 25, nbytes=64),
        span("text.embed", 6, 5, 21, 23),
        span("predict", 7, 3, 26, 30),
        span("ml.mlp_predict", 8, 7, 27, 28, rows=10),
    ])
    got = layers.from_spans(tree)
    assert got["scorer.base_bytes"] == 64
    assert got["scorer.statistical_s"] == pytest.approx(3.0)
    assert got["text.embed_s"] == pytest.approx(2.0)
    assert got["scorer.predict_self_s"] == pytest.approx(3.0)
    assert got["ml.mlp_rows_per_cell"] == pytest.approx(0.25)
