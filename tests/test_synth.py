import pytest

import oracles
from sigmine.synth import motif_graph, planted_database, random_database


def test_random_database_is_deterministic():
    assert random_database(12, seed=4) == random_database(12, seed=4)
    assert random_database(12, seed=4) != random_database(12, seed=5)


def test_random_database_balances_classes():
    db = random_database(13, seed=0)
    ones = sum(1 for c in db.original_classes if c == 1)
    assert ones == 6
    assert db.size == 13


def test_random_database_respects_bounds():
    db = random_database(30, seed=1, max_vertices=4, num_vertex_labels=2)
    for g in db.graphs:
        assert 1 <= g.vertex_count <= 4
        assert all(lbl < 2 for lbl in g.vertex_labels)


def test_random_database_needs_two_graphs():
    with pytest.raises(ValueError):
        random_database(1, seed=0)


def test_planted_database_embeds_motif_in_carriers():
    db = planted_database(40, seed=7, motif_size=3, carrier_rate=1.0, leak_rate=0.0)
    motif = motif_graph(3, 6)
    hits = [
        1 if oracles.iso_contains(g, motif.vertex_labels, motif.edges) else 0 for g in db.graphs
    ]
    for graph, cls, hit in zip(db.graphs, db.original_classes, hits):
        if cls == 1:
            assert hit, f"carrier {graph.graph_id} lost the motif"


def test_planted_database_enriches_class_one():
    db = planted_database(60, seed=2)
    motif = motif_graph(4, 6)
    pos = sum(
        1
        for g, c in zip(db.graphs, db.original_classes)
        if c == 1 and oracles.iso_contains(g, motif.vertex_labels, motif.edges)
    )
    neg = sum(
        1
        for g, c in zip(db.graphs, db.original_classes)
        if c == 0 and oracles.iso_contains(g, motif.vertex_labels, motif.edges)
    )
    assert pos > neg


def test_planted_database_validation():
    with pytest.raises(ValueError):
        planted_database(10, seed=0, motif_size=9, background_vertices=8)
