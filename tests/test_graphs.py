"""Graph model: construction, minors, loading."""

import json
from fractions import Fraction

import pytest

from feynperiods.graphs import (
    Edge,
    ExternalLeg,
    FeynmanGraph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
)


def triangle():
    return FeynmanGraph(
        vertices=("v1", "v2", "v3"),
        edges=(
            Edge(1, ("v1", "v2"), Fraction(1)),
            Edge(2, ("v2", "v3"), Fraction(2)),
            Edge(3, ("v3", "v1"), Fraction(3)),
        ),
        legs=(
            ExternalLeg("v3", (1, 0, 0, 0)),
            ExternalLeg("v1", (0, 2, 0, 0)),
            ExternalLeg("v2", (-1, -2, 0, 0)),
        ),
    )


def fourgraph():
    # two vertices joined by a path and a doubled edge; edges 3 and 4 parallel
    return FeynmanGraph(
        vertices=("v1", "v2", "v3"),
        edges=(
            Edge(1, ("v1", "v2")),
            Edge(2, ("v2", "v3")),
            Edge(3, ("v3", "v1")),
            Edge(4, ("v3", "v1")),
        ),
    )


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(0, ("u", "v"))
    with pytest.raises(ValueError):
        Edge(1, ("u",))
    with pytest.raises(ValueError):
        Edge(1, ("u", "v"), Fraction(-1))
    assert Edge(1, ("u", "u")).is_loop
    assert not Edge(1, ("u", "v")).is_loop


def test_leg_validation():
    leg = ExternalLeg("v", (1, 2, 0, 0))
    assert leg.momentum_sq() == Fraction(5)
    with pytest.raises(ValueError):
        ExternalLeg("v", (1, 2, 3))


def test_graph_validation():
    with pytest.raises(ValueError):
        FeynmanGraph(vertices=("u", "u"), edges=())
    with pytest.raises(ValueError):
        FeynmanGraph(vertices=("u", "v"), edges=(Edge(1, ("u", "v")), Edge(1, ("u", "v"))))
    with pytest.raises(ValueError):
        FeynmanGraph(vertices=("u",), edges=(Edge(1, ("u", "w")),))
    with pytest.raises(ValueError):
        FeynmanGraph(vertices=("u",), edges=(), legs=(ExternalLeg("w", (0, 0, 0, 0)),))


def test_vertex_names_are_strings_as_edge_ends_and_legs_are():
    g = FeynmanGraph(
        vertices=[1, 2], edges=(Edge(1, (1, 2)),), legs=(ExternalLeg(2, (0, 0, 0, 0)),)
    )
    assert g.vertices == ("1", "2") and g.edges[0].ends == ("1", "2")
    assert g == FeynmanGraph(vertices=("1", "2"), edges=(Edge(1, ("1", "2")),),
                             legs=(ExternalLeg("2", (0, 0, 0, 0)),))
    mixed = FeynmanGraph(vertices=("a", 3), edges=())
    assert mixed.components() == (("3",), ("a",)) and mixed.loop_number() == 0
    with pytest.raises(ValueError, match="duplicate vertex names"):
        FeynmanGraph(vertices=(1, "1"), edges=())
    doc = {"vertices": [1, 2], "edges": [{"id": 1, "ends": [1, 2]}]}
    assert graph_from_dict(doc) == FeynmanGraph(vertices=("1", "2"), edges=(Edge(1, ("1", "2")),))


def test_loop_number_and_components():
    g = triangle()
    assert g.loop_number() == 1
    assert g.is_connected()
    assert g.components() == (("v1", "v2", "v3"),)

    two = FeynmanGraph(
        vertices=("a", "b", "c", "d"),
        edges=(Edge(1, ("a", "b")), Edge(2, ("c", "d")), Edge(3, ("c", "d"))),
    )
    assert not two.is_connected()
    assert two.components() == (("a", "b"), ("c", "d"))
    # h = E - V + number of components
    assert two.loop_number() == 3 - 4 + 2

    loop = FeynmanGraph(vertices=("u",), edges=(Edge(1, ("u", "u")),))
    assert loop.loop_number() == 1


def test_vertex_degree():
    g = triangle()
    assert g.vertex_degree("v1") == 3  # two edges plus one leg
    loop = FeynmanGraph(vertices=("u",), edges=(Edge(1, ("u", "u")),))
    assert loop.vertex_degree("u") == 2  # a self-loop contributes twice


def test_momentum_conservation():
    assert triangle().momentum_conserved()
    bad = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v")),),
        legs=(ExternalLeg("u", (1, 0, 0, 0)),),
    )
    assert not bad.momentum_conserved()
    assert fourgraph().momentum_conserved()  # no legs at all


def test_delete_edge():
    g = triangle().delete_edge(2)
    assert g.edge_ids() == (1, 3)
    assert g.loop_number() == 0
    with pytest.raises(ValueError):
        triangle().delete_edge(9)


def test_contract_keeps_edge_ids():
    g = fourgraph().contract_subgraph((1, 2, 3))
    # contracting a spanning tree plus edge 3 collapses everything to one
    # vertex; edge 4 survives under its own id, now a self-loop
    assert g.edge_ids() == (4,)
    assert g.edge_by_id(4).is_loop
    assert g.loop_number() == 1


def test_contract_parallel_edges_together():
    g = fourgraph().contract_subgraph((3, 4))
    # both parallel edges disappear; the quotient is a 2-gon
    assert g.edge_ids() == (1, 2)
    assert g.loop_number() == 1
    assert len(g.vertices) == 2


def test_contract_rejects_self_loop():
    loop = FeynmanGraph(vertices=("u", "v"), edges=(Edge(1, ("u", "u")), Edge(2, ("u", "v"))))
    with pytest.raises(ValueError, match="self-loop"):
        loop.contract_subgraph((1,))


def test_contract_loop_number_is_additive():
    g = fourgraph()
    for gamma in g.enumerate_subgraphs():
        sub = g.induced_subgraph(gamma)
        if any(g.edge_by_id(e).is_loop for e in gamma):
            continue
        quot = g.contract_subgraph(gamma)
        assert quot.loop_number() == g.loop_number() - sub.loop_number()


def test_legs_follow_contraction():
    g = triangle().contract_subgraph((1,))
    assert len(g.vertices) == 2
    # v1 and v2 merged into the smaller name; all three legs survive
    assert sorted(leg.vertex for leg in g.legs) == ["v1", "v1", "v3"]
    assert g.momentum_conserved()


def test_induced_subgraph():
    g = triangle().induced_subgraph((1, 2))
    assert g.edge_ids() == (1, 2)
    assert g.edge_by_id(1).mass_sq == 1
    # legs at surviving vertices are kept
    assert len(g.legs) == 3


def test_enumerate_subgraphs():
    subs = list(fourgraph().enumerate_subgraphs())
    assert subs[0] == (1,)
    assert all(0 < len(s) < 4 for s in subs)  # nonempty and proper
    assert len(subs) == 2 ** 4 - 2
    assert subs == sorted(subs, key=lambda s: (len(s), s))


def test_round_trip_through_dict():
    g = triangle()
    assert graph_from_dict(graph_to_dict(g)) == g


def test_load_graph_error_paths(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_graph(str(p))

    p.write_bytes(b"\xff\xfe{}")  # JSON is UTF-8, so a UTF-16 mark is an error that names the file
    with pytest.raises(ValueError, match=r"bad\.json: not valid JSON \('utf-8' codec"):
        load_graph(str(p))

    p.write_text(json.dumps({"vertices": ["u", "v"], "edges": [
        {"id": 1, "ends": ["u", "v"], "mass_sq": "-2"}]}))
    with pytest.raises(ValueError, match="bad.json"):
        load_graph(str(p))

    p.write_text(json.dumps({"vertices": ["u", "v"], "edges": [
        {"id": 2, "ends": ["u", "v"]}]}))
    with pytest.raises(ValueError, match="1..N"):
        load_graph(str(p))

    for eid in (True, 1.7, 2.0, "2"):
        p.write_text(json.dumps({"vertices": ["u", "v"], "edges": [
            {"id": 1, "ends": ["u", "v"]}, {"id": eid, "ends": ["u", "v"]}]}))
        with pytest.raises(ValueError, match=r"bad edge entry at edges\[1\]"):
            load_graph(str(p))

    for edge, leg, where in (
        ({"id": 1, "ends": "uv"}, None, r"edges\[0\]: edge 1 needs exactly two endpoints"),
        ({"id": 1, "ends": ["u", "v"], "mass_sq": True}, None, r"edges\[0\]: edge 1 mass_sq"),
        ({"ends": ["u", "v"]}, None, r"edges\[0\]: missing 'id'"),
        ({"id": 1, "ends": ["u", "v"]}, {"vertex": "u", "momentum": "1234"}, r"legs\[0\]"),
        ({"id": 1, "ends": ["u", "v"]}, {"momentum": [0, 0, 0, 0]}, r"legs\[0\]: missing 'vertex'"),
    ):
        p.write_text(json.dumps({"vertices": ["u", "v"], "edges": [edge],
                                 "legs": [leg] if leg else []}))
        with pytest.raises(ValueError, match=where):
            load_graph(str(p))

    with pytest.raises(ValueError, match="edge id must be an integer"):
        Edge(True, ("u", "v"))
    with pytest.raises(ValueError, match="4 components"):
        ExternalLeg("v", "1234")


def test_graph_fields_must_be_lists():
    for field, value in (("vertices", "uv"), ("edges", 3), ("legs", {"vertex": "u"})):
        doc = {"vertices": ["u", "v"], "edges": [{"id": 1, "ends": ["u", "v"]}], "legs": []}
        doc[field] = value
        with pytest.raises(ValueError, match=f"'{field}' must be a list"):
            graph_from_dict(doc)


def test_fixture_files_load():
    for name, edges, loops in (
        ("triangle", 3, 1),
        ("banana", 2, 1),
        ("fourgraph", 4, 2),
        ("k4", 6, 3),
        ("wheel4", 8, 4),
    ):
        g = load_graph(f"fixtures/{name}.json")
        assert g.n_edges == edges
        assert g.loop_number() == loops
        assert g.is_connected()
        assert g.momentum_conserved()
