"""Graph container, strong regularity decision, subconstituents, file format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srgta.graphcore import (
    Graph,
    LoopRejected,
    NotSrgError,
    ParseError,
    SrgParams,
    VertexOutOfRange,
    clique_extension,
    common_neighbour_counts,
    complement,
    induced_subgraph,
    is_primitive,
    is_strongly_regular,
    read_graph,
    require_srg,
    subconstituents,
    write_graph,
)


def triangles(count):
    """Disjoint union of `count` triangles."""
    edges = []
    for t in range(count):
        base = 3 * t
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    return Graph.from_edges(3 * count, edges)


def reachable(g, start):
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in g.neighbours(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.n_edges == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbours(0) == [1, 3]
    assert g.degrees().tolist() == [2, 2, 2, 2]
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_from_dense_roundtrip():
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.int8)
    g = Graph.from_dense(a)
    assert np.array_equal(g.adjacency_dense(), a)
    assert g == Graph.from_edges(3, [(0, 1), (0, 2)])
    assert hash(g) == hash(Graph.from_edges(3, [(0, 2), (0, 1)]))


def test_loops_rejected_in_constructor():
    with pytest.raises(LoopRejected):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        Graph.from_edges(3, [(0, 3)])


def test_petersen_parameters(petersen):
    assert is_strongly_regular(petersen) == SrgParams(10, 3, 0, 1)
    assert require_srg(petersen).astuple() == (10, 3, 0, 1)


def test_pentagon_parameters(pentagon):
    assert is_strongly_regular(pentagon) == SrgParams(5, 2, 0, 1)


def test_irregular_graph_rejected():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    result = is_strongly_regular(path)
    assert not result
    assert result.reason == "not regular"
    with pytest.raises(NotSrgError):
        require_srg(path)


def test_complete_and_empty_rejected():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert is_strongly_regular(k4).reason == "complete graph"
    empty = Graph.from_edges(4, [])
    assert is_strongly_regular(empty).reason == "empty graph"
    for n in (0, 1):
        assert is_strongly_regular(Graph.from_edges(n, [])).reason == "fewer than 2 vertices"


def test_disjoint_cliques_accepted_with_mu_zero():
    # imprimitive but strongly regular; mu = 0 is not grounds for rejection
    assert is_strongly_regular(triangles(2)) == SrgParams(6, 2, 1, 0)
    assert is_strongly_regular(triangles(3)) == SrgParams(9, 2, 1, 0)


def test_nonconstant_counts_have_witness_pairs():
    # a 4-cycle with a chord: regular would fail first, so pad to regular;
    # the prism (two triangles joined by a matching) is 3-regular, not srg
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                 (0, 3), (1, 4), (2, 5)])
    result = is_strongly_regular(prism)
    assert not result
    u, v = result.pair
    assert 0 <= u < 6 and 0 <= v < 6


def test_complement_parameter_transform(petersen, k33):
    assert require_srg(complement(petersen)).astuple() == (10, 6, 3, 4)
    assert require_srg(complement(k33)) == SrgParams(6, 2, 1, 0)
    comp = require_srg(petersen).complement()
    assert comp == SrgParams(10, 6, 3, 4)


def test_complement_of_multipartite_is_cliques(k33):
    assert complement(k33) == triangles(2)


def test_common_neighbour_counts(petersen, paley13):
    assert common_neighbour_counts(petersen) == ({0}, {1})
    assert common_neighbour_counts(paley13) == ({2}, {3})


def test_primitivity_predicate():
    assert is_primitive(SrgParams(10, 3, 0, 1))
    assert not is_primitive(SrgParams(9, 2, 1, 0))   # disconnected
    assert not is_primitive(SrgParams(6, 3, 0, 3))   # complete multipartite


def test_petersen_subconstituents(petersen):
    g1, g2, part = subconstituents(petersen, 0)
    assert g1.n == 3 and g1.n_edges == 0
    # the second subconstituent is a 6-cycle
    assert g2.n == 6 and g2.n_edges == 6
    assert set(g2.degrees().tolist()) == {2}
    assert reachable(g2, 0) == set(range(6))
    assert part.omega == 0
    assert part.delta0 == (0,)
    assert len(part.delta1) == 3 and len(part.delta2) == 6
    assert sorted(part.delta0 + part.delta1 + part.delta2) == list(range(10))


def test_pentagon_subconstituents(pentagon):
    g1, g2, _ = subconstituents(pentagon, 0)
    assert (g1.n, g1.n_edges) == (2, 0)
    assert (g2.n, g2.n_edges) == (2, 1)


def test_grid_first_subconstituent_is_two_edges(grid3):
    g1, _, _ = subconstituents(grid3, 0)
    assert g1.n == 4 and g1.n_edges == 2
    assert g1.degrees().tolist() == [1, 1, 1, 1]


def test_subconstituents_vertex_range(petersen):
    with pytest.raises(VertexOutOfRange):
        subconstituents(petersen, 10)


def test_induced_subgraph_keeps_selected_edges(petersen):
    sub = induced_subgraph(petersen, petersen.neighbours(0) + [0])
    assert sub.n == 4
    assert sub.n_edges == 3  # a star: 0's neighbours are pairwise non-adjacent


def test_clique_extension_identity(petersen):
    assert clique_extension(petersen, 1) == petersen
    with pytest.raises(ValueError):
        clique_extension(petersen, 0)


def test_clique_extension_degree_and_size(petersen):
    ext = clique_extension(petersen, 3)
    assert ext.n == 30
    assert set(ext.degrees().tolist()) == {3 * (3 + 1) - 1}


def test_clique_extension_of_petersen_not_srg(petersen):
    result = is_strongly_regular(clique_extension(petersen, 2))
    assert not result
    assert result.reason == "adjacent common-neighbour count not constant"


def test_clique_extension_of_cliques_stays_srg():
    assert is_strongly_regular(clique_extension(triangles(2), 2)) == SrgParams(12, 5, 4, 0)


@given(st.integers(2, 8), st.data())
def test_complement_involution(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph.from_edges(n, picked)
    assert complement(complement(g)) == g
    assert g.n_edges + complement(g).n_edges == n * (n - 1) // 2


# -- file format ---------------------------------------------------------------

def test_write_then_read_is_identity(tmp_path, petersen):
    path = tmp_path / "petersen.srg"
    write_graph(petersen, path)
    assert read_graph(path) == petersen
    # canonical output: a second write of the re-read graph is byte-identical
    again = tmp_path / "again.srg"
    write_graph(read_graph(path), again)
    assert path.read_text() == again.read_text()


def test_read_tolerates_comments_and_blanks(tmp_path):
    path = tmp_path / "toy.srg"
    path.write_text("# a triangle\n\n3 3\n0 1   # first edge\n0 2\n\n1 2\n")
    g = read_graph(path)
    assert g.n == 3 and g.n_edges == 3


def test_read_duplicate_edges_dedup(tmp_path):
    path = tmp_path / "dup.srg"
    path.write_text("3 2\n0 1\n0 1\n")
    assert read_graph(path).n_edges == 1


@pytest.mark.parametrize(
    "text,error,line",
    [
        ("3 1\n0 0\n", LoopRejected, 2),
        ("3 1\n0 5\n", VertexOutOfRange, 2),
        ("3 1\n1 0\n", ParseError, 2),          # edges must be written u < v
        ("3 1\nx y\n", ParseError, 2),
        ("3\n", ParseError, 1),                 # header needs two fields
        ("3 2\n0 1\n", ParseError, 2),          # announced 2 edges, found 1
        ("# nothing\n", ParseError, 1),
        ("3 1\n0 1 2\n", ParseError, 2),
    ],
)
def test_read_rejects_malformed(tmp_path, text, error, line):
    path = tmp_path / "bad.srg"
    path.write_text(text)
    with pytest.raises(error) as err:
        read_graph(path)
    assert err.value.line == line


def test_read_rejects_non_utf8(tmp_path):
    path = tmp_path / "utf16.srg"
    path.write_bytes(b"\xff\xfe3 1\n0 1\n")
    with pytest.raises(ParseError, match="not UTF-8 text"):
        read_graph(path)
