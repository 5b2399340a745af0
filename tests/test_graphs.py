import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mnhd.designs import build_design, fano_design
from mnhd.errors import DesignError, FileFormatError, GraphInputError
from mnhd.graphs import (adjacency, build_graph, cayley_s3, crown, cycle,
                         design_742_incidence, facts, fano_incidence,
                         incidence_graph, laplacian, read_edge_list, wheel6,
                         write_edge_list)

# 6x6 reference Laplacian of the S3 Cayley graph and its square
CAYLEY_S3_L = np.array([
    [3, -1, -1, 0, 0, -1],
    [-1, 3, 0, -1, -1, 0],
    [-1, 0, 3, -1, 0, -1],
    [0, -1, -1, 3, -1, 0],
    [0, -1, 0, -1, 3, -1],
    [-1, 0, -1, 0, -1, 3],
])
CAYLEY_S3_L2 = np.array([
    [12, -6, -5, 2, 2, -5],
    [-6, 12, 2, -5, -5, 2],
    [-5, 2, 12, -6, 2, -5],
    [2, -5, -6, 12, -5, 2],
    [2, -5, 2, -5, 12, -6],
    [-5, 2, -5, 2, -6, 12],
])


def test_build_graph_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == frozenset({(0, 1)})
    assert np.array_equal(laplacian(g), [[1, -1], [-1, 1]])


@pytest.mark.parametrize("n,edges,msg", [
    (1, [], "two vertices"),
    (3, [(0, 0)], "self-loop"),
    (3, [(0, 1), (1, 0)], "duplicate"),
    (3, [(0, 3)], "out of range"),
])
def test_build_graph_rejects(n, edges, msg):
    with pytest.raises(GraphInputError, match=msg):
        build_graph(n, edges)


def test_cayley_s3_matches_reference_matrices():
    g = cayley_s3()
    assert g.m == 9
    L = laplacian(g)
    assert np.array_equal(L, CAYLEY_S3_L)
    assert np.array_equal(L @ L, CAYLEY_S3_L2)


def test_facts_cycle6():
    f = facts(cycle(6))
    assert f.connected and f.regular_degree == 2
    assert set(f.bipartition) == {frozenset({0, 2, 4}), frozenset({1, 3, 5})}


def test_facts_cayley_s3():
    f = facts(cayley_s3())
    assert f.connected and f.regular_degree == 3
    assert f.bipartition is None  # contains triangles


def test_facts_wheel6():
    g = wheel6()
    f = facts(g)
    assert f.connected and f.regular_degree is None
    assert g.degree(5) == 5 and all(g.degree(i) == 3 for i in range(5))


def test_facts_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert not facts(g).connected


def test_design_742_incidence_shape():
    g = design_742_incidence()
    f = facts(g)
    assert g.n == 14 and f.regular_degree == 4 and f.bipartition is not None
    assert set(f.bipartition) == {frozenset(range(7)), frozenset(range(7, 14))}


def test_fano_incidence_is_heawood_like():
    f = facts(fano_incidence())
    assert f.regular_degree == 3 and f.connected and f.bipartition is not None


def test_crown_structure():
    g = crown(5)
    f = facts(g)
    assert g.n == 10 and f.regular_degree == 4 and f.bipartition is not None
    assert (0, 5) not in g.edges  # the removed matching
    w = np.linalg.eigvalsh(laplacian(g).astype(float))
    assert np.allclose(sorted(set(np.round(w, 9))), [0, 3, 5, 8])


def test_builder_preconditions():
    with pytest.raises(GraphInputError):
        cycle(2)
    with pytest.raises(GraphInputError):
        crown(2)


def test_wheel6_matrix_entries():
    g = wheel6()
    L = laplacian(g)
    L2 = L @ L
    assert [L[i, i] for i in range(6)] == [3, 3, 3, 3, 3, 5]
    assert [L2[i, i] for i in range(6)] == [12, 12, 12, 12, 12, 30]
    assert L2[0, 1] == -5  # adjacent rim pair
    assert L2[0, 5] == -6  # rim-hub pair
    assert L2[0, 2] == 2   # non-adjacent rim pair


def test_incidence_graph_rejects_degenerate_design():
    with pytest.raises(DesignError):
        incidence_graph(build_design(4, [(0, 1, 2, 3)]))


ALL_BUILDERS = [cycle(5), cycle(6), crown(3), crown(5), cayley_s3(), wheel6(),
                fano_incidence(), design_742_incidence()]


@pytest.mark.parametrize("g", ALL_BUILDERS, ids=lambda g: f"n{g.n}m{g.m}")
def test_laplacian_invariants(g):
    L = laplacian(g)
    assert np.array_equal(L, L.T)
    assert (L.sum(axis=1) == 0).all()
    off = L[~np.eye(g.n, dtype=bool)]
    assert set(np.unique(off)) <= {0, -1}


@pytest.mark.parametrize("g", ALL_BUILDERS, ids=lambda g: f"n{g.n}m{g.m}")
def test_regular_laplacian_squared_formula(g):
    f = facts(g)
    if f.regular_degree is None:
        pytest.skip("not regular")
    d = f.regular_degree
    A = adjacency(g)
    L = laplacian(g)
    L2 = L @ L
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                assert L2[u, u] == d * d + d
            else:
                walks = sum(A[u, w] * A[w, v] for w in range(g.n)
                            if w not in (u, v))
                assert L2[u, v] == -2 * d * A[u, v] + walks


def test_incidence_bipartition_is_points_blocks():
    design = fano_design()
    g = incidence_graph(design)
    parts = facts(g).bipartition
    assert set(parts) == {frozenset(range(7)), frozenset(range(7, 14))}
    for bi, blk in enumerate(design.blocks):
        for x in blk:
            assert (min(x, 7 + bi), max(x, 7 + bi)) in g.edges


# -- edge-list files ---------------------------------------------------------


def test_edge_list_round_trip():
    g = design_742_incidence()
    buf = io.StringIO()
    write_edge_list(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "14 28"
    assert read_edge_list(io.StringIO(text)) == g


def test_edge_list_comments_and_errors():
    g = read_edge_list(io.StringIO("# a triangle\n3 3\n0 1\n1 2\n0 2\n"))
    assert g == build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(FileFormatError):
        read_edge_list(io.StringIO(""))
    with pytest.raises(FileFormatError):
        read_edge_list(io.StringIO("3 2\n0 1\n"))  # promised 2, got 1
    with pytest.raises(FileFormatError):
        read_edge_list(io.StringIO("3 one\n"))
    # '#' starts a comment anywhere on a line, the header's included
    g = read_edge_list(io.StringIO("3 3 # header\n0 1  # first edge\n1 2\n"
                                   "0 2#\n  # indented\n"))
    assert g == build_graph(3, [(0, 1), (1, 2), (0, 2)])
    # a line of the wrong length is named as such, not as a bad token
    with pytest.raises(FileFormatError) as err:
        read_edge_list(io.StringIO("3 1\n0 1 2\n"))
    assert str(err.value) == "expected 'u v' line, got '0 1 2'"
    with pytest.raises(FileFormatError, match="non-integer token"):
        read_edge_list(io.StringIO("3 1\n0 x\n"))
    with pytest.raises(FileFormatError, match="not a UTF-8 text file"):
        read_edge_list(io.TextIOWrapper(io.BytesIO(b"3 1\n0 1\xff\n"),
                                        encoding="utf-8"))


# -- randomized structure checks ---------------------------------------------


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    return build_graph(n, edges)


@given(random_graphs())
def test_random_graph_invariants(g):
    L = laplacian(g)
    assert (L.sum(axis=1) == 0).all()
    f = facts(g)
    if f.regular_degree is not None:
        assert all(g.degree(u) == f.regular_degree for u in range(g.n))
    if f.bipartition is not None:
        left, right = f.bipartition
        assert left | right == set(range(g.n)) and not (left & right)
        for u, v in g.edges:
            assert (u in left) != (v in left)
