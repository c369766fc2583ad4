import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psf
from psf import Complex, buildscript, g2, g3, is_isomorphic, join
from psf.build import (
    boundary_simplex,
    connected_sum,
    facet_subdivision,
    fold_deltas,
    one_vertex_suspension,
    stacked_sphere,
)
from psf.buildscript import dump_script, load_script, replay
from psf.corpus import (
    edge_folded_instance,
    handle_instance,
    linear_chain,
    singular_base_3d,
    suspension_instance,
    vertex_folded_instance,
)
from psf.decompose import (
    DecompositionTree,
    MODE_EDGE,
    MODE_ONE,
    MODE_SUSPENSION,
    MODES,
    DecompositionError,
    LinkNotSimplexBoundary,
    MalformedTree,
    MinimalComplex,
    ModeMismatch,
    NotOptimal,
    NotSplit,
    TreeNode,
    decompose,
    edge_unfold,
    inverse_facet_subdivision,
    rebuild,
    recognize_one_vertex_suspension,
    split_connected_sum,
    vertex_unfold,
    _FIELDS,
    _Engine,
    _ball_boundary,
    _off_star,
    _ridge_certificate,
    _stacked_ball,
)
from psf.complexes import FaceNotPresent, UnknownVertex, VertexOverlap
from psf.fileio import parse_complex
from psf.separation import (
    PreconditionUnmet,
    SeparationError,
    classify_missing_facet,
    two_point_anchors,
)
from psf.verify import is_normal_pseudomanifold, singular_vertices
from reference import (link_anchors_reference, outcome, reference_stacked_steps,
                       reference_tree_node, reference_unfold, star_scans)

# the package exports the function decompose under the module's name
decompose_module = importlib.import_module("psf.decompose")
verify_module = importlib.import_module("psf.verify")


def test_inverse_facet_subdivision_round_trip():
    k = stacked_sphere(4, 2, 7)
    facet = k.facets[3]
    sub = facet_subdivision(k, facet)
    u = max(sub.vertices)
    back = inverse_facet_subdivision(sub, u)
    assert back == k
    assert g2(sub) == g2(k) and g3(sub) == g3(k)


def test_inverse_facet_subdivision_guards():
    b5 = boundary_simplex(5)
    with pytest.raises(MinimalComplex):
        inverse_facet_subdivision(b5, 0)
    k = stacked_sphere(4, 3, 9)
    # a generic vertex of a stacked sphere is not a subdivision point
    bad = [v for v in sorted(k.vertices) if len(k.neighbors(v)) > 5]
    with pytest.raises(LinkNotSimplexBoundary):
        inverse_facet_subdivision(k, bad[0])


def test_split_connected_sum_restores_summands():
    a = boundary_simplex(5)
    b = boundary_simplex(5).relabel({i: i + 10 for i in range(6)})
    mapping = dict(zip(a.facets[0], b.facets[0]))
    k = connected_sum(a, b, mapping)
    split = split_connected_sum(k, a.facets[0])
    assert is_isomorphic(split.part_a, boundary_simplex(5)) is not None
    assert is_isomorphic(split.part_b, boundary_simplex(5)) is not None
    assert g2(split.part_a) + g2(split.part_b) == g2(k)
    assert g3(split.part_a) + g3(split.part_b) == g3(k)
    # replay restores the input exactly
    assert connected_sum(split.part_a, split.part_b, split.pairing) == k


def test_split_refuses_handle():
    record = handle_instance(3)
    with pytest.raises(NotSplit):
        split_connected_sum(record.complex, record.fold_images[0][1])


def test_vertex_unfold_round_trip():
    record = vertex_folded_instance(37)
    k, t = record.complex, record.tracked
    tau = record.fold_images[0][1]
    result = vertex_unfold(k, tau, t)
    assert g2(result.complex) == g2(k) - 10
    assert g3(result.complex) == g3(k) + 10
    assert is_normal_pseudomanifold(result.complex).normal
    # fold vertex lost its handle: link g2 back to zero
    assert g2(result.complex.link((t,))) == g2(k.link((t,))) - 10


def test_vertex_unfold_splits_links_at_identified_vertices():
    record = vertex_folded_instance(38)
    k, t = record.complex, record.tracked
    tau = record.fold_images[0][1]
    result = vertex_unfold(k, tau, t)
    unfolded = result.complex
    for x in tau:
        if x == t:
            continue
        copy = result.mapping.get(x)
        assert copy in unfolded.vertices
        joint = g2(unfolded.link((x,))) + g2(unfolded.link((copy,)))
        assert joint == g2(k.link((x,)))


def test_edge_unfold_round_trip():
    record = edge_folded_instance(39)
    k = record.complex
    tau = record.fold_images[0][1]
    result = edge_unfold(k, tau, (record.tracked, record.companion))
    assert g2(result.complex) == g2(k) - 6
    assert g3(result.complex) == g3(k) + 4
    assert is_normal_pseudomanifold(result.complex).normal


def test_recognize_suspension():
    base = singular_base_3d(41)
    susp = one_vertex_suspension(base.complex, base.tracked)
    apex = max(susp.vertices)
    found = recognize_one_vertex_suspension(susp, apex, base.tracked)
    assert found is not None
    recovered, pole = found
    assert pole == base.tracked
    assert recovered == base.complex

    assert recognize_one_vertex_suspension(boundary_simplex(5), 0, 1) is not None


def test_recognize_rejects_a_two_vertex_suspension():
    # both poles see the whole base, but they are not joined by an edge
    base = join(boundary_simplex(2), boundary_simplex(2).relabel({0: 3, 1: 4, 2: 5}))
    k = join(base, Complex([[6], [7]]))
    assert k.link((6,)) == base == k.link((7,))
    assert recognize_one_vertex_suspension(k, 6, 7) is None
    assert recognize_one_vertex_suspension(k, 7, 6) is None


def test_recognize_rejects_summed_suspension():
    base = singular_base_3d(42)
    susp = one_vertex_suspension(base.complex, base.tracked)
    apex = max(susp.vertices)
    extra = boundary_simplex(5).relabel({i: i + 200 for i in range(6)})
    src = [f for f in susp.facets if apex not in f][0]
    k = connected_sum(susp, extra, dict(zip(src, extra.facets[0])))
    assert recognize_one_vertex_suspension(k, apex, base.tracked) is None


def test_decompose_boundary_simplex_single_leaf():
    tree = decompose(boundary_simplex(5), 0, mode=MODE_ONE)
    assert len(tree.steps) == 1
    assert tree.steps[0].leaf_kind == "boundary_simplex"
    assert rebuild(tree) == boundary_simplex(5)


def test_decompose_requires_optimality():
    k = handle_instance(5).complex
    with pytest.raises(NotOptimal) as refusal:
        decompose(k, sorted(k.vertices)[0], mode=MODE_ONE)
    # the refusal names g2 and g3 of K and of the link of the vertex
    assert str(refusal.value) == ("complex is not g2- and g3-optimal at vertex 0: g2(K) = 15, "
                                  "g2(lk 0) = 0, g3(K) = -20, g3(lk 0) = 0")


def test_decompose_mode_mismatch():
    record = edge_folded_instance(44)
    with pytest.raises(ModeMismatch):
        decompose(record.complex, record.tracked, mode=MODE_ONE)


def test_decompose_refusals_name_the_fault():
    k = boundary_simplex(5)
    refusals = [
        ((k, 0, "spiral"), ModeMismatch, f"unknown mode 'spiral'; expected one of {MODES}"),
        ((boundary_simplex(3), 0, MODE_ONE), DecompositionError,
         "decomposition engine requires dimension 4"),
        ((k, 999, MODE_ONE), UnknownVertex, "vertex 999 not in complex"),
    ]
    for (complex_, t, mode), error, text in refusals:
        with pytest.raises(error) as exc:
            decompose(complex_, t, mode=mode)
        assert str(exc.value) == text


def test_decompose_vertex_folds_with_decorations(monkeypatch):
    record = vertex_folded_instance(45, folds=2, sums=1, subdivisions=1)
    k, t = record.complex, record.tracked
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    tree = decompose(k, t, mode=MODE_ONE)
    assert tree.vertex_fold_count == 2
    assert tree.edge_fold_count == 0
    assert rebuild(tree) == k
    leaf_kinds = {s.leaf_kind for s in tree.steps if s.kind == "leaf"}
    assert leaf_kinds == {"boundary_simplex"}


def test_decompose_edge_fold_counters():
    record = edge_folded_instance(46, edge_folds=1, vertex_folds=1, sums=1)
    k, t = record.complex, record.tracked
    tree = decompose(k, t, mode=MODE_EDGE)
    assert tree.edge_fold_count == 1
    assert tree.vertex_fold_count == 1
    assert 6 * tree.edge_fold_count + 10 * tree.vertex_fold_count == g2(k)
    assert rebuild(tree) == k


def test_decompose_suspension_mode():
    record = suspension_instance(47, extra_vertex_folds=1, sums=1)
    k, t = record.complex, record.tracked
    tree = decompose(k, t, mode=MODE_SUSPENSION)
    kinds = [s.kind for s in tree.steps]
    assert "suspension_base" in kinds
    assert rebuild(tree) == k
    susp_node = next(s for s in tree.steps if s.kind == "suspension_base")
    base = Complex(susp_node.facets)
    assert g2(base) == g2(base.link((susp_node.vertex,)))


def test_decompose_step_measure_strictly_decreases():
    record = vertex_folded_instance(48, folds=1, subdivisions=1)
    k, t = record.complex, record.tracked
    tree = decompose(k, t, mode=MODE_ONE)
    sizes = {}
    for i, node in enumerate(tree.steps):
        built = rebuild(DecompositionTree(tree.steps[: i + 1], i))
        sizes[i] = (g2(built), len(built.vertices))
    for i, node in enumerate(tree.steps):
        for child in node.children:
            assert sizes[child] < sizes[i]


def test_tree_json_round_trip():
    record = edge_folded_instance(49)
    tree = decompose(record.complex, record.tracked, mode=MODE_EDGE)
    doc = tree.to_dict()
    text = json.dumps(doc)
    back = DecompositionTree.from_dict(json.loads(text))
    assert rebuild(back) == record.complex
    assert back.counters == tree.counters


def test_malformed_tree_rejected():
    with pytest.raises(MalformedTree):
        DecompositionTree.from_dict({"version": 2, "root": 0, "steps": []})
    with pytest.raises(MalformedTree):
        DecompositionTree.from_dict(
            {"version": 1, "root": 0, "steps": [{"kind": "split", "children": [2, 3]}]}
        )
    leaf = {"kind": "leaf", "leaf_kind": "boundary_simplex", "n": 2, "facets": [[0], [1]]}
    split = {"kind": "split", "children": [0], "missing_facet": [0], "pairs": [[0, 2]]}
    suspension = {"kind": "suspension_base", "vertex": 0, "apex": 5}
    counters = {"vertex_folds": 0, "edge_folds": 0, "connected_sums": 0,
                "inverse_subdivisions": 0, "irreducible": 0}
    for change in (
        {"steps": [dict(leaf, children="a")]},
        {"steps": 5},
        {"counters": [1]},
        {"steps": [dict(leaf, facets=[[0, "x"]])]},
        {"steps": [dict(leaf, facets=[[0, 1], [2, 3, 4]])]},
        {"steps": [dict(leaf, facets=[])]},
        {"steps": [dict(leaf, facets=[[0, 0, 1]])]},
        {"steps": [dict(leaf, facets=[[0, -1, 2]])]},
        {"steps": [dict(suspension, facets=[[0, 1], [2, 3, 4]])]},
        {"steps": [dict(suspension, facets=[])]},
        {"steps": [leaf, split], "root": 1},
        {"steps": [leaf, leaf], "root": True},
        {"version": True},
        {"version": 1.0},
    ):
        doc = {"version": 1, "root": 0, "counters": counters, "steps": [leaf], **change}
        with pytest.raises(MalformedTree):
            rebuild(DecompositionTree.from_dict(doc))
    assert rebuild(DecompositionTree.from_dict(
        {"version": 1, "root": 0, "counters": counters, "steps": [leaf]})) == Complex([[0], [1]])


def test_tree_json_refuses_an_unknown_or_misplaced_leaf_kind(corpus_trees):
    leaf = {"kind": "leaf", "leaf_kind": "boundary_simplex", "n": 2, "facets": [[0], [1]]}
    split = {"kind": "split", "children": [0, 0], "pairs": [[0, 2]]}
    for node, fault in (
        (dict(leaf, leaf_kind="banana"), "leaf_kind 'banana' on a leaf node"),
        ({key: v for key, v in leaf.items() if key != "leaf_kind"}, "leaf_kind None on a leaf node"),
        (dict(split, leaf_kind="boundary_simplex"), "leaf_kind 'boundary_simplex' on a split node"),
    ):
        assert outcome(lambda: TreeNode.from_dict(node)) == (
            MalformedTree, f"bad tree node {node!r}: {fault}")
    # engine trees of every mode still load, suspension bases among them
    assert any(node.kind == "suspension_base" for _, tree in corpus_trees for node in tree.steps)
    for _, tree in corpus_trees:
        assert DecompositionTree.from_dict(json.loads(json.dumps(tree.to_dict()))) == tree


def _positions(value, depth, path=()):
    """Each position inside a field of ``depth`` list levels, with the
    number of list levels below it."""
    yield path, depth
    if depth and isinstance(value, list):
        for i, item in enumerate(value):
            yield from _positions(item, depth - 1, path + (i,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _at(value, path):
    for i in path:
        value = value[i]
    return value


def test_tree_node_reader_matches_the_recursive_reading():
    every_field = {"kind": "vertex_unfold", "leaf_kind": None, "children": [0, 1], "n": 4,
                   "vertex": 0, "apex": 9, "facets": [[0, 1], [1, 2]], "missing_facet": [0, 1, 2],
                   "edge": [0, 1], "facet": [1, 2, 3], "source_facet": [0, 1, 3],
                   "target_facet": [0, 2, 4], "pairs": [[1, 2], [3, 4]]}
    empty = dict(every_field, children=[], facets=[[]], pairs=[])
    assert set(_FIELDS) <= set(every_field)
    record = edge_folded_instance(3, edge_folds=1, vertex_folds=1, sums=1)
    steps = decompose(record.complex, record.tracked, mode=MODE_EDGE).to_dict()["steps"]
    cases = 0
    for data in (every_field, empty, *steps):
        for key, depth in _FIELDS.items():
            for path, below in _positions(data.get(key), depth):
                old = _at(data.get(key), path)
                news = [True, 1.5, "3", 7, [old]]
                if below and isinstance(old, list):
                    news.append(tuple(old))
                for new in news:
                    node = {**data, key: _replaced(data.get(key), path, new)}
                    # repr tells tuples from lists
                    got = repr(outcome(lambda: TreeNode.from_dict(node)))
                    assert got == repr(outcome(lambda: reference_tree_node(node))), (key, path, new)
                    cases += 1
        assert repr(TreeNode.from_dict(data)) == repr(reference_tree_node(data))
    assert cases > 500


def test_loaded_tree_counters_come_from_its_steps():
    record = vertex_folded_instance(50, folds=1, sums=1)
    doc = decompose(record.complex, record.tracked, mode=MODE_ONE).to_dict()
    assert doc["counters"]["vertex_folds"] == 1
    assert DecompositionTree.from_dict(json.loads(json.dumps(doc))).g2_accounting() == (0, 1, 0, 10)
    for name, value in (("vertex_folds", 7), ("irreducible", 1), ("connected_sums", 0)):
        with pytest.raises(MalformedTree, match="differ from the steps'"):
            DecompositionTree.from_dict({**doc, "counters": {**doc["counters"], name: value}})
    with pytest.raises(MalformedTree, match="differ from the steps'"):
        DecompositionTree.from_dict({key: v for key, v in doc.items() if key != "counters"})


def test_g2_accounting_reads_the_dimension_off_node_0():
    # a vertex fold of a 3-complex adds C(4, 2) = 6 to g2, not the 10 of
    # dimension 4
    b4 = boundary_simplex(4)
    leaf = TreeNode("leaf", leaf_kind="boundary_simplex", n=4, facets=b4.facets)
    unfold = TreeNode("vertex_unfold", children=(0,), source_facet=(0, 1, 2, 3),
                      target_facet=(1, 2, 3, 4), pairs=((0, 4), (1, 1), (2, 2), (3, 3)))
    assert DecompositionTree([leaf, unfold], 1).g2_accounting() == (0, 1, 0, 6)


def test_rebuild_holds_only_live_complexes():
    # Holding every node's complex peaks near 3.7 MB on this tree (CPython
    # 3.11, 64-bit); holding each until its last use, about 0.2 MB.
    chain = linear_chain(4, 200, 1, fixed=(0,))
    tree = decompose(chain, 0)
    tracemalloc.start()
    try:
        rebuilt = rebuild(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rebuilt == chain
    assert peak < 1_000_000


def test_rebuild_of_shared_and_repeated_children():
    b5 = boundary_simplex(5)
    leaf = TreeNode("leaf", leaf_kind="boundary_simplex", n=5, facets=b5.facets)
    subdivide = [TreeNode("inverse_subdivision", children=(0,), facet=f, vertex=6)
                 for f in ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5))]
    for root in (1, 2):
        tree = DecompositionTree([leaf, *subdivide], root)
        assert rebuild(tree) == facet_subdivision(b5, subdivide[root - 1].facet, 6)
    twice = TreeNode("split", children=(0, 0), pairs=tuple((v, v) for v in range(5)))
    with pytest.raises(VertexOverlap, match=r"summands share vertices \[0, 1, 2, 3, 4, 5\]"):
        rebuild(DecompositionTree([leaf, twice], 1))


def test_rebuild_stops_at_the_root():
    b5 = boundary_simplex(5)
    leaf = TreeNode("leaf", leaf_kind="boundary_simplex", n=5, facets=b5.facets)
    subdivide = TreeNode("inverse_subdivision", children=(0,), facet=(0, 1, 2, 3, 4), vertex=6)
    # a node after the root is validated but never built
    tree = DecompositionTree([leaf, subdivide, TreeNode("leaf", facets=((0, 1), (2, 3, 4)))], 1)
    assert [step["op"] for step in tree.to_script()["steps"]] == ["complex", "facet_subdivision"]
    assert rebuild(tree) == facet_subdivision(b5, (0, 1, 2, 3, 4), 6)
    with pytest.raises(MalformedTree, match="split node 2 has 0 children, expected 2"):
        rebuild(DecompositionTree([leaf, subdivide, TreeNode("split")], 1))


def test_bad_stored_facets_name_their_node():
    base = TreeNode("suspension_base", facets=boundary_simplex(4).facets, vertex=0, apex=9)
    for steps, message in (
        ([TreeNode("leaf", facets=((0, 1), (2, 3, 4)))],
         "leaf node 0 has bad facets: facet lengths differ: [2, 3]"),
        ([TreeNode("leaf", facets=())], "leaf node 0 has bad facets: no facets"),
        ([TreeNode("suspension_base", facets=((0, 0, 1),), vertex=0, apex=5)],
         "suspension_base node 0 has bad facets: repeated vertex in facet [0, 0, 1]"),
        ([base, TreeNode("leaf", facets=((0, -1, 2),)),
          TreeNode("split", children=(0, 1), pairs=((0, 10),))],
         "leaf node 1 has bad facets: vertex labels must be non-negative, got (-1, 0, 2)"),
        ([base, TreeNode("suspension_base", facets=((3, 4), (5,)), vertex=3, apex=7),
          TreeNode("split", children=(0, 1), pairs=((0, 3),))],
         "suspension_base node 1 has bad facets: facet lengths differ: [1, 2]"),
    ):
        with pytest.raises(MalformedTree) as info:
            rebuild(DecompositionTree(steps, len(steps) - 1))
        assert str(info.value) == message


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_decompose_stack_does_not_grow_with_tree_depth():
    # A recursive engine needs about 65 frames above its caller on this
    # chain and the work-stack loop about 15, whatever the tree depth.
    chain = linear_chain(4, 40, 5, fixed=(0,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        tree = decompose(chain, 0, mode=MODE_ONE)
    finally:
        sys.setrecursionlimit(limit)
    assert rebuild(tree) == chain


def test_optimality_preserved_across_steps(monkeypatch):
    record = vertex_folded_instance(50, folds=1, sums=1)
    k, t = record.complex, record.tracked
    # debug mode re-verifies normality and optimality on every intermediate
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    tree = decompose(k, t, mode=MODE_ONE)
    assert rebuild(tree) == k


def test_unfold_of_fold_is_isomorphic_to_original():
    from psf.build import find_vertex_folds, find_edge_folds, vertex_fold as vfold
    from psf.build import edge_fold as efold

    chain = linear_chain(4, 10, 51, fixed=(0,))
    f1, f2, mapping = next(iter(find_vertex_folds(chain, fixed_vertex=0)))
    folded = vfold(chain, f1, f2, mapping)
    back = vertex_unfold(folded, f1, 0)
    assert is_isomorphic(back.complex, chain) is not None

    chain = linear_chain(4, 9, 52, fixed=(0, 1))
    f1, f2, mapping = next(iter(find_edge_folds(chain, fixed_edge=(0, 1))))
    folded = efold(chain, f1, f2, mapping)
    back = edge_unfold(folded, f1, (0, 1))
    assert is_isomorphic(back.complex, chain) is not None


def test_suspension_tree_g2_bookkeeping():
    record = suspension_instance(53, extra_vertex_folds=1)
    k, t = record.complex, record.tracked
    tree = decompose(k, t, mode=MODE_SUSPENSION)
    m, n, base_g2, total = tree.g2_accounting()
    assert (m, n) == (tree.edge_fold_count, tree.vertex_fold_count)
    assert base_g2 > 0  # the suspension base carries the g2 the folds do not
    assert g2(k) == total == 6 * m + 10 * n + base_g2


def test_env_debug_verify(monkeypatch):
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    record = vertex_folded_instance(54)
    tree = decompose(record.complex, record.tracked, mode=MODE_ONE)
    assert rebuild(tree) == record.complex


def test_skeleton_matches_star_skeleton_on_reduced_instance():
    record = vertex_folded_instance(55)
    k, t = record.complex, record.tracked
    star = k.star((t,))
    assert k.skeleton(2) == star.skeleton(2)
    assert len(k.faces(1)) == len(star.faces(1))


def test_suspension_of_boundary_3_simplex():
    s = one_vertex_suspension(boundary_simplex(3), 0)
    assert is_isomorphic(s, boundary_simplex(4)) is not None


def test_unfolds_match_reference_constructions(fold_images):
    done = {"vertex": 0, "edge": 0}
    for k, tau in fold_images:
        for v in tau:
            got = outcome(lambda: vertex_unfold(k, tau, v))
            expected = outcome(lambda: reference_unfold(k, tau, (v,)))
            if type(got) is not tuple:
                got = (got.complex, got.source_facet, got.target_facet, got.pairs)
                done["vertex"] += 1
            assert got == expected
        for edge in itertools.combinations(tau, 2):
            got = outcome(lambda: edge_unfold(k, tau, edge))
            expected = outcome(lambda: reference_unfold(k, tau, edge))
            if type(got) is not tuple:
                got = (got.complex, got.source_facet, got.target_facet, got.pairs)
                done["edge"] += 1
            assert got == expected
    assert done == {"vertex": 16, "edge": 11}  # both succeed often enough to matter


def test_anchors_match_link_built_anchors(fold_images):
    for k, tau in fold_images:
        assert two_point_anchors(k, tau) == link_anchors_reference(k, tau)
    # a ridge in three facets, and a ridge that is no face
    k = Complex([(0, 2, 3), (1, 2, 3), (2, 3, 4), (0, 1, 4)])
    for tau, error in (((1, 2, 3), SeparationError), ((2, 3, 5), FaceNotPresent)):
        got = outcome(lambda: two_point_anchors(k, tau))
        assert got[0] is error
        assert got == outcome(lambda: link_anchors_reference(k, tau))


@pytest.mark.parametrize("size", [1, 3])
def test_edge_unfold_refuses_a_malformed_edge(size):
    record = edge_folded_instance(3)
    k, tau = record.complex, record.fold_images[0][1]
    edge = tau[:size]
    assert outcome(lambda: edge_unfold(k, tau, edge)) == (
        PreconditionUnmet, f"{edge} is not an edge")


def test_unfoldings_agree_with_classification_on_every_missing_facet():
    # each unfolding succeeds exactly when classification finds its fold
    # at its vertex or sorted edge, on fold images and on the first
    # missing facets of each complex alike
    records = [handle_instance(1)]
    for s in (1, 2):
        records += [vertex_folded_instance(s, folds=2, sums=1, subdivisions=1),
                    edge_folded_instance(s, edge_folds=1, vertex_folds=1, sums=1),
                    suspension_instance(s, extra_vertex_folds=1, sums=1)]
    seen = set()
    for record in records:
        k = record.complex
        images = [image for _, image in record.fold_images]
        for tau in dict.fromkeys(sorted(k.missing_simplices(4))[:12] + images):
            cls = classify_missing_facet(k, tau)
            found = (cls.kind, cls.edge if cls.vertex is None else cls.vertex)
            for fixed in [*tau, *itertools.combinations(tau, 2)]:
                if type(fixed) is int:
                    got = outcome(lambda: vertex_unfold(k, tau, fixed))
                    admits = found == ("vertex_fold", fixed)
                else:  # the edge is asked for unsorted
                    got = outcome(lambda: edge_unfold(k, tau, fixed[::-1]))
                    admits = found == ("edge_fold", fixed)
                assert (type(got) is tuple) != admits, (tau, fixed, found)
                seen.add((type(fixed), admits))
    assert seen == {(int, True), (int, False), (tuple, True), (tuple, False)}

    # the refusal names the class found and the fold asked for, here on
    # the first fold images of the seed-1 vertex and edge instances
    vertex_record, edge_record = records[1:3]
    assert outcome(lambda: vertex_unfold(vertex_record.complex, (0, 1, 2, 3, 4), 1)) == (
        PreconditionUnmet,
        "missing facet (0, 1, 2, 3, 4) is classified vertex_fold at 0, not vertex_fold at 1")
    assert outcome(lambda: edge_unfold(edge_record.complex, (0, 1, 2, 3, 4), (3, 0))) == (
        PreconditionUnmet,
        "missing facet (0, 1, 2, 3, 4) is classified edge_fold at (0, 1), "
        "not edge_fold at (0, 3)")


def corpus_inputs(shared_corpus):
    """``(complex, t, mode)`` for each 4-dimensional corpus complex in
    every mode, tracking its first singular vertex or else its least."""
    inputs = []
    for _, k in shared_corpus:
        if k.dim == 4:
            singular = singular_vertices(k)
            inputs += [(k, singular[0] if singular else min(k.vertices), mode) for mode in MODES]
    return inputs


def part_complex(part):
    """The complex of an engine part: a ball part's is its boundary."""
    k, *_, ball = part
    return k if ball is None else _ball_boundary(ball[0])


@pytest.fixture(scope="module")
def engine_record(shared_corpus):
    """Every part the engine steps, as ``(complex, t, t1, homology, ball)``, every
    split it makes, as ``(complex, tau, sides, parts)`` with the sides
    read back off the two part complexes, every unfolding, as
    ``(complex, result)``, and every part it hands to the singular step,
    as ``(complex, t, link)``, while it decomposes two chains and the
    corpus in every mode that succeeds, all under the debug oracle.  A
    split of a ball part is read off the boundaries of its ball and of
    its two subballs."""
    parts, splits, unfolds, singular = [], [], [], []
    step, split, unfold = _Engine.step, decompose_module._split, decompose_module._unfold
    singular_step, ball_step = _Engine.singular, _Engine.ball

    def record_step(self, k, t, t1, homology, ball):
        parts.append((k, t, t1, homology, ball))
        return step(self, k, t, t1, homology, ball)

    def record_singular(self, k, t, t1, link, homology):
        singular.append((k, t, link))
        return singular_step(self, k, t, t1, link, homology)

    def record(k, tau, pairing, part_a, part_b):
        back = {w: v for v, w in pairing.items()}
        side_b = {tuple(sorted(back.get(v, v) for v in f)) for f in part_b.maximal_faces}
        sides = (part_a.maximal_faces - {tau}, frozenset(side_b - {tau}))
        splits.append((k, tau, sides, (part_a, part_b)))

    def record_split(k, tau, pieces):
        result = split(k, tau, pieces)
        record(k, tau, result.pairing, result.part_a, result.part_b)
        return result

    def record_ball(self, leaves, interior):
        node, halves = ball_step(self, leaves, interior)
        if node.kind == "split":
            record(_ball_boundary(leaves), node.missing_facet, dict(node.pairs),
                   *(part_complex(half) for half in halves))
        return node, halves

    def record_unfold(fold, k, *args):
        result = unfold(fold, k, *args)
        unfolds.append((k, result))
        return result

    inputs = corpus_inputs(shared_corpus)
    inputs.append((linear_chain(4, 25, 25, fixed=(0,)), 0, MODE_EDGE))
    done = [x for x in inputs if not isinstance(outcome(lambda: decompose(*x)), tuple)]
    assert len(done) == 33  # of 40: the handle and some modes are refused
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Engine, "step", record_step)
        patch.setattr(_Engine, "singular", record_singular)
        patch.setattr(_Engine, "ball", record_ball)
        patch.setattr(decompose_module, "_split", record_split)
        patch.setattr(decompose_module, "_unfold", record_unfold)
        patch.setenv("PSF_DEBUG_VERIFY", "1")
        for k, t, mode in done:
            decompose(k, t, mode)
        decompose(linear_chain(4, 50, 50, fixed=(0,)), 0)
    return parts, splits, unfolds, singular


@pytest.mark.parametrize("build, mode", [
    (lambda: vertex_folded_instance(3, folds=4), MODE_ONE),
    (lambda: edge_folded_instance(3, edge_folds=2), MODE_EDGE),
])
def test_no_part_is_cut_twice_along_one_missing_facet(monkeypatch, build, mode):
    # a classified split hands on the pieces of the classification's cut
    record = build()
    cut = importlib.import_module("psf.verify")._cut_components
    cuts, held = [], []

    def recording_cut(facets, barrier):
        held.append(facets)  # alive to the end, so no id is reused
        cuts.append((id(facets), frozenset(barrier)))
        return cut(facets, barrier)

    for name in ("psf.decompose", "psf.separation"):
        monkeypatch.setattr(importlib.import_module(name), "_cut_components", recording_cut)
    tree = decompose(record.complex, record.tracked, mode)
    assert rebuild(tree) == record.complex
    # a stacked part is split off its stacked ball, with no cut
    assert len(cuts) >= {MODE_ONE: 41, MODE_EDGE: 30}[mode]
    assert tree.counters["connected_sums"] > 0
    assert len(set(cuts)) == len(cuts)


@pytest.fixture(scope="module")
def corpus_trees(shared_corpus):
    """``(complex, tree)`` for each corpus input that decomposes."""
    trees = [(k, outcome(lambda: decompose(k, t, mode)))
             for k, t, mode in corpus_inputs(shared_corpus)]
    return [(k, tree) for k, tree in trees if not isinstance(tree, tuple)]


def test_tree_scripts_replay_with_an_exact_g_ledger(corpus_trees):
    assert len(corpus_trees) == 32
    for k, tree in corpus_trees:
        script = tree.to_script()
        bases = sum(node.kind == "suspension_base" for node in tree.steps)
        assert len(script["steps"]) == len(tree.steps) + bases
        assert load_script(dump_script(script)) == script
        result = replay(script)
        assert result.final == k and result.ledger_ok
        assert result.ledger[-1].g2 == tree.g2_accounting()[3] == g2(k)
        folds = [row for row in result.ledger if row.op in ("vertex_fold", "edge_fold")]
        assert len(folds) == tree.vertex_fold_count + tree.edge_fold_count
        for row in folds:
            assert (row.delta_g2, row.delta_g3) == fold_deltas(row.op, 4)
        assert rebuild(tree) == k


def test_debug_decompositions_check_every_fold_row(monkeypatch):
    record = vertex_folded_instance(101)
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    decompose(record.complex, record.tracked, MODE_ONE)
    monkeypatch.setattr(buildscript, "fold_deltas", lambda op, d: (0, 0))
    with pytest.raises(DecompositionError, match=r"tree script step \d+ \(vertex_fold\) "
                                                 r"changed \(g2, g3\) by \(10, -10\), "
                                                 r"expected \(0, 0\)"):
        decompose(record.complex, record.tracked, MODE_ONE)


def folded_records():
    return [make(seed) for seed in range(1, 16)
            for make in (vertex_folded_instance, edge_folded_instance, suspension_instance)]


def folded_inputs():
    """``(complex, t, mode)`` for the vertex-, edge- and suspension-folded
    instances of seeds 1 to 15, each at its tracked vertex in every mode."""
    return [(r.complex, r.tracked, mode) for r in folded_records() for mode in MODES]


def tree_or_refusal(k, t, mode):
    got = outcome(lambda: decompose(k, t, mode))
    return got if isinstance(got, tuple) else got.to_dict()


def test_carried_link_homology_passes_the_debug_oracle(monkeypatch, shared_corpus):
    # under debug every step compares the carried (b1, b2) of lk t with
    # those of its built link; the oracle must pass and change nothing
    inputs = folded_inputs() + corpus_inputs(shared_corpus)
    monkeypatch.delenv("PSF_DEBUG_VERIFY", raising=False)
    plain = [tree_or_refusal(*x) for x in inputs]
    assert sum(isinstance(got, dict) for got in plain) == 105 + 32
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    assert [tree_or_refusal(*x) for x in inputs] == plain


def count_normal_betti(monkeypatch):
    """Count ``_normal_betti`` calls by phase (``entry`` or ``engine``,
    inside ``_Engine.run``) and by the module whose binding was called."""
    calls = Counter()
    phase = ["entry"]
    real = verify_module._normal_betti
    for module in (verify_module, decompose_module):
        def counted(link, name=module.__name__):
            calls[phase[0], name] += 1
            return real(link)
        monkeypatch.setattr(module, "_normal_betti", counted)
    run = _Engine.run

    def engine_run(self, *args):
        phase[0] = "engine"
        try:
            return run(self, *args)
        finally:
            phase[0] = "entry"

    monkeypatch.setattr(_Engine, "run", engine_run)
    return calls


def test_the_engine_computes_no_homology_at_t(monkeypatch):
    # lk t's homology is computed once at entry and carried after; in
    # suspension mode only the verdicts at t1 compute homology (through
    # verify's binding), and no mode computes it at t again
    monkeypatch.delenv("PSF_DEBUG_VERIFY", raising=False)
    calls = count_normal_betti(monkeypatch)
    at_t1 = 0
    for record in folded_records():
        k, t = record.complex, record.tracked
        singular = 1 + (record.companion is not None)
        for mode in MODES:
            calls.clear()
            if isinstance(outcome(lambda: decompose(k, t, mode)), tuple):
                continue
            assert calls["entry", "psf.decompose"] + calls["entry", "psf.verify"] == singular
            assert calls["engine", "psf.decompose"] == 0
            if mode != MODE_SUSPENSION:
                assert calls["engine", "psf.verify"] == 0
            at_t1 += calls["engine", "psf.verify"]
    assert at_t1 > 0
    # sixteen folds at t: one rank in all, down from one per singular step
    calls.clear()
    record = vertex_folded_instance(3, folds=16)
    tree = decompose(record.complex, record.tracked, MODE_ONE)
    assert tree.vertex_fold_count == 16
    assert sum(calls.values()) == 1


@pytest.mark.parametrize("kind, build, mode, wrong", [
    ("vertex_fold", lambda: vertex_folded_instance(3, folds=2), MODE_ONE, (1, 0)),
    ("edge_fold", lambda: edge_folded_instance(3), MODE_EDGE, (0, 0)),
])
def test_a_wrong_homology_rule_fails_the_debug_oracle(monkeypatch, kind, build, mode, wrong):
    record = build()
    monkeypatch.delenv("PSF_DEBUG_VERIFY", raising=False)
    good = tree_or_refusal(record.complex, record.tracked, mode)
    # a drop too small still reads singular, so without debug nothing shows
    monkeypatch.setitem(decompose_module._LINK_DROPS, kind, wrong)
    assert tree_or_refusal(record.complex, record.tracked, mode) == good
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    with pytest.raises(DecompositionError, match=r"^step \d+ carries \(b1, b2\) = \(\d+, \d+\) "
                                                 r"for the link of \d+, whose homology gives "
                                                 r"\(\d+, \d+\)$"):
        decompose(record.complex, record.tracked, mode)


def unfoldings_at(k, tau):
    """Every vertex and edge unfolding of ``k`` along ``tau`` that succeeds."""
    for fixed in [*tau, *itertools.combinations(tau, 2)]:
        unfold = vertex_unfold if type(fixed) is int else edge_unfold
        result = outcome(lambda: unfold(k, tau, fixed))
        if type(result) is not tuple:
            yield result


def unfolding_certified(result):
    """Whether the missing facet and its copy are facets of an
    unfolding's result and pass the ridge certificate."""
    facets = result.complex.maximal_faces
    return all(f in facets and _ridge_certificate(result.complex, f)
               for f in (result.source_facet, result.target_facet))


def test_ridge_certificate_matches_normality(engine_record, fold_images):
    parts, splits, unfolds, _ = engine_record
    assert len(splits) > 100
    for k, tau, sides, halves in splits:
        assert is_normal_pseudomanifold(k).normal
        for side, part in zip(sides, halves):
            certified = _ridge_certificate(Complex(side | {tau}), tau)
            assert certified == is_normal_pseudomanifold(part).normal
    # every unfolding the engine makes, and every one at a fold image
    unfolded = [result for _, result in unfolds]
    unfolded += [result for k, tau in fold_images for result in unfoldings_at(k, tau)]
    assert (len(unfolds), len(unfolded)) == (18, 18 + 27)
    for result in unfolded:
        assert unfolding_certified(result) == is_normal_pseudomanifold(result.complex).normal
    # every part the engine steps is normal
    assert all(is_normal_pseudomanifold(part_complex(part)).normal for part in parts)

    # a side that holds a ridge of tau in two of its facets fails
    k, tau, (side_a, side_b), _ = next(s for s in splits if len(s[0].maximal_faces) > 90)
    ts = set(tau)
    doubled = min(f for f in side_b if len(ts.intersection(f)) == 4)
    bad_side, rest = side_a | {doubled}, side_b - {doubled}
    bad = Complex(bad_side | {tau})
    assert not _ridge_certificate(bad, tau)
    assert not is_normal_pseudomanifold(bad).normal

    # the engine's classified split refuses to split along that cut, and
    # so does split_connected_sum; the complex of part A with that cut
    # bounds no stacked ball
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decompose_module, "_cut_components", lambda *_: [bad_side, rest])
        expected = (DecompositionError, f"splitting along {tau} leaves a part that is not normal")
        assert outcome(lambda: split_connected_sum(k, tau)) == expected
        engine = _Engine(MODE_EDGE, False)
        assert outcome(lambda: engine.split(k, tau, [bad_side, rest], 0, None, None)) == expected
    error, message = outcome(lambda: _stacked_ball(bad))
    assert error is DecompositionError
    assert message.startswith("a part with g2 = 0 bounds no stacked ball: ")


def test_stacked_splits_match_classification(engine_record):
    # a part with g2 = 0 is split off its stacked ball along its first
    # missing facet unclassified; classification must find the split
    # signature, with the link of each vertex of tau cut into the traces
    # of the two sides
    _, splits, _, _ = engine_record
    stacked = [(k, tau, sides) for k, tau, sides, _ in splits if g2(k) == 0]
    assert len(stacked) > 100
    for k, tau, sides in stacked:
        cls = classify_missing_facet(k, tau)
        assert cls.kind == "connected_sum_split"
        for x in tau:
            traces = {frozenset(tuple(v for v in f if v != x) for f in side if x in f)
                      for side in sides}
            assert set(cls.report.per_vertex[x].sides) == traces


def test_ball_interior_faces_match_the_parts(engine_record):
    parts, splits, _, _ = engine_record
    balls = [ball for *_, ball in parts if ball is not None]
    # part B of a split holds its subball relabelled onto fresh labels
    part_b = {halves[1] for *_, halves in splits}
    assert len(balls) > 100
    assert sum(bool(interior) and _ball_boundary(leaves) in part_b
               for leaves, interior in balls) > 50
    for leaves, interior in balls:
        k = _ball_boundary(leaves)
        assert interior == sorted(k.missing_simplices(k.dim))
        assert g2(k) == 0
        assert len(leaves) == len(interior) + 1


def ball_route_steps(k):
    """The nodes the engine makes for the stacked sphere ``k``."""
    engine = _Engine(MODE_EDGE, False)
    engine.run((k, None, None, None, None))
    return engine.steps


def relabelled(k, seed):
    """``k`` under a seeded injective relabelling into a range three
    times its vertex count: label order decides side A and fresh labels."""
    vs = sorted(k.vertices)
    return k.relabel(dict(zip(vs, random.Random(seed).sample(range(3 * len(vs)), len(vs)))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4]), st.sampled_from(["stacked", "chain"]), st.integers(1, 40),
       st.integers(0, 10**6), st.booleans())
def test_ball_route_matches_the_split_by_split_reference(d, family, size, seed, relabel):
    if family == "stacked":
        k = stacked_sphere(d, size, seed)
    else:
        k = linear_chain(d, 1 + size % 12, seed, fixed=(0,))
    if relabel:
        k = relabelled(k, seed)
    assert ball_route_steps(k) == reference_stacked_steps(k)


def test_ball_search_crosses_a_simplex_that_holds_no_facet():
    # the first summand of this sphere is covered on all six facets, so
    # a search from the facets alone would find 59 of its 60 simplices
    k = stacked_sphere(4, 60, 3)
    leaves, interior = _stacked_ball(k)
    inner = set(interior)
    assert (len(leaves), len(interior)) == (60, 59)
    assert [s for s in leaves if inner.issuperset(itertools.combinations(s, 5))] == [
        (0, 1, 3, 4, 5, 8)]
    assert interior == sorted(k.missing_simplices(4))
    assert ball_route_steps(k) == reference_stacked_steps(k)


@pytest.mark.parametrize("m", [1, 2, 5, 20, 60])
def test_ball_route_on_stacked_3_spheres(monkeypatch, m):
    # the ball route reads the dimension off the part; the debug oracle
    # checks every ball part of these 3-dimensional trees in full
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    for seed in range(1, 6):
        k = stacked_sphere(3, m, seed)
        leaves, interior = _stacked_ball(k)
        assert _ball_boundary(leaves) == k
        assert len(leaves) == m
        assert interior == sorted(k.missing_simplices(3))
        engine = _Engine(MODE_ONE, True)
        root = engine.run((k, None, None, None, None))
        assert engine.steps == reference_stacked_steps(k)
        assert rebuild(DecompositionTree(engine.steps, root)) == k


def engine_scans(k, t, link):
    """The singular step's scans at ``t``: outside vertices, stray
    triangles and interior 3-faces, read off ``link``."""
    outside, stray, interior = (_off_star(k, t, link, j) for j in (0, k.dim - 2, k.dim - 1))
    return [u for (u,) in outside], stray, interior


def test_star_scans_match_the_face_by_face_definitions(engine_record):
    *_, singular = engine_record
    assert len(singular) > 20
    assert sum(bool(engine_scans(*part)[2]) for part in singular) > 20
    for k, t, link in singular:
        assert link == k.link((t,))
        assert engine_scans(k, t, link) == star_scans(k, t)


def cyclic_polytope_boundary(n, d):
    """The boundary of the cyclic d-polytope on vertices 0..n-1: its
    facets are the d-sets that meet Gale's evenness condition, an even
    number of them between any two vertices they leave out."""
    return Complex([s for s in itertools.combinations(range(n), d)
                    if all(sum(i < v < j for v in s) % 2 == 0
                           for i, j in itertools.combinations(sorted(set(range(n)) - set(s)), 2))])


def cross_polytope_boundary(d):
    """The boundary of the d-dimensional cross-polytope: labels i and
    i + d are antipodal, and a facet takes one of each pair."""
    return Complex([tuple(i + d * side for i, side in enumerate(sides))
                    for sides in itertools.product((0, 1), repeat=d)])


def singular_outcome(k, t):
    """What the singular step does with ``k`` at ``t``, after checking its
    scans against the face-by-face definitions."""
    link = k.link((t,))
    assert engine_scans(k, t, link) == star_scans(k, t)
    return outcome(lambda: _Engine(MODE_EDGE, False).singular(k, t, None, link, None))


@pytest.mark.parametrize("t, strays", [(0, [(2, 4, 6)]),
                                       (1, [(0, 3, 5), (2, 3, 5), (3, 4, 5), (3, 5, 6)])])
def test_singular_step_refuses_the_least_stray_triangle(t, strays):
    # the cyclic 4-sphere on 7 vertices is 2-neighbourly, so every vertex
    # lies in the star of t, but some triangles do not
    k = cyclic_polytope_boundary(7, 5)
    assert len(k.maximal_faces) == 12 and is_normal_pseudomanifold(k).normal
    assert star_scans(k, t)[:2] == ([], strays)
    assert singular_outcome(k, t) == (
        DecompositionError,
        f"triangle {strays[0]} lies outside the star of {t}; optimality hypotheses violated")


def test_singular_step_refuses_a_non_stacked_outside_link():
    # in the cross-polytope boundary the link of 5, antipodal to 0, is the
    # 3-dimensional cross-polytope boundary: no simplex boundary, g2 = 2
    k = cross_polytope_boundary(5)
    assert star_scans(k, 0)[0] == [5]
    assert singular_outcome(k, 0) == (
        DecompositionError, "vertex 5 outside the star of 0 has a non-stacked link")


def bipyramid_join():
    """∂Δ1 * ∂Δ1 * ∂Δ3 on poles 0, 1 and 2, 3 and the tetrahedron
    boundary on 4..7: the link of 1 is the stacked 3-sphere ∂Δ1 * ∂Δ3 on
    six vertices, and 1 lies off the star of 0."""
    poles = join(Complex([(0,), (1,)]), Complex([(2,), (3,)]))
    return join(poles, boundary_simplex(3).relabel({i: i + 4 for i in range(4)}))


def test_singular_step_reinserts_a_missing_facet_of_a_stacked_outside_link():
    # the link of 1 misses only the tetrahedron 4567, which is no face:
    # the retriangulation case
    k = bipyramid_join()
    assert star_scans(k, 0)[0] == [1] and g2(k.link((1,))) == 0
    assert singular_outcome(k, 0) == (
        DecompositionError,
        "no reinsertable missing facet in the link of 1; retriangulation case")
    # summed with a copy along the facet 12456, the link of 1 misses 2456
    # too, a face of the sum: 12456 is reinserted and split off; no vertex
    # off the star of 0 has a simplex boundary for its link
    copy = k.relabel({v: v + 8 for v in k.vertices})
    summed = connected_sum(k, copy, {1: 9, 2: 10, 4: 12, 5: 13, 6: 14})
    assert star_scans(summed, 0)[0] == [1, 8, 11, 15]
    node, parts = singular_outcome(summed, 0)
    split = split_connected_sum(summed, (1, 2, 4, 5, 6))
    assert (node.kind, node.missing_facet) == ("split", (1, 2, 4, 5, 6))
    assert [part for part, *_ in parts] == [split.part_a, split.part_b]


def test_singular_step_leaves_a_boundary_simplex_irreducible():
    # every face off t lies in its star only in the boundary simplex: a
    # normal part reaches the irreducible leaf of the singular step only
    # there, and the engine makes that part a boundary-simplex leaf first
    k = boundary_simplex(5)
    node, parts = singular_outcome(k, 0)
    assert (node.kind, node.leaf_kind, node.facets, parts) == ("leaf", "irreducible_base",
                                                               k.facets, [])
    assert _Engine(MODE_EDGE, False).step(k, 0, None, None, None)[0].leaf_kind == "boundary_simplex"


def test_stacked_step_leaves_a_part_with_g2_irreducible():
    # no tracked vertex and g2 = 2: an irreducible leaf, with no split
    k = cross_polytope_boundary(5)
    node, parts = _Engine(MODE_EDGE, False).step(k, None, None, None, None)
    assert (node.kind, node.leaf_kind, node.facets, parts) == ("leaf", "irreducible_base",
                                                               k.facets, [])
    # and it bounds no stacked ball: each vertex off a facet is antipodal
    # to one of its vertices, so the facet has no common neighbour
    assert outcome(lambda: _stacked_ball(k)) == (
        DecompositionError,
        "a part with g2 = 0 bounds no stacked ball: facet (0, 1, 2, 3, 4) lies in 0 ball simplices")


def test_exhausted_step_budget_reports_the_cut_off():
    record = vertex_folded_instance(3)
    engine = _Engine(MODE_EDGE, False)
    engine.budget = 0
    assert outcome(lambda: engine.run((record.complex, record.tracked, None, None, None))) == (
        DecompositionError, "step budget exhausted; decomposition cut off")


def test_debug_oracle_checks_the_ball_interior_faces(monkeypatch):
    k = linear_chain(4, 6, 3, fixed=(0,))
    monkeypatch.setenv("PSF_DEBUG_VERIFY", "1")
    assert rebuild(decompose(k, 0)) == k
    ball = _Engine.ball

    def drop_last(self, leaves, interior):
        node, parts = ball(self, leaves, interior)
        return node, [(*part[:4], (part[4][0], part[4][1][:-1])) for part in parts]

    monkeypatch.setattr(_Engine, "ball", drop_last)
    with pytest.raises(DecompositionError,
                       match="the interior faces of a ball part differ from its missing facets"):
        decompose(k, 0)


def run_with_unfold(monkeypatch, kind, record, change, debug=False):
    """Run the engine on ``record`` with each ``kind`` unfolding's result
    passed through ``change``; the type and message of what it raised."""
    unfold, fold = decompose_module._unfold, getattr(decompose_module, f"{kind}_fold")

    def changed(how, k, *args):
        result = unfold(how, k, *args)
        if how is not fold:
            return result
        return result._replace(complex=change(k, result.complex))

    monkeypatch.setattr(decompose_module, "_unfold", changed)
    engine = _Engine(MODE_EDGE, debug)
    engine.budget = 50  # a missed check must not leave the engine stepping for long
    return outcome(lambda: engine.run((record.complex, record.tracked, record.companion, None, None)))


@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_unfolding_with_the_wrong_g2_change_raises(monkeypatch, kind):
    record = (vertex_folded_instance if kind == "vertex" else edge_folded_instance)(3)
    expected = 10 if kind == "vertex" else 6
    # an unfolding that hands back its input changes g2 by 0
    assert run_with_unfold(monkeypatch, kind, record, lambda k, unfolded: k) == (
        DecompositionError, f"{kind} unfold changed g2 by 0, expected {expected}")


def test_unfolding_to_a_complex_that_is_not_normal_raises(monkeypatch):
    # dropping a facet keeps every face below it, so g2 is unchanged,
    # but each ridge of the dropped facet lies in one facet only
    def drop_first(k, unfolded):
        return Complex(unfolded.maximal_faces - {unfolded.facets[0]})

    kind, message = run_with_unfold(monkeypatch, "vertex", vertex_folded_instance(3), drop_first)
    assert kind is DecompositionError
    assert message.startswith("intermediate complex is not normal: ")


def restored_facets(k, unfolded):
    """The missing facet of ``k`` that an unfolding restored, and its
    copy: the one facet on old labels that is no face of ``k``, and the
    one made of the fresh labels and vertices of that facet."""
    fresh = unfolded.vertices - k.vertices
    (t,) = [f for f in unfolded.maximal_faces if k.vertices.issuperset(f) and not k.has_face(f)]
    (copy,) = [f for f in unfolded.maximal_faces if fresh <= set(f) <= fresh | set(t)]
    return t, copy


def doubled_ridge(unfolded, t):
    """``unfolded`` with one more facet through a ridge of ``t``, on a
    vertex already joined to the whole ridge, so f0, f1 and g2 stay."""
    for ridge in itertools.combinations(t, 4):
        for w in sorted(unfolded.vertices - set(t)):
            f = tuple(sorted(ridge + (w,)))
            if unfolded.neighbors(w) >= set(ridge) and f not in unfolded.maximal_faces:
                return Complex(unfolded.maximal_faces | {f})
    raise AssertionError(f"no vertex off {t} is joined to a whole ridge of it")


@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_forged_unfoldings_fail_the_ridge_certificate(kind):
    record = (vertex_folded_instance if kind == "vertex" else edge_folded_instance)(3)
    prefix = "intermediate complex is not normal: "
    seen = {}

    def drop(which):
        def change(k, unfolded):
            facet = seen["facet"] = restored_facets(k, unfolded)[which]
            return Complex(unfolded.maximal_faces - {facet})
        return change

    def double(k, unfolded):
        t = seen["facet"] = restored_facets(k, unfolded)[0]
        return doubled_ridge(unfolded, t)

    for change in (drop(0), drop(1), double):
        with pytest.MonkeyPatch.context() as patch:
            got = run_with_unfold(patch, kind, record, change)
        witness = f"{seen.pop('facet')} is not a facet whose ridges each lie in one other facet"
        assert got == (DecompositionError, prefix + witness)

    # a facet through no ridge of t or its copy is left to the debug oracle
    def drop_away(k, unfolded):
        restored = [set(f) for f in restored_facets(k, unfolded)]
        away = min(f for f in unfolded.maximal_faces if all(len(r & set(f)) < 4 for r in restored))
        return Complex(unfolded.maximal_faces - {away})

    with pytest.MonkeyPatch.context() as patch:
        error, message = run_with_unfold(patch, kind, record, drop_away, debug=True)
    assert error is DecompositionError
    assert message.startswith(prefix + "NormalityReport(")


def test_decompose_checks_normality_in_full_once(monkeypatch, shared_corpus):
    calls = []
    check = is_normal_pseudomanifold

    def counted(k):
        calls.append(k)
        return check(k)

    monkeypatch.setattr(decompose_module, "is_normal_pseudomanifold", counted)
    monkeypatch.setattr(importlib.import_module("psf.verify"), "is_normal_pseudomanifold", counted)
    monkeypatch.delenv("PSF_DEBUG_VERIFY", raising=False)
    inputs = corpus_inputs(shared_corpus) + [(linear_chain(4, 50, 50, fixed=(0,)), 0, MODE_ONE)]
    done = 0
    for k, t, mode in inputs:
        calls.clear()
        done += not isinstance(outcome(lambda: decompose(k, t, mode)), tuple)
        assert calls == [k]
    assert done == 33


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(["vertex", "edge", "suspension"]), st.integers(0, 10**6))
def test_unfoldings_at_fold_images_pass_the_ridge_certificate(family, seed):
    record = {
        "vertex": lambda: vertex_folded_instance(seed, folds=1 + seed % 2, sums=seed % 2),
        "edge": lambda: edge_folded_instance(seed, vertex_folds=seed % 2),
        "suspension": lambda: suspension_instance(seed, extra_vertex_folds=seed % 2),
    }[family]()
    for _, tau in record.fold_images:
        for result in unfoldings_at(record.complex, tau):
            assert unfolding_certified(result)
            assert is_normal_pseudomanifold(result.complex).normal


def test_demo_script_writes_trees_that_rebuild_their_facet_files(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "demo_decomposition.py"
    env = dict(os.environ, PYTHONPATH=str(Path(psf.__file__).parents[1]))
    run = subprocess.run([sys.executable, str(script), "-o", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    facets = sorted(tmp_path.glob("*.facets"))
    trees = sorted(tmp_path.glob("*.tree.json"))
    assert len(facets) == len(trees) == 5
    for path in facets:
        tree = DecompositionTree.from_dict(json.loads(path.with_suffix(".tree.json").read_text()))
        assert rebuild(tree) == parse_complex(path.read_text()), path.name
