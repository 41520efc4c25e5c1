"""Post-dominator analysis against networkx as an independent oracle.

``repro.isa.cfg`` computes immediate post-dominators itself (Cooper,
Harvey and Kennedy's iterative algorithm). networkx is a test-only
dependency here: it recomputes the same tables, and since immediate
dominators are unique the two must agree exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.generator import CASE_KINDS, make_case
from repro.isa import assemble, immediate_post_dominators
from repro.isa.cfg import CFG, EXIT, build_cfg, immediate_dominators

nx = pytest.importorskip("networkx")


def networkx_post_dominators(program) -> dict:
    """networkx's dominators on the reversed CFG, with the same completion:
    every block that cannot reach EXIT gets its own EXIT edge."""
    graph = build_cfg(program)
    forward = nx.DiGraph()
    forward.add_nodes_from(graph.nodes)
    forward.add_edges_from((src, dst) for src in graph.nodes
                           for dst in graph.succs[src])
    reversed_graph = forward.reverse(copy=True)
    reachable = set(nx.descendants(reversed_graph, EXIT)) | {EXIT}
    for node in forward.nodes:
        if node not in reachable:
            reversed_graph.add_edge(EXIT, node)
    idom = nx.immediate_dominators(reversed_graph, EXIT)
    return {node: idom[node] for node in forward.nodes if node != EXIT}


INFINITE_LOOP = """
.kernel main regs=2
main:
SPIN:
    bra SPIN;
"""

#: Two blocks that only reach each other, entered from a branch.
TRAPPED_CYCLE = """
.kernel main regs=4
main:
    setp.lt p0, r0, r1;
    @p0 bra SPIN;
    exit;
SPIN:
    add r1, r1, 1;
    bra INNER;
INNER:
    bra SPIN;
"""


@pytest.mark.parametrize("source", [INFINITE_LOOP, TRAPPED_CYCLE],
                         ids=["infinite-loop", "trapped-cycle"])
def test_blocks_that_never_exit_match_networkx(source):
    program = assemble(source)
    assert immediate_post_dominators(program) == (
        networkx_post_dominators(program))


def test_kernel_programs_match_networkx():
    from repro.kernels.microkernels import microkernel_program
    from repro.kernels.traditional import traditional_program
    for program in (traditional_program(), microkernel_program()):
        assert immediate_post_dominators(program) == (
            networkx_post_dominators(program))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(CASE_KINDS))
def test_fuzzer_programs_match_networkx(seed, kind):
    program = make_case(seed, kind).program
    assert immediate_post_dominators(program) == (
        networkx_post_dominators(program))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=3 * n))))
def test_random_graph_dominators_match_networkx(shape):
    """Arbitrary (also irreducible) graphs, rooted at node 0. The root's
    own entry is left out: networkx releases differ on whether it maps the
    root to itself."""
    num_nodes, edges = shape
    graph = CFG()
    oracle = nx.DiGraph()
    for node in range(num_nodes):
        graph.add_node(node)
        oracle.add_node(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
        oracle.add_edge(src, dst)
    ours = immediate_dominators(graph, 0)
    theirs = nx.immediate_dominators(oracle, 0)
    assert ours.pop(0) == 0
    theirs.pop(0, None)
    assert ours == theirs
