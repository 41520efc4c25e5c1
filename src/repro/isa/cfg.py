"""Control-flow graph and PDOM reconvergence-point analysis.

SIMT hardware reconverges diverged warps at the *immediate post-dominator*
of each branch (Fung et al., MICRO 2007; paper §II). Real toolchains compute
these points in the compiler and encode them in the binary; we compute them
offline from the assembled program (the iterative dominator algorithm of
Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm", 2001, run
on the reversed CFG) and hand the table to the simulator's reconvergence
stack.
"""

from __future__ import annotations

from repro.errors import ProgramError
from repro.isa.program import Program

#: Virtual CFG node representing thread exit.
EXIT = "EXIT"

#: Sentinel reconvergence PC meaning "reconverge only at thread exit".
RECONV_AT_EXIT = -1


def basic_block_leaders(program: Program) -> list[int]:
    """PCs that start a basic block, in ascending order."""
    leaders = {0}
    for info in program.kernels.values():
        leaders.add(info.entry_pc)
    for inst in program.instructions:
        if inst.op == "bra":
            leaders.add(inst.target)
            if inst.pc + 1 < len(program):
                leaders.add(inst.pc + 1)
        elif inst.op == "exit" and inst.pc + 1 < len(program):
            leaders.add(inst.pc + 1)
    return sorted(pc for pc in leaders if 0 <= pc < len(program))


class CFG:
    """A directed graph kept as successor lists, in insertion order.

    ``succs`` maps every node to its successors; ``last`` maps each
    block-leader node to the PC of its block's final instruction.
    """

    def __init__(self) -> None:
        self.succs: dict[object, list] = {}
        self.last: dict[int, int] = {}

    @property
    def nodes(self):
        return self.succs.keys()

    def add_node(self, node) -> None:
        self.succs.setdefault(node, [])

    def add_edge(self, src, dst) -> None:
        """Add ``src -> dst`` (and either node if it is new)."""
        self.add_node(src)
        self.add_node(dst)
        if dst not in self.succs[src]:
            self.succs[src].append(dst)

    def has_edge(self, src, dst) -> bool:
        return dst in self.succs.get(src, ())

    def reverse(self) -> "CFG":
        """The same nodes with every edge flipped."""
        reversed_graph = CFG()
        for node in self.succs:
            reversed_graph.add_node(node)
        for src, dsts in self.succs.items():
            for dst in dsts:
                reversed_graph.succs[dst].append(src)
        return reversed_graph


def build_cfg(program: Program) -> CFG:
    """Build the CFG over basic blocks.

    Nodes are block-leader PCs plus the virtual :data:`EXIT` node;
    ``graph.last[leader]`` is the PC of the block's final instruction.
    """
    if program[0] is None:  # pragma: no cover - Program guarantees non-empty
        raise ProgramError("empty program")
    leaders = basic_block_leaders(program)
    leader_set = set(leaders)
    graph = CFG()
    graph.add_node(EXIT)
    for index, leader in enumerate(leaders):
        end = leaders[index + 1] if index + 1 < len(leaders) else len(program)
        last_pc = end - 1
        graph.add_node(leader)
        graph.last[leader] = last_pc
        last = program[last_pc]
        if last.op == "bra":
            graph.add_edge(leader, last.target)
            if last.pred is not None and last_pc + 1 < len(program):
                graph.add_edge(leader, last_pc + 1)
        elif last.op == "exit":
            graph.add_edge(leader, EXIT)
            if last.pred is not None and last_pc + 1 < len(program):
                graph.add_edge(leader, last_pc + 1)
        else:
            if last_pc + 1 >= len(program):
                raise ProgramError("control falls off the end of the program")
            graph.add_edge(leader, last_pc + 1)
    for node in list(graph.nodes):
        if node != EXIT and node not in leader_set:
            raise ProgramError(f"branch target pc={node} is not a block leader")
    return graph


def _reverse_postorder(graph: CFG, root) -> list:
    """Nodes reachable from ``root``, in reverse postorder (iterative DFS)."""
    order = []
    seen = {root}
    stack = [(root, iter(graph.succs[root]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(graph.succs[child])))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def immediate_dominators(graph: CFG, root) -> dict:
    """Immediate dominator of every node reachable from ``root``.

    The iterative algorithm of Cooper, Harvey and Kennedy: visit the nodes
    in reverse postorder, set each one's dominator to the meet of its
    processed predecessors (walking both up the tree to their common
    ancestor), and repeat until nothing changes. ``root`` maps to itself.
    """
    order = _reverse_postorder(graph, root)
    rank = {node: index for index, node in enumerate(order)}
    preds: dict[object, list] = {node: [] for node in order}
    for node in order:
        for succ in graph.succs[node]:
            preds[succ].append(node)
    idom = {root: root}

    def meet(a, b):
        while a != b:
            while rank[a] > rank[b]:
                a = idom[a]
            while rank[b] > rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            new = None
            for pred in preds[node]:
                if pred in idom:
                    new = pred if new is None else meet(pred, new)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom


def immediate_post_dominators(program: Program) -> dict[int, object]:
    """Map each block leader to its immediate post-dominator leader.

    Values are leader PCs or :data:`EXIT`. Blocks unreachable from any
    kernel entry are still analyzed (they are part of the PC space).
    """
    graph = build_cfg(program)
    reversed_graph = graph.reverse()
    # Blocks that cannot reach EXIT (e.g. infinite loops) would be absent
    # from the post-dominator tree; give each one its own EXIT edge so the
    # analysis is total.
    reachable = set(_reverse_postorder(reversed_graph, EXIT))
    for node in graph.nodes:
        if node not in reachable:
            reversed_graph.add_edge(EXIT, node)
    idom = immediate_dominators(reversed_graph, EXIT)
    return {node: idom[node] for node in graph.nodes if node != EXIT}


def reconvergence_table(program: Program) -> dict[int, int]:
    """Map each *divergent* branch PC to its reconvergence PC.

    Only predicated branches can diverge. The reconvergence PC is the leader
    of the branch block's immediate post-dominator, or
    :data:`RECONV_AT_EXIT` when control only rejoins at thread exit.
    """
    ipdom = immediate_post_dominators(program)
    graph = build_cfg(program)
    block_of_pc: dict[int, int] = {}
    for leader, last_pc in graph.last.items():
        for pc in range(leader, last_pc + 1):
            block_of_pc[pc] = leader
    table: dict[int, int] = {}
    for inst in program.instructions:
        if inst.op == "bra" and inst.pred is not None:
            node = ipdom[block_of_pc[inst.pc]]
            table[inst.pc] = RECONV_AT_EXIT if node == EXIT else int(node)
    return table
