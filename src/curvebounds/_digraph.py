"""Digraphs stored as one int bitmask of successors per node.

Bit w of `succ[v]` is set iff there is an edge v -> w.  Both certificate
engines run their graph questions through these functions: the support
digraph of a transition matrix and the switch-side graph of a train track.
Only successor rows are kept, never a reversed digraph: shortest cycles
read the breadth-first walk `layers`, and boolean products read `image`.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def image(succ: Sequence[int], mask: int) -> int:
    """The union of the successor rows of the nodes in `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= succ[low.bit_length() - 1]
        mask ^= low
    return out


def layers(succ: Sequence[int], start: int) -> Iterator[int]:
    """Breadth-first layers from the node set `start`: first `start`, then
    each set of nodes first reached one edge later, until none is new."""
    seen = layer = start
    while layer:
        yield layer
        layer = image(succ, layer) & ~seen
        seen |= layer


def components(succ: Sequence[int]) -> list[int]:
    """Strongly connected component label of each node, from one iterative
    Tarjan pass: two nodes share a label iff each reaches the other."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    rest = list(succ)  # successors each node has still to explore
    stack: list[int] = []
    count = 0
    for root in range(n):
        work = [root] if index[root] < 0 else []
        while work:
            v = work[-1]
            if index[v] < 0:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
            while rest[v]:
                bit = rest[v] & -rest[v]
                rest[v] ^= bit
                w = bit.bit_length() - 1
                if index[w] < 0:
                    work.append(w)
                    break
                if label[w] < 0:  # w is still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    while label[v] < 0:
                        label[stack.pop()] = v
    return label

