"""SMILES reader, writer, and canonicalizer over a pragmatic grammar subset.

Supported: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I), aromatic
lowercase forms, bracket atoms for every other element, bond symbols - = # :,
branches, ring closures (1-9 and %nn), and dot-separated fragments.  Not
supported: stereo descriptors, isotopes, charges, and explicit H counts.

The parser checks and builds its graph in one `molgraph.new_graph` call.
Canonical strings come from invariant refinement followed by an exact
tie-break search that prunes branches related by automorphisms of the graph,
so every graph gets its canonical string, however symmetric.  Refinement is
one loop, `_refine`, over a partition of cells: the root's cells come from
the atom invariants (`_partition`) and the loop first reads every atom; each
search node copies its parent's refined cells, splits the pick off its cell
(`_individualize`) and first reads only the pick's neighbours.  Each
connected component (`molgraph.subgraph`, skipped for a connected graph) is
canonicalized on its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import chemrules
from .molgraph import (
    MAX_ATOMIC_NUMBER,
    SYMBOL_TO_NUMBER,
    ELEMENT_SYMBOLS,
    Atom,
    BondType,
    MoleculeGraph,
    UnknownElement,
    new_graph,
    subgraph,
)

ORGANIC_SUBSET = ("Cl", "Br", "B", "C", "N", "O", "P", "S", "F", "I")
AROMATIC_CHARS = "bcnops"
LOWERCASE_WRITABLE = {6: "c", 7: "n", 8: "o", 16: "s"}

_BOND_CHAR_TO_TYPE = {
    "-": BondType.SINGLE,
    "=": BondType.DOUBLE,
    "#": BondType.TRIPLE,
    ":": BondType.AROMATIC,
}
_TYPE_TO_BOND_CHAR = {
    BondType.SINGLE: "-",
    BondType.DOUBLE: "=",
    BondType.TRIPLE: "#",
    BondType.AROMATIC: ":",
}

_DIGITS = frozenset("0123456789")  # ring closures take ASCII digits only; str.isdigit also accepts "²" and "١"
_BRACKET_SYMBOL = re.compile(r"^([A-Z][a-z]{0,2}|[bcnops])$")


class SmilesSyntaxError(ValueError):
    """Grammar violation, carrying the offending position."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"position {position}: {reason}")
        self.position = position
        self.reason = reason


class UnwritableGraph(ValueError):
    """The graph has atoms outside the writable element range, or needs ring-closure digits past 99."""


@dataclass
class _ParsedAtom:
    atomic_number: int
    aromatic: bool


def _default_bond(a: _ParsedAtom, b: _ParsedAtom) -> BondType:
    return BondType.AROMATIC if (a.aromatic and b.aromatic) else BondType.SINGLE


def parse(text: str) -> MoleculeGraph:
    """Parse a SMILES string into a graph with all-zero positions.

    Implicit hydrogens are not materialized; geometry is not encoded in the
    notation, so every atom sits at the origin.
    """
    s = text.strip()
    atoms: list[_ParsedAtom] = []
    bonds: list[tuple[int, int, BondType]] = []
    bond_keys: set[tuple[int, int]] = set()
    anchor: int | None = None
    pending: str | None = None
    pending_pos = 0
    after_dot = False
    branch_stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None, int]] = {}

    def push_bond(i: int, j: int, bond: BondType, pos: int) -> None:
        key = (min(i, j), max(i, j))
        if key in bond_keys:
            raise SmilesSyntaxError(pos, f"duplicate bond between atoms {key[0]} and {key[1]}")
        bond_keys.add(key)
        bonds.append((key[0], key[1], bond))

    def attach(idx: int, pos: int) -> None:
        nonlocal anchor, pending, after_dot
        if anchor is not None and not after_dot:
            bond = _BOND_CHAR_TO_TYPE[pending] if pending else _default_bond(atoms[anchor], atoms[idx])
            push_bond(anchor, idx, bond, pos)
        elif pending is not None:
            raise SmilesSyntaxError(pending_pos, "bond symbol with no preceding atom to bond from")
        anchor = idx
        pending = None
        after_dot = False

    def handle_ring(digit: int, pos: int) -> None:
        nonlocal pending
        if anchor is None:
            raise SmilesSyntaxError(pos, "ring closure before any atom")
        if digit in ring_open:
            other, other_bond, other_pos = ring_open.pop(digit)
            if other == anchor:
                raise SmilesSyntaxError(pos, f"ring closure {digit} bonds an atom to itself")
            if pending and other_bond and pending != other_bond:
                raise SmilesSyntaxError(pos, f"conflicting bond symbols for ring closure {digit}")
            symbol = pending or other_bond
            bond = _BOND_CHAR_TO_TYPE[symbol] if symbol else _default_bond(atoms[other], atoms[anchor])
            push_bond(other, anchor, bond, pos)
        else:
            ring_open[digit] = (anchor, pending, pos)
        pending = None

    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch == "[":
            end = s.find("]", i)
            if end < 0:
                raise SmilesSyntaxError(i, "unterminated bracket atom")
            body = s[i + 1 : end]
            m = _BRACKET_SYMBOL.match(body)
            if not m:
                raise SmilesSyntaxError(i, f"unsupported bracket atom [{body}]")
            symbol = body
            aromatic = symbol[0].islower()
            lookup = symbol.capitalize() if aromatic else symbol
            z = SYMBOL_TO_NUMBER.get(lookup)
            if z is None:
                raise UnknownElement(f"position {i}: unknown element symbol [{body}]")
            atoms.append(_ParsedAtom(z, aromatic))
            attach(len(atoms) - 1, i)
            i = end + 1
            continue
        two = s[i : i + 2]
        if two in ("Cl", "Br"):
            atoms.append(_ParsedAtom(SYMBOL_TO_NUMBER[two], False))
            attach(len(atoms) - 1, i)
            i += 2
            continue
        if ch in "BCNOPSFI":
            atoms.append(_ParsedAtom(SYMBOL_TO_NUMBER[ch], False))
            attach(len(atoms) - 1, i)
            i += 1
            continue
        if ch in AROMATIC_CHARS:
            atoms.append(_ParsedAtom(SYMBOL_TO_NUMBER[ch.upper()], True))
            attach(len(atoms) - 1, i)
            i += 1
            continue
        if ch in "-=#:":
            if pending is not None:
                raise SmilesSyntaxError(i, "two bond symbols in a row")
            if anchor is None:
                raise SmilesSyntaxError(i, "bond symbol before any atom")
            pending = ch
            pending_pos = i
            i += 1
            continue
        if ch == "(":
            if anchor is None:
                raise SmilesSyntaxError(i, "branch opened before any atom")
            if pending is not None:
                raise SmilesSyntaxError(i, "bond symbol before branch open")
            branch_stack.append(anchor)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError(i, "unmatched closing parenthesis")
            if pending is not None:
                raise SmilesSyntaxError(pending_pos, "dangling bond before branch close")
            anchor = branch_stack.pop()
            i += 1
            continue
        if ch in _DIGITS:
            handle_ring(int(ch), i)
            i += 1
            continue
        if ch == "%":
            if i + 2 >= n or not (s[i + 1] in _DIGITS and s[i + 2] in _DIGITS):
                raise SmilesSyntaxError(i, "% ring closure needs two digits")
            handle_ring(int(s[i + 1 : i + 3]), i)
            i += 3
            continue
        if ch == ".":
            if pending is not None:
                raise SmilesSyntaxError(pending_pos, "bond symbol adjacent to fragment dot")
            after_dot = True
            anchor = None
            i += 1
            continue
        raise SmilesSyntaxError(i, f"unexpected character {ch!r}")

    if pending is not None:
        raise SmilesSyntaxError(pending_pos, "dangling bond symbol at end of input")
    if branch_stack:
        raise SmilesSyntaxError(n, "unclosed branch")
    if ring_open:
        digit, (_, _, pos) = sorted(ring_open.items())[0]
        raise SmilesSyntaxError(pos, f"unclosed ring closure {digit}")

    return new_graph([Atom(a.atomic_number) for a in atoms], bonds)


def _lowercase_atoms(graph: MoleculeGraph) -> set[int]:
    """Atoms writable in aromatic lowercase: all their aromatic bonds lie on valid rings."""
    aromatic = [(i, j) for i, j, t in graph.bonds if t is BondType.AROMATIC]
    if not aromatic:
        return set()
    good = chemrules.valid_aromatic_bonds(graph)
    bad = {k for pair in aromatic if pair not in good for k in pair}
    return {
        k for pair in aromatic for k in pair if k not in bad and graph.atoms[k].atomic_number in LOWERCASE_WRITABLE
    }


def _bond_token(t: BondType, lower_i: bool, lower_j: bool) -> str:
    if t is BondType.SINGLE:
        return "-" if (lower_i and lower_j) else ""
    if t is BondType.AROMATIC:
        return "" if (lower_i and lower_j) else ":"
    return _TYPE_TO_BOND_CHAR[t]


def _atom_token(z: int, lowercase: bool) -> str:
    symbol = ELEMENT_SYMBOLS[z - 1]
    if lowercase:
        return LOWERCASE_WRITABLE[z]
    if symbol in ORGANIC_SUBSET:
        return symbol
    return f"[{symbol}]"


def write(graph: MoleculeGraph, _ranks: list[int] | None = None) -> str:
    """Write a deterministic SMILES string; fragments are dot-separated.

    The traversal order is controlled by `_ranks` (lower rank first), which the
    canonicalizer uses to pin a unique output: each fragment starts at its
    atom of lowest rank, and fragments follow in the order of those atoms.
    Bonds may be stored either way round.  Re-parsing the result yields a
    graph with the same elements and the same typed bond multiset.  Raises
    `UnwritableGraph` for atoms outside the writable element range, and for a
    fragment that would need ring-closure digit 100 at once.
    """
    n = graph.n_atoms
    if n == 0:
        return ""
    for idx, atom in enumerate(graph.atoms):
        if not 1 <= atom.atomic_number <= MAX_ATOMIC_NUMBER:
            raise UnwritableGraph(f"atom {idx} has unwritable atomic number {atom.atomic_number}")
    ranks = list(_ranks) if _ranks is not None else list(range(n))
    lowercase = _lowercase_atoms(graph)
    adj = graph.adjacency()
    for u in adj:
        adj[u].sort(key=lambda item: ranks[item[0]])

    pieces = []
    emit_index: dict[int, int] = {}  # atom -> its position in the output, over all fragments
    for start in sorted(range(n), key=ranks.__getitem__):
        if start not in emit_index:
            pieces.append(_write_component(graph, start, lowercase, adj, emit_index))
    return ".".join(pieces)


def _write_component(
    graph: MoleculeGraph,
    start: int,
    lowercase: set[int],
    adj: dict[int, list[tuple[int, BondType]]],
    emit_index: dict[int, int],
) -> str:
    tree_children, closures = _scout(start, adj, emit_index)

    # Allocate ring-closure digits by opening position, reusing closed digits.
    closure_at: dict[int, list[tuple[int, int, BondType]]] = {}  # atom -> [(partner, digit, bond)]
    in_use: dict[int, int] = {}  # digit -> emit index where it closes
    for first, second, t in sorted(closures, key=lambda c: (emit_index[c[0]], emit_index[c[1]])):
        opened_at = emit_index[first]
        for d in [d for d, closes in in_use.items() if closes < opened_at]:
            del in_use[d]
        digit = 1
        while digit in in_use:
            digit += 1
        if digit > 99:
            raise UnwritableGraph(f"atom {first} would open ring closure {digit}; SMILES has digits up to %99")
        in_use[digit] = emit_index[second]
        closure_at.setdefault(first, []).append((second, digit, t))
        closure_at.setdefault(second, []).append((first, digit, t))

    return _emit(start, graph, lowercase, emit_index, tree_children, closure_at)


def _scout(
    start: int,
    adj: dict[int, list[tuple[int, BondType]]],
    emit_index: dict[int, int],
) -> tuple[dict[int, list[tuple[int, BondType]]], list[tuple[int, int, BondType]]]:
    """The depth-first tree from `start`: each atom's (child, bond)s, and the ring closures.

    Numbers the atoms reached in `emit_index`, in visit order.  Each atom
    visits its unvisited neighbours in `adj` order, each one's subtree before
    the next neighbour.  Every other bond joins an atom to one of its
    ancestors, and the atom reads it before the ancestor does: it becomes an
    (ancestor, atom, bond) ring closure there.  The stack holds each open
    atom with its parent and its neighbours still to visit, so the depth is
    not bounded by the recursion limit.
    """
    emit_index[start] = len(emit_index)
    tree_children: dict[int, list[tuple[int, BondType]]] = {start: []}
    closures: list[tuple[int, int, BondType]] = []
    stack = [(start, None, iter(adj[start]))]
    while stack:
        u, parent, neighbours = stack[-1]
        for v, t in neighbours:
            if v == parent:
                continue
            if v not in emit_index:
                emit_index[v] = len(emit_index)
                tree_children[u].append((v, t))
                tree_children[v] = []
                stack.append((v, u, iter(adj[v])))
                break
            if emit_index[v] < emit_index[u]:
                closures.append((v, u, t))
        else:
            stack.pop()
    return tree_children, closures


def _emit(
    start: int,
    graph: MoleculeGraph,
    lowercase: set[int],
    emit_index: dict[int, int],
    tree_children: dict[int, list[tuple[int, BondType]]],
    closure_at: dict[int, list[tuple[int, int, BondType]]],
) -> str:
    """The SMILES text of the spanning tree below `start`.

    An atom writes its token and ring-closure digits, each with its bond at
    the opening end, then each child's bond and subtree, every child but the
    last in parentheses.  The stack holds the atoms still to write, last
    first, with a -1 where a ")" goes, and `prefix` the text that comes
    before each atom: its bond, after a "(" for a child that is not its
    parent's last.
    """
    out: list[str] = []
    prefix = {start: ""}
    stack = [start]
    while stack:
        u = stack.pop()
        if u < 0:
            out.append(")")
            continue
        lower = u in lowercase
        out.append(prefix[u])
        out.append(_atom_token(graph.atoms[u].atomic_number, lower))
        for partner, digit, t in sorted(closure_at.get(u, []), key=lambda c: emit_index[c[0]]):
            if emit_index[u] < emit_index[partner]:
                out.append(_bond_token(t, lower, partner in lowercase))
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        children = tree_children[u]
        last = len(children) - 1
        for pos in range(last, -1, -1):
            v, t = children[pos]
            bond = _bond_token(t, lower, v in lowercase)
            if pos == last:
                prefix[v] = bond
            else:
                prefix[v] = "(" + bond
                stack.append(-1)
            stack.append(v)
    return "".join(out)


_BOND_RANK = {BondType.SINGLE: 1, BondType.DOUBLE: 2, BondType.TRIPLE: 3, BondType.AROMATIC: 4}


def _dense(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _partition(ranks: list[int]) -> tuple[list[list], list[list]]:
    """The cells of atoms of equal rank, in rank order, and the cell of each atom.

    A cell is [start, members], ranked by its start, the count of atoms in
    cells before it: starts rise with the dense ranks, so every tuple that
    `_refine` compares orders as it would with them.
    """
    n = len(ranks)
    cell_of: list[list] = [None] * n
    cells: dict[int, list] = {}
    for position, i in enumerate(sorted(range(n), key=ranks.__getitem__)):
        cell = cells.get(ranks[i])
        if cell is None:
            cell = cells[ranks[i]] = [position, set()]
        cell[1].add(i)
        cell_of[i] = cell
    return list(cells.values()), cell_of


def _individualize(cells: list[list], cell_of: list[list], pick: int) -> tuple[list[list], list[list]]:
    """A copy of the partition with `pick` split off the front of its cell.

    `pick` keeps the cell's start and the rest of the cell moves to start + 1:
    the starts `_partition` gives ranks that put `pick` just before its cell.
    """
    child = [[start, members.copy()] for start, members in cells]
    child_of: list[list] = [None] * len(cell_of)
    for cell in child:
        for i in cell[1]:
            child_of[i] = cell
    rest = child_of[pick]
    rest[1].discard(pick)
    piece = [rest[0], {pick}]
    rest[0] += 1
    child.append(piece)
    child_of[pick] = piece
    return child, child_of


def _refine(
    adj: list[list[tuple[int, int]]], cells: list[list], cell_of: list[list], touched: set[int] | range
) -> None:
    """Sharpen the partition in place with neighbor (bond, start) multisets until stable.

    Each round splits every cell at once by its members' sorted (bond,
    neighbor start) tuples, the pieces in tuple order, until a round splits
    nothing.  A split moves no other cell's start, and new pieces are
    appended to `cells`.  Only "touched" atoms are read: in each cell, all
    untouched members must share one tuple, read from one of them.  For a
    partition from `_partition` that takes every atom; for a child from
    `_individualize` of a partition this has refined, only the neighbors of
    the pick.  In a refined partition the members of a cell have the same
    bonds into each cell, so those not bonded to the pick still share one
    tuple, with start + 1 in place of the pick's old start.  After a
    round, the touched atoms are the neighbors of atoms that moved to a new
    cell: the moved pieces are all but one of each split cell, so a long
    chain or ring costs about one read per atom, not one per atom and round.
    """

    def signature(i: int) -> tuple:
        return tuple(sorted((bond, cell_of[j][0]) for bond, j in adj[i]))

    while True:
        hits: dict[int, tuple[list, list[int]]] = {}
        for i in touched:
            cell = cell_of[i]
            if len(cell[1]) > 1:
                hits.setdefault(id(cell), (cell, []))[1].append(i)
        splits = []
        for cell, hit in hits.values():
            groups: dict[tuple, list[int]] = {}
            for i in hit:
                groups.setdefault(signature(i), []).append(i)
            kept = None
            if len(hit) < len(cell[1]):
                marked = set(hit)
                kept = signature(next(i for i in cell[1] if i not in marked))
                groups.setdefault(kept, [])
            if len(groups) > 1:
                splits.append((cell, groups, kept))
        if not splits:
            return
        moved: list[int] = []
        for cell, groups, kept in splits:
            if kept is None:  # every member was touched: the largest piece keeps the cell
                kept = max(groups, key=lambda key: len(groups[key]))
            start = cell[0]
            kept_size = len(cell[1]) - sum(len(g) for k, g in groups.items() if k != kept)
            for key in sorted(groups):
                if key == kept:
                    size = kept_size
                    cell[0] = start
                else:
                    members = groups[key]
                    size = len(members)
                    piece = [start, set(members)]
                    cell[1].difference_update(members)
                    cells.append(piece)
                    for i in members:
                        cell_of[i] = piece
                    moved.extend(members)
                start += size
        touched = {j for i in moved for _, j in adj[i]}


def _initial_ranks(adj: list[list[tuple[int, int]]], numbers: list[int]) -> list[int]:
    invariants = [
        (z, len(adj[i]), tuple(sorted(bond for bond, _ in adj[i]))) for i, z in enumerate(numbers)
    ]
    return _dense(invariants)


def _orbits(automorphisms: list[list[int]], fixed: list[int]) -> list[int]:
    """Orbit representative per atom under the found automorphisms that fix `fixed` pointwise."""
    root = list(range(len(automorphisms[0])))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for gamma in automorphisms:
        if all(gamma[v] == v for v in fixed):
            for a, b in enumerate(gamma):
                root[find(a)] = find(b)
    return [find(a) for a in range(len(root))]


def _canonical_component(graph: MoleculeGraph) -> str:
    """Smallest `write` over all leaves of the individualization-refinement tree.

    Leaves are discrete rankings.  A leaf's certificate is the graph relabelled
    by its ranks; equal certificates write equal strings, so only new ones are
    written.  A leaf whose certificate equals the first leaf's yields an
    automorphism; the search then backjumps to where its path left the first
    path, and at every node skips picks in the orbit of an explored pick under
    the automorphisms that fix the path (McKay & Piperno, arXiv:1301.1493).
    Each skipped subtree is an automorphic image of a searched one, so the
    result equals that of the exhaustive search.
    """
    numbers = [atom.atomic_number for atom in graph.atoms]
    adj: list[list[tuple[int, int]]] = [[] for _ in numbers]
    for i, j, t in graph.bonds:
        adj[i].append((_BOND_RANK[t], j))
        adj[j].append((_BOND_RANK[t], i))
    edges = [(i, j, _BOND_RANK[t]) for i, j, t in graph.bonds]
    first: list = []  # path, certificate and atom-per-rank of the first leaf
    written: dict[tuple, str] = {}  # certificate -> its string
    cells, cell_of = _partition(_initial_ranks(adj, numbers))
    _refine(adj, cells, cell_of, range(len(numbers)))
    _search(cells, cell_of, [], graph, adj, edges, first, [], written)
    return min(written.values())


def _search(
    cells: list[list],
    cell_of: list[list],
    path: list[int],
    graph: MoleculeGraph,
    adj: list[list[tuple[int, int]]],
    edges: list[tuple[int, int, int]],
    first: list,
    automorphisms: list[list[int]],
    written: dict[tuple, str],
) -> int:
    """Explore the search tree below `path`; return the depth at which the search resumes.

    `cells` and `cell_of` are the node's partition, refined by `_refine`.
    Each child splits a pick off the tied cell with the smallest start and
    is refined from there, so the node's own partition is never changed.
    `first` receives the first leaf's path, certificate and atom per rank,
    `automorphisms` each automorphism found, and `written` the string of each
    new certificate.
    """
    n = len(cell_of)
    if len(cells) == n:  # every cell a singleton: the starts are the ranks 0..n-1
        ranks = [cell[0] for cell in cell_of]
        at_rank = [0] * n
        for i, r in enumerate(ranks):
            at_rank[r] = i
        certificate = (
            tuple([graph.atoms[i].atomic_number for i in at_rank]),
            tuple(sorted((min(ranks[i], ranks[j]), max(ranks[i], ranks[j]), b) for i, j, b in edges)),
        )
        if not first:
            first.extend((path, certificate, at_rank))
        elif certificate == first[1]:
            first_path, _, first_at_rank = first
            automorphisms.append([first_at_rank[r] for r in ranks])
            return next(k for k, (a, b) in enumerate(zip(path, first_path)) if a != b)
        if certificate not in written:
            written[certificate] = write(graph, _ranks=ranks)
        return len(path)
    target = min((cell for cell in cells if len(cell[1]) > 1), key=lambda cell: cell[0])
    explored: list[int] = []
    orbit: list[int] = []
    covered = 0  # automorphisms that `orbit` was computed from
    for pick in sorted(target[1]):
        if explored and automorphisms:
            if covered != len(automorphisms):
                orbit, covered = _orbits(automorphisms, path), len(automorphisms)
            if any(orbit[pick] == orbit[done] for done in explored):
                continue
        explored.append(pick)
        child, child_of = _individualize(cells, cell_of, pick)
        _refine(adj, child, child_of, {j for _, j in adj[pick]})
        depth = _search(child, child_of, path + [pick], graph, adj, edges, first, automorphisms, written)
        if depth < len(path):
            return depth
    return len(path)


def canonicalize(graph: MoleculeGraph) -> str:
    """Atom-order-independent SMILES: same molecule, same string, byte for byte.

    Ranks come from iterative invariant refinement; remaining ties are broken
    by an individualization search that skips branches which are automorphic
    images of searched ones, keeping the smallest string over all orderings.
    Fragments are canonicalized independently and joined in sorted order.
    The search has no budget: the only exception raised is `UnwritableGraph`,
    from `write`.
    """
    if graph.n_atoms == 0:
        return ""
    components = graph.connected_components()
    if len(components) == 1:
        return _canonical_component(graph)
    return ".".join(sorted(_canonical_component(subgraph(graph, comp)) for comp in components))
