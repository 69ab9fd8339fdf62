"""Seeded net families and their closed-form reference matrices.

Stdlib only: nothing here imports coplaces, so the references that outputs
are checked against do not come from the code under test.

Every family is a set of independent safe components, each holding one
token. A place has a key (component, position): two copies of one position
(a place and its duplicate) are always marked together, distinct positions
of a component never are, and places of different components are always
concurrent. Every place is live. `reference_matrix` renders exactly that
relation in the `coplaces` matrix text format.

The seed renames places and transitions and shuffles their declaration
order; it never changes the shape, so counts such as reachable states,
equations or cell writes are the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Component:
    """One component: a position per local place, and arcs between local
    places. Local place 0 holds the token."""

    positions: list[int] = field(default_factory=list)
    arcs: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)

    def place(self, position: int) -> int:
        self.positions.append(position)
        return len(self.positions) - 1

    def arc(self, pre, post) -> None:
        self.arcs.append((tuple(pre), tuple(post)))


@dataclass
class Net:
    """A rendered net: declaration-ordered names plus the reference keys."""

    places: list[str]
    keys: list[tuple[int, int]]          # (component, position) per place
    marked: set[str]
    transitions: list[tuple[str, tuple[str, ...], tuple[str, ...]]]
    names: list[list[str]]               # per component, by local index


# -- component shapes ----------------------------------------------------------

def chain(n: int) -> Component:
    """A closed chain of n places passing one token around."""
    comp = Component()
    for i in range(n):
        comp.place(i)
    for i in range(n):
        comp.arc([i], [(i + 1) % n])
    return comp


def cycle_with_duplicate() -> Component:
    """x -> y -> z -> x, with y' a duplicate of y."""
    comp = Component()
    x, y, z, y2 = comp.place(0), comp.place(1), comp.place(2), comp.place(1)
    comp.arc([x], [y, y2])
    comp.arc([y, y2], [z])
    comp.arc([z], [x])
    return comp


def choice_with_duplicate() -> Component:
    """a -> b, a -> c, b -> a, c -> a, with b' a duplicate of b."""
    comp = Component()
    a, b, c, b2 = comp.place(0), comp.place(1), comp.place(2), comp.place(1)
    comp.arc([a], [b, b2])
    comp.arc([a], [c])
    comp.arc([b, b2], [a])
    comp.arc([c], [a])
    return comp


def expanded_choice(length: int) -> Component:
    """The choice a/b/c with b stretched into a chain of `length` places.

    Local places: 0 is a, 1 is c, then b_i at 2 + 2i and its duplicate
    d_i at 3 + 2i.
    """
    comp = Component()
    a, c = comp.place(0), comp.place(1)
    chain_places = []
    for i in range(length):
        chain_places.append((comp.place(2 + i), comp.place(2 + i)))
    comp.arc([a], chain_places[0])
    for here, there in zip(chain_places, chain_places[1:]):
        comp.arc(here, there)
    comp.arc(chain_places[-1], [a])
    comp.arc([a], [c])
    comp.arc([c], [a])
    return comp


# -- rendering -----------------------------------------------------------------

def fresh_names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """Seeded, distinct identifiers with a fixed prefix.

    Numbers are zero-padded to one width, so the byte size of every file
    and output is the same for every seed.
    """
    span = 10 * count + 10
    width = len(str(span - 1))
    return [f"{prefix}{k:0{width}d}" for k in rng.sample(range(span), count)]


def render(components: list[Component], rng: random.Random) -> Net:
    """Name places and transitions from `rng` and shuffle both orders."""
    total = sum(len(c.positions) for c in components)
    arcs = sum(len(c.arcs) for c in components)
    place_names = fresh_names(rng, "p", total)
    transition_names = fresh_names(rng, "t", arcs)
    names: list[list[str]] = []
    keyed: list[tuple[str, tuple[int, int]]] = []
    marked: set[str] = set()
    transitions = []
    k = t = 0
    for ci, comp in enumerate(components):
        local = []
        for position in comp.positions:
            local.append(place_names[k])
            keyed.append((place_names[k], (ci, position)))
            k += 1
        names.append(local)
        marked.add(local[0])
        for pre, post in comp.arcs:
            transitions.append((transition_names[t],
                                tuple(local[i] for i in pre),
                                tuple(local[i] for i in post)))
            t += 1
    rng.shuffle(keyed)
    rng.shuffle(transitions)
    return Net([name for name, _ in keyed], [key for _, key in keyed],
               marked, transitions, names)


def net_text(net: Net) -> str:
    lines = [f"pl {p} 1" if p in net.marked else f"pl {p}" for p in net.places]
    lines += [" ".join(["tr", t, ":", *pre, "->", *post])
              for t, pre, post in net.transitions]
    return "\n".join(lines) + "\n"


def net_pnml(net: Net, ident: str) -> str:
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">',
           f'<net id="{ident}" type="http://www.pnml.org/version-2009/grammar/ptnet">',
           '<page id="page0">']
    for p in net.places:
        if p in net.marked:
            out.append(f'<place id="{p}"><initialMarking><text>1</text>'
                       f'</initialMarking></place>')
        else:
            out.append(f'<place id="{p}"/>')
    for t, _, _ in net.transitions:
        out.append(f'<transition id="{t}"/>')
    for t, pre, post in net.transitions:
        out.extend(f'<arc id="{p}.{t}" source="{p}" target="{t}"/>' for p in pre)
        out.extend(f'<arc id="{t}.{p}" source="{t}" target="{p}"/>' for p in post)
    out += ['</page>', '</net>', '</pnml>']
    return "\n".join(out) + "\n"


# -- references ----------------------------------------------------------------

def reference_matrix(places: list[str], keys: list[tuple[int, int]]) -> str:
    """The closed-form relation over `keys`, in the plain `coplaces`
    matrix text format."""
    earlier: dict[int, list[int]] = {}
    rows = []
    for i, (comp, position) in enumerate(keys):
        row = bytearray(b"1" * (i + 1))
        mates = earlier.setdefault(comp, [])
        for j in mates:
            if keys[j][1] != position:
                row[j] = 0x30            # '0'
        mates.append(i)
        rows.append(row.decode("ascii"))
    return "\n".join([str(len(places)), *places, *rows]) + "\n"


def blank_cells(matrix_text: str, n: int, chosen: set[tuple[int, int]]) -> str:
    """Replace the cells at `chosen` (row, column) of a plain matrix by '.'."""
    lines = matrix_text.split("\n")
    for i, j in chosen:
        row = lines[1 + n + i]
        lines[1 + n + i] = row[:j] + "." + row[j + 1:]
    return "\n".join(lines)


# -- external reductions --------------------------------------------------------

def expansion_residual(n1: Net, rng: random.Random) -> Net:
    """The residual of `expanded_choice` components: a -> B -> a, a -> c -> a.

    a and c keep their names from `n1`; each B is a fresh place.
    """
    k = len(n1.names)
    fresh_places = fresh_names(rng, "q", k)
    fresh_transitions = fresh_names(rng, "u", 4 * k)
    keyed, marked, transitions, names = [], set(), [], []
    for comp, local in enumerate(n1.names):
        a, c, big_b = local[0], local[1], fresh_places[comp]
        keyed += [(a, (comp, 0)), (c, (comp, 1)), (big_b, (comp, 2))]
        marked.add(a)
        names.append([a, big_b, c])
        for j, (pre, post) in enumerate(((a, big_b), (big_b, a), (a, c), (c, a))):
            transitions.append((fresh_transitions[4 * comp + j], (pre,), (post,)))
    rng.shuffle(keyed)
    rng.shuffle(transitions)
    return Net([name for name, _ in keyed], [key for _, key in keyed],
               marked, transitions, names)


def expansion_equations(n1: Net, n2: Net, deep: list[bool], length: int,
                        rng: random.Random) -> str:
    """The equation trail from `expanded_choice` components to their residual.

    Each duplicate d_i gets ``R |- d_i = b_i``. A wide component then has
    ``A |- B = b_0 + ... + b_L-1``; a deep one a pairwise chain through
    fresh names, ``A |- x1 = b_0 + b_1``, ``A |- x2 = x1 + b_2`` and so on
    up to B, which is the shape the built-in reducer emits.
    """
    fresh = fresh_names(rng, "x", sum(deep) * length)
    k = 0
    r_lines, a_lines = [], []
    for comp, is_deep in enumerate(deep):
        local, big_b = n1.names[comp], n2.names[comp][1]
        chain_places = [local[2 + 2 * i] for i in range(length)]
        for i, b in enumerate(chain_places):
            r_lines.append(f"# R |- {local[3 + 2 * i]} = {b}")
        if not is_deep:
            a_lines.append(f"# A |- {big_b} = {' + '.join(chain_places)}")
            continue
        acc = chain_places[0]
        for i, b in enumerate(chain_places[1:], start=1):
            head = big_b if i == length - 1 else fresh[k]
            k += 1
            a_lines.append(f"# A |- {head} = {acc} + {b}")
            acc = head
    return "\n".join(r_lines + a_lines) + "\n"
