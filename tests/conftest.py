"""Shared fixtures: hand nets, the worked-example files, random corpora."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from coplaces.errors import NotSafe
from coplaces.formats import NetDocument, load_net, parse_net_text
from coplaces.ptnet import PetriNet, explore_reachable
from coplaces.tfg import (ConstantNode, Equation, EquationSystem,
                          build_tfg, parse_equation_system)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixture_path():
    return lambda name: str(FIXTURES / name)


@pytest.fixture
def seq2():
    return parse_net_text("pl a 1\npl b\ntr t : a -> b\n")


@pytest.fixture
def fork():
    return parse_net_text("pl p0 1\npl p1\npl p2\ntr t : p0 -> p1 p2\n")


@pytest.fixture
def m1_doc():
    return load_net(FIXTURES / "m1.net")


@pytest.fixture
def m2_doc():
    return load_net(FIXTURES / "m2.net")


@pytest.fixture
def fig_equations():
    return parse_equation_system((FIXTURES / "m1.eq").read_text())


@pytest.fixture
def fig_tfg(m1_doc, m2_doc, fig_equations):
    return build_tfg(fig_equations, m1_doc.net.places, m2_doc.net.places)


# -- random net corpus -------------------------------------------------------

def _random_net_doc(rng: random.Random) -> NetDocument:
    n_places = rng.randint(1, 6)
    places = [f"p{i}" for i in range(n_places)]
    transitions = []
    pre: dict[str, dict[str, int]] = {}
    post: dict[str, dict[str, int]] = {}
    for k in range(rng.randint(0, 6)):
        t = f"t{k}"
        transitions.append(t)
        ins = rng.sample(places, k=min(n_places, rng.randint(1, 2)))
        outs = rng.sample(places, k=min(n_places, rng.randint(0, 2)))
        pre[t] = {p: 1 for p in ins}
        post[t] = {p: 1 for p in outs}
    marking = {p: 1 for p in places if rng.random() < 0.4}

    # make the three reduction rules reachable: clone a place, add an
    # isolated place, extend a consumer-free place into a fresh chain
    if rng.random() < 0.4 and places:
        source = rng.choice(places)
        clone = f"d{len(places)}"
        for t in transitions:
            if source in pre[t]:
                pre[t][clone] = pre[t][source]
            if source in post[t]:
                post[t][clone] = post[t][source]
        places.append(clone)
        if source in marking:
            marking[clone] = marking[source]
    if rng.random() < 0.4:
        lone = f"c{len(places)}"
        places.append(lone)
        if rng.random() < 0.5:
            marking[lone] = 1
    if rng.random() < 0.5:
        free = [p for p in places
                if not any(pre[t].get(p) for t in transitions)]
        if free:
            head = rng.choice(free)
            tail = f"q{len(places)}"
            t = f"t{len(transitions)}"
            places.append(tail)
            transitions.append(t)
            pre[t] = {head: 1}
            post[t] = {tail: 1}

    net = PetriNet(places, transitions, pre, post)
    return NetDocument(net, net.make_marking(marking))


def _safe_net_corpus(seed: int, count: int) -> list[NetDocument]:
    rng = random.Random(seed)
    docs = []
    while len(docs) < count:
        doc = _random_net_doc(rng)
        try:
            result = explore_reachable(doc.net, doc.initial, cap=5000)
        except NotSafe:
            continue
        if not result.truncated:
            docs.append(doc)
    return docs


@pytest.fixture(scope="session")
def safe_net_corpus():
    """Factory for deterministic corpora of randomized safe nets."""
    return _safe_net_corpus


# -- random token flow graphs and configurations -----------------------------

def _random_system(rng: random.Random):
    """A random well-formed equation system with its initial and residual
    places, as `build_tfg` takes them."""
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"n{counter}"

    available = [fresh() for _ in range(rng.randint(1, 3))]
    equations: list[Equation] = []
    a_heads: set[str] = set()
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.5:
            members = tuple(fresh() for _ in range(rng.randint(2, 3)))
            if rng.random() < 0.15:
                equations.append(Equation("A", rng.randint(0, 1), members))
            else:
                candidates = [n for n in available if n not in a_heads]
                if not candidates:
                    continue
                head = rng.choice(candidates)
                a_heads.add(head)
                equations.append(Equation("A", head, members))
            available.extend(members)
        else:
            head = fresh()
            if rng.random() < 0.2:
                equations.append(Equation("R", head, (rng.randint(0, 1),)))
            else:
                members = tuple(rng.sample(available,
                                           rng.randint(1, min(3, len(available)))))
                equations.append(Equation("R", head, members))
            available.append(head)

    system = EquationSystem(equations)
    removed = {n for eq in system for n in eq.removed() if isinstance(n, str)}
    # residual places are the never-removed names; initial places are
    # everything except the inserted (removed agglomeration head) names
    invented = {h for h in a_heads if h in removed}
    p1 = sorted(system.variables - invented)
    p2 = sorted(system.variables - removed)
    return system, p1, p2


def _random_tfg(rng: random.Random):
    return build_tfg(*_random_system(rng))


def _compose(rng: random.Random, total: int, buckets: int) -> list[int]:
    shares = [0] * buckets
    for _ in range(total):
        shares[rng.randrange(buckets)] += 1
    return shares


def _random_total_config(rng, tfg, root_values=None, safe=False):
    """Flow random root values down the graph; well-defined by construction."""
    values: dict = {}

    def value_of(node):
        return node.value if isinstance(node, ConstantNode) else values[node]

    for node in tfg.topo:
        if not isinstance(node, ConstantNode) and node not in values:
            r_groups = [g for g in tfg.head_groups_of.get(node, ())
                        if g.tag == "R"]
            if r_groups:
                values[node] = sum(value_of(m) for m in r_groups[0].members)
            elif root_values is not None:
                values[node] = root_values[node]
            else:
                values[node] = rng.randint(0, 1) if safe else rng.randint(0, 3)
        members = tfg.a_group_of.get(node)
        if members:
            for member, share in zip(members,
                                     _compose(rng, value_of(node), len(members))):
                values[member] = share
    return values


def _blankable_components(tfg):
    """Weakly connected arc components that contain no constant node."""
    neighbours: dict = {v: set() for v in tfg.nodes}
    for src in tfg.nodes:
        for dst in tfg.out_children(src):
            neighbours[src].add(dst)
            neighbours[dst].add(src)
    seen: set = set()
    components = []
    for start in tfg.nodes:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            for nxt in neighbours[frontier.pop()]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seen |= component
        if not any(isinstance(n, ConstantNode) for n in component):
            components.append(component)
    return components


@pytest.fixture(scope="session")
def tfg_corpus():
    """Factory for deterministic random well-formed token flow graphs."""
    def make(seed: int, count: int):
        rng = random.Random(seed)
        return [_random_tfg(rng) for _ in range(count)]
    return make


@pytest.fixture(scope="session")
def system_corpus():
    """Factory for deterministic random well-formed equation systems, each
    with its initial and residual places."""
    def make(seed: int, count: int):
        rng = random.Random(seed)
        return [_random_system(rng) for _ in range(count)]
    return make


@pytest.fixture(scope="session")
def config_factory():
    """Factory building random well-defined (total or partial) configurations."""
    def make(rng, tfg, root_values=None, safe=False, partial_chance=0.0):
        values = _random_total_config(rng, tfg, root_values, safe)
        if partial_chance and rng.random() < partial_chance:
            for component in _blankable_components(tfg):
                if rng.random() < 0.5:
                    for node in component:
                        values.pop(node, None)
        from coplaces.tfg import Configuration
        return Configuration(values)
    return make
