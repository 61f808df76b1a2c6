"""A digest of seeded answers from the decision layer.

Every answer, and the type of every exception, that the free-group
decisions give on a fixed seeded sample is hashed into one SHA-256 value.
A refactor of a shared kernel (free reduction at a junction, the alphabet
check, the fold) must leave the value unchanged.  Exception messages are
left out on purpose: only the decision is pinned.
"""

import hashlib
import json
import random

from freefold.cosets import double_coset_member, e0, e1, e2, e3
from freefold.graphs import fold_subgroup, is_basis_of_ambient
from freefold.whitehead import (
    Automorphism,
    BudgetExhausted,
    extends_to_basis,
    is_primitive,
    minimize_tuple,
)
from freefold.words import (
    Alphabet,
    CyclicWord,
    Word,
    centralizer_equal,
    commutator,
    conjugate,
    cyclic_normal_form,
    invert,
    is_conjugate,
    multiply,
    root,
)
from helpers import random_word

DECIDE_DIGEST = "13545eb2941a417230c931a94140b6772b020928f202a8434968db3943594931"


def _plain(x):
    """A JSON-ready form of an answer."""
    if isinstance(x, Word):
        return str(x)
    if isinstance(x, CyclicWord):
        return [str(x.canonical), str(x.conjugator)]
    if isinstance(x, Automorphism):
        return [str(w) for w in x.images]
    if isinstance(x, dict):
        return sorted(x.items())
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    return x


def _answer(f, *args):
    try:
        return ["ok", _plain(f(*args))]
    except (ValueError, BudgetExhausted) as exc:
        return ["raise", type(exc).__name__]


def _graph_answers(gens, probes, alphabet=None):
    graph = fold_subgroup(gens, alphabet)
    return [graph.steps, graph.basis(), [graph.contains(w) for w in probes],
            [graph.express(w) for w in probes]]


def _nielsen_image(rng, alphabet, steps):
    """The basis after ``steps`` random Nielsen moves, so a basis of the
    ambient group whose entries are primitive."""
    basis = alphabet.generators()
    for _ in range(steps):
        i, j = rng.sample(range(alphabet.rank), 2)
        other = basis[j] if rng.random() < 0.5 else invert(basis[j])
        basis[i] = multiply(basis[i], other) if rng.random() < 0.5 else multiply(other, basis[i])
    return basis


def _rows(seed, alphabet, rounds):
    rng = random.Random(seed)
    rows = []
    for _ in range(rounds):
        x, y, z, g = (random_word(rng, alphabet, 6) for _ in range(4))
        k, m = rng.randint(-3, 3), rng.randint(1, 3)
        rx = root(x)[0] if x else x
        ry = root(y)[0] if y else y
        # words
        rows.append(["words", _answer(multiply, x, y), _answer(conjugate, x, g),
                     _answer(commutator, x, y), _answer(root, x),
                     _answer(cyclic_normal_form, conjugate(x, g)),
                     _answer(is_conjugate, x, y), _answer(is_conjugate, x, conjugate(x, g)),
                     _answer(centralizer_equal, x, y), _answer(centralizer_equal, x, rx ** k)])
        # the basic relations, with members and near misses
        x2 = invert(rx) ** m if rx else rx
        y2 = multiply(y, rx ** (m * k))
        rows.append(["e", _answer(e0, x, conjugate(x, g)), _answer(e0, x, y),
                     _answer(e1, m, x, y, x2, y2), _answer(e1, m + 1, x, y, x2, y2),
                     _answer(e1, m, x, y, x2, z),
                     _answer(e2, m, x, y, x2, multiply(rx ** (m * k), y)),
                     _answer(e2, m, x, y, x2, y2)])
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        member = multiply(multiply(rx ** (p * a), z), ry ** (q * b))
        rows.append(["e3", _answer(e3, p, q, x, y, member, x2, ry, z),
                     _answer(e3, p, q, x, y, g, x2, ry, z),
                     _answer(e3, p + 1, q, x, y, member, x2, ry, z),
                     _answer(double_coset_member, x, z, y, multiply(multiply(x ** a, z), y ** b)),
                     _answer(double_coset_member, x, z, y, g)])
        # folds and bases
        gens = [random_word(rng, alphabet, 5) for _ in range(rng.randint(0, 3))]
        probes = [g, multiply(gens[0], invert(gens[-1])) if gens else g]
        rows.append(["fold", _answer(_graph_answers, gens, probes, alphabet),
                     _answer(_graph_answers, gens, probes),
                     _answer(is_basis_of_ambient, gens, alphabet)])
        basis = _nielsen_image(rng, alphabet, rng.randint(0, 4))
        rows.append(["basis", _answer(is_basis_of_ambient, basis),
                     _answer(is_basis_of_ambient, basis[:-1] + [x]),
                     _answer(_graph_answers, basis, probes)])
        # Whitehead descent
        rows.append(["whitehead", _answer(is_primitive, basis[0]), _answer(is_primitive, x),
                     _answer(is_primitive, x, 3),
                     _answer(minimize_tuple, [x, y]), _answer(minimize_tuple, basis),
                     _answer(extends_to_basis, [conjugate(basis[0], g)]),
                     _answer(extends_to_basis, basis[:2]), _answer(extends_to_basis, [x, y])])
    return rows


def test_decide_answers_keep_their_digest():
    h = hashlib.sha256()
    for seed, names in ((1, "a,b"), (2, "a,b,c"), (3, "x,y,z,w")):
        rows = _rows(seed, Alphabet.parse(names), 40)
        h.update(json.dumps([seed, names, rows], sort_keys=True).encode())
    assert h.hexdigest() == DECIDE_DIGEST
