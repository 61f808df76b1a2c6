"""The alphabet rule at every public entry that takes several words.

Each call below passes one operand over a foreign alphabet of the same rank
(so no letter code is out of range) and must raise ``AlphabetMismatch``
naming both alphabets: the one check in ``words`` decides it everywhere.
"""

import dataclasses

import pytest

from freefold.chain import build_chain, cross_conjugacy_scan, dehn_twist_family
from freefold.cosets import CosetAutomaton, double_coset_member, e0, e1, e2, e3
from freefold.graphs import fold_subgroup, is_basis_of_ambient
from freefold.whitehead import Automorphism, extends_to_basis, minimize_tuple
from freefold.words import (
    Alphabet,
    AlphabetMismatch,
    Word,
    centralizer_equal,
    commutator,
    conjugate,
    is_conjugate,
    multiply,
)

F = Alphabet.parse("x,y,z")
G = Alphabet.parse("p,q,r")
x, y, z = F.generators()
p = G.word("p q")

CASES = {
    "multiply": lambda: multiply(x, p),
    "conjugate": lambda: conjugate(x, p),
    "commutator": lambda: commutator(x, p),
    "is_conjugate": lambda: is_conjugate(x, p),
    "centralizer_equal": lambda: centralizer_equal(x, p),
    "fold_subgroup": lambda: fold_subgroup([x, p]),
    "fold_subgroup_alphabet": lambda: fold_subgroup([p], F),
    "is_basis_of_ambient": lambda: is_basis_of_ambient([x, y, p]),
    "contains": lambda: fold_subgroup([x]).contains(p),
    "express": lambda: fold_subgroup([x]).express(p),
    "automorphism_images": lambda: Automorphism(F, [x, y, p], [x, y, z]),
    "automorphism_inverse_images": lambda: Automorphism(F, [x, y, z], [p, y, z]),
    "apply": lambda: Automorphism.identity(F).apply(p),
    "minimize_tuple": lambda: minimize_tuple([x, p]),
    "extends_to_basis": lambda: extends_to_basis([x, p]),
    "coset_automaton": lambda: CosetAutomaton(x, p, y),
    "accepts": lambda: CosetAutomaton(x, z, y).accepts(p),
    "double_coset_member": lambda: double_coset_member(x, z, p, y),
    "e0": lambda: e0(x, p),
    "e1": lambda: e1(1, x, y, p, y),
    "e2": lambda: e2(1, x, y, x, p),
    "e3": lambda: e3(1, 1, x, y, z, x, y, p),
    "dehn_twist_family": lambda: dehn_twist_family(F, ["x", "y"], ["z"], [], p, 1),
    "cross_conjugacy_scan": lambda: cross_conjugacy_scan([x], [p], 2),
}


@pytest.mark.parametrize("name", CASES)
def test_a_foreign_operand_is_named(name):
    with pytest.raises(AlphabetMismatch) as info:
        CASES[name]()
    assert repr(F) in str(info.value) and repr(G) in str(info.value)


def test_a_foreign_chain_word_is_named():
    chain = build_chain(1)
    other = Alphabet([name + "_" for name in chain.alphabet.names])
    with pytest.raises(AlphabetMismatch) as info:
        dataclasses.replace(chain, d_n=Word(other, chain.d_n.letters))
    assert repr(chain.alphabet) in str(info.value) and repr(other) in str(info.value)
