#!/usr/bin/env python3
"""Folded subgroup graphs: membership, rank, basis extraction."""

from freefold import Alphabet, fold_subgroup, is_basis_of_ambient

F = Alphabet.parse("a,b")
w = F.word

print("== folding <a^2, b> ==")
graph = fold_subgroup([w("a^2"), w("b")])
print(graph)
print(graph.serialize())
for probe in ("a^2", "a", "b a^2 b^-1", "a b a"):
    print(f"contains {probe!r}?", graph.contains(w(probe)))

print()
print("== basis from a spanning tree ==")
messy = fold_subgroup([w("a b a^-1"), w("a b^2 a^-1"), w("a^3")])
print("generators:", [str(g) for g in messy.generators_of])
print("rank:", messy.rank(), " basis:", [str(x) for x in messy.basis()])

print()
print("== recognizing bases of the ambient group ==")
for cand in (["a", "b"], ["a b", "b"], ["a^2", "b"]):
    words = [w(t) for t in cand]
    print(cand, "->", is_basis_of_ambient(words))
