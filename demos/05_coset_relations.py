#!/usr/bin/env python3
"""The basic equivalence relations and complete double-coset membership."""

from freefold import Alphabet, double_coset_member, e0, e1, e2, e3
from freefold.cosets import double_coset_member_bounded

F = Alphabet.parse("a,b")
w = F.word

print("== conjugacy (e0) and cyclic-coset relations (e1, e2) ==")
print("e0(ab, ba)                 ->", e0(w("a b"), w("b a")))
print("e1(m=2): b vs b a^4        ->", e1(2, w("a"), w("b"), w("a"), w("b a^4")))
print("e1(m=2): b vs b a^3        ->", e1(2, w("a"), w("b"), w("a"), w("b a^3")))
print("e2(m=1): C(a)=C(a^2), t=a^5->", e2(1, w("a"), w("b"), w("a^2"), w("a^5 b")))

print()
print("== double cosets: why bounded search is not enough ==")
RS = Alphabet.parse("r,s")
u, mid = RS.word("r"), RS.word("s")
v = RS.word("s^-1 r^-1 s")
print("the family u^a s v^b collapses to r^(a-b) s, so membership of r^20 s")
print("needs exponents far beyond any fixed bound:")
z = RS.word("r^20 s")
print("  bounded search |a|,|b| <= 6:", double_coset_member_bounded(u, mid, v, z, 6))
print("  folded-graph reading:       ", double_coset_member(u, mid, v, z))

print()
print("== e3 ties it together ==")
print("z = a^2 b^3 vs z' = 1:", e3(1, 1, w("a"), w("b"), w("a^2 b^3"),
                                   w("a"), w("b"), w("1")))
print("z = a b a   vs z' = 1:", e3(1, 1, w("a"), w("b"), w("a b a"),
                                   w("a"), w("b"), w("1")))
