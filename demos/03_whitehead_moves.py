#!/usr/bin/env python3
"""Whitehead moves: length descent, primitivity, basis extension."""

from freefold import Alphabet, extends_to_basis, is_basis_of_ambient, is_primitive, minimize_tuple

F2 = Alphabet.parse("a,b")
w = F2.word

print("== descent ==")
for text in ("a b a^-1", "a a b", "a b a^-1 b^-1"):
    minimal, moves = minimize_tuple([w(text)])
    print(f"{text!r} minimizes to {[str(x) for x in minimal]} in {len(moves)} moves")

print()
print("== primitivity ==")
for text in ("a", "a a b", "a^4 b", "a b a^-1 b^-1", "a^2"):
    print(f"is_primitive({text!r}) =", is_primitive(w(text)))

print()
print("== tuples of conjugacy classes extending to a basis ==")
F3 = Alphabet.parse("a0,b0,c0")
d0 = F3.word("c0^-1 b0 a0 b0^-1 a0^-1")
print("(a0, b0)      ->", extends_to_basis([F3.word("a0"), F3.word("b0")]))
print("(c0, d0)      ->", extends_to_basis([F3.word("c0"), d0]))
print("   the two boundary words of one surface piece never join a basis")
pair = [w("b a b^-1"), w("a b a^-1")]
print("(b a b^-1, a b a^-1) as classes  ->", extends_to_basis(pair))
print("(b a b^-1, a b a^-1) as elements ->", is_basis_of_ambient(pair))
print("   the classes of b and a form a basis; the two elements do not")
