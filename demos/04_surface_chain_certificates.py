#!/usr/bin/env python3
"""Build the glued-surface witness groups and run every certificate."""

from freefold import build_chain, run_checks, verify_surface_rewrite

N = 4
chain = build_chain(N)
print(f"== the depth-{N} chain over {','.join(chain.alphabet.names)} ==")
for i in range(N + 1):
    print(f"c{i} = {chain.c[i]}")

print()
print("== certificates ==")
reports, _ = run_checks(chain, "all", max_len=4)
for r in sorted(reports, key=lambda r: r.check):
    print(f"{r.status:>6}  {r.check}  {r.params}")

print()
print("== fault injection: the wrong gluing direction is caught ==")
bad = build_chain(2, inverted_stable_letters=True)
report = verify_surface_rewrite(bad)
print(report.status, "->", report.witnesses[0][:72], "...")
