"""The staircase of c_2: branches, breakpoints, and the three bounds.

For b = 2 the graph has the nonsqueezing plateau, two honest linear steps,
one zero-length step at a = 9, the affine step, and the volume tail.
"""

from fractions import Fraction

from sympstairs import cb_closed, folding_bound, step_geometry, volume_bound

b = 2
g = step_geometry(b)
print(f"breakpoints for b={b}:")
print("  u:", [str(u) for u in g.u])
print("  v:", [str(v) for v in g.v])
print("  alpha =", g.alpha, f"(~{float(g.alpha):.6f})")
print("  beta  =", g.beta, " v_plus =", g.v_plus)
print("  step lengths:", [str(l) for l in g.step_lengths])

print(f"\n{'a':>7} {'branch':>16} {'c_2(a)':>14} {'volume':>9} {'folding':>9}")
for i in range(4, 41):
    a = Fraction(i, 4)
    s = cb_closed(b, a)
    print(
        f"{str(a):>7} {s.branch:>16} {str(s.value):>14}"
        f" {float(volume_bound(b, a)):>9.5f} {float(folding_bound(b, a)):>9.5f}"
    )
