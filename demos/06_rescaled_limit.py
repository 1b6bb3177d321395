"""The rescaled limit: a staircase of width-2 steps appears as b grows.

chat_b(a) = 2b*c_b(a+2b) - 2b increases pointwise to c_infty(a), the
infinite staircase based at the line a/2.
"""

from fractions import Fraction

from sympstairs import c_infty, rescaled_chat

print(f"{'a':>5} {'c_inf':>7}" + "".join(f"  chat_b, b={b:>4}" for b in (10, 50, 500)))
for j in range(0, 21):
    a = Fraction(j, 2)
    row = f"{str(a):>5} {float(c_infty(a)):>7.4f}"
    for b in (10, 50, 500):
        row += f"  {float(rescaled_chat(b, a)):>12.4f}"
    print(row)

print("\nthe gap at a = 7:")
for b in (10, 20, 50, 100, 200, 500, 1000):
    gap = c_infty(7) - rescaled_chat(b, 7)
    print(f"   b = {b:>4}: c_inf - chat_b = {float(gap):.6f}")
