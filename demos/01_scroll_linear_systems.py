"""Linear systems on rational normal scrolls
=============================================

Section counts, monomial supports and intersection numbers on
F(d1,...,dn), all in exact integer arithmetic.
"""

import signal

from fanobase import (
    DivisorClass,
    Scroll,
    canonical_class,
    fixed_component_multiplicity,
    h0,
    intersect,
    minimal_degree_data,
    monomial_support,
)

# exit quietly when the reader closes the pipe (| head), as shell tools do
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# The threefold scroll F(5,1,0): the anticanonical image of the m = 5
# double cover.  Its tautological class embeds it as a variety of
# minimal degree.
w = Scroll(5, 1, 0)
degree, ambient = minimal_degree_data(w)
print(f"{w!r}: degree {degree} in P{ambient}, codimension {ambient - w.rank} = degree - 1")

# Section counts are sums over fiberwise monomials.  The class (h, f)
# is h*O(1) + f*F, so O(4) - 8F is written (4, -8).
branch = DivisorClass(4, -8)
print(f"h0 of {branch} on {w!r} = {h0(w, branch)}")

# The support tells which monomials actually occur in the generic
# member; for O(1) - 5F only the top coordinate survives, so the system
# has a unique member B.
b = DivisorClass(1, -5)
print(f"support of {b}: {sorted(monomial_support(w, b), reverse=True)}")
print(f"h0 of {b} = {h0(w, b)} (a rigid surface)")

# B is a fixed component of the branch system: subtracting it once does
# not change the section count, subtracting it twice does.
chain = [h0(w, branch - i * b) for i in range(3)]
print(f"h0 chain of branch, branch - B, branch - 2B: {chain}")
print(f"forced multiplicity of B: {fixed_component_multiplicity(w, b, branch)}")

# Top intersection numbers follow from H^3 = delta H^2 F and F^2 = 0.
one = DivisorClass(1, 0)
print(f"(O(1))^3 = {intersect(w, [one, one, one])} (equals delta = {w.delta()})")
residual = branch - b
print(f"R.B.O(1) = {intersect(w, [residual, b, one])} (the residual misses B fiberwise)")

# The canonical class, the source of all double-cover bookkeeping.
print(f"canonical class of {w!r}: {canonical_class(w)}")
