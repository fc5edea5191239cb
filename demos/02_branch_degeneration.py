"""Why the double-cover family stops at m = 12
===============================================

The anticanonical double cover of F(m, m-4, 0) is branched along a
divisor in O(4) - (4m-12)F.  Fiberwise the branch is a plane quartic:
a line (the rigid surface B) plus a cubic.  As m grows the cubic is
forced into ever more special position against the line, and from
m = 13 on the quartic degenerates to four concurrent lines, whose
double cover is no longer canonical.  The necessary condition is a
simple support computation: the multiplicity of the generic member at
the distinguished fiber point must stay <= 3.
"""

import signal

from fanobase import analyze_cover

# exit quietly when the reader closes the pipe (| head), as shell tools do
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

print(f"{'m':>3} {'base':<12} {'branch':<9} {'B forced':>8} {'fiber mult':>10}  verdict")
for m in range(3, 17):
    r = analyze_cover(m)
    print(
        f"{m:>3} {r.base!r:<12} {str(r.spec.branch):<9} {r.b_mult:>8} {r.fiber_mult:>10}  "
        f"{r.verdict.value}"
    )

print()
print("fiber multiplicity 4 = four lines through a point; the family of")
print("canonical double covers is exactly 3 <= m <= 12, matching the")
print("degree range 4 <= 2m - 2 <= 22 of the cone cases in the table.")
print()
print("note the m = 3 line: B is rigid there too, but the branch system")
print("O(4) is big enough that its generic member avoids B entirely, so")
print("nothing is forced and the cover can even be chosen smooth.")
