"""Weighted Hilbert series meet Riemann-Roch
=============================================

The two weighted models in the classification, checked three ways:
Riemann-Roch counts, exact series expansion, and generator/relation
inference straight from the dimension sequence.
"""

import signal

from fanobase import WeightedCI, anticanonical_degree, hilbert_coeffs, infer_ring, rr_chi

# exit quietly when the reader closes the pipe (| head), as shell tools do
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# The degree-2 threefold: a complete intersection of a quadric and a
# sextic in P(1,1,1,1,2,3).  Riemann-Roch gives the anticanonical
# dimension counts directly from the degree.
print("chi(-kK) for degree 2: ", [rr_chi(2, k) for k in range(7)])

full = WeightedCI((1, 1, 1, 1, 2, 3), (2, 6))
print("Hilbert series of CI(2,6):", hilbert_coeffs(full, 6))

# The quadric relation cancels the degree-2 generator in the series, so
# the minimal model has weights (1,1,1,1,3) and a single sextic relation.
minimal = WeightedCI((1, 1, 1, 1, 3), (6,))
print("same series, minimal model:", hilbert_coeffs(minimal, 6))
print("inference from the sequence:", infer_ring(hilbert_coeffs(full, 12)))

# The sextic in P(1,1,1,2,3) behind the degree-4 case.  Its polarization
# H has H^3 = 1 and -K = 2H, hence anticanonical degree 8.
sextic = WeightedCI((1, 1, 1, 2, 3), (6,))
coeffs = hilbert_coeffs(sextic, 8)
print("sextic series:            ", coeffs)
print("closed form 1 + k(8+3k+k^2)/6:", [1 + k * (8 + 3 * k + k * k) // 6 for k in range(9)])
print("anticanonical degree of the sextic:", anticanonical_degree(sextic))

# Reading the anticanonical counts off the even part of the H-series
# reproduces Riemann-Roch for degree 8.
print("even part vs chi(-kK) at degree 8:")
print("  ", coeffs[::2])
print("  ", [rr_chi(8, k) for k in range(5)])

# Inference also recovers the sextic model from raw dimension counts.
print("inference:", infer_ring([1, 3, 7, 14, 25, 41, 63]))
