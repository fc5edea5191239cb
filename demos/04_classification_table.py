"""The classification table, assembled and re-verified
=======================================================

The thirteen pairs (threefold, image surface) with non-empty
anticanonical base locus: one point case, two ruled-image cases, and
the ten cone cases.  Every degree, splitting type and lattice identity
in the table is recomputed from scratch by the calculus modules.
"""

import signal

from fanobase import PruneKind, case_checks, enumerate_cases, prune

# exit quietly when the reader closes the pipe (| head), as shell tools do
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Pruning the splitting types (a, b) of the normal bundle of the base
# curve: three families survive.
print("surviving splitting types on the grid -2 <= b <= a <= 12:")
for b in range(-2, 13):
    for a in range(b, 13):
        verdict = prune(a, b)
        if verdict.kind is not PruneKind.EXCLUDED:
            print(f"  (a, b) = ({a}, {b}): {verdict.kind.value}")

print()
print(f"{'case':<9} {'m':>2} {'degree':>6} {'bs':>3} {'W':<9} construction")
for case in enumerate_cases():
    print(
        f"{case.label:<9} {case.m:>2} {case.degree:>6} {case.bs_dim:>3} "
        f"{case.w:<9} {case.construction}"
    )

print()
total = 0
for case in enumerate_cases():
    checks = case_checks(case)
    failed = [c for c in checks if not c.passed]
    total += len(checks)
    status = "ok" if not failed else f"FAILED {[c.name for c in failed]}"
    print(f"{case.label:<9} {len(checks):>3} checks {status}")
print(f"re-verified {total} numerical claims")
