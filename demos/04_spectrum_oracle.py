#!/usr/bin/env python3
"""The brute-force oracle: exact Hamiltonian spectra by enumeration.

Every claim in this library can be checked against plain enumeration —
(n-1)!/2 circles with the first vertex pinned and reflections removed.
The path labels of a K4, read from each of its four starts, show the
parity structure that drives the all-distinct analysis: per-label path
counts are always even there.
"""

from doublesign import (
    ELEMENTS,
    gen_random,
    hamiltonian_paths_spectrum,
    hamiltonian_spectrum,
    named_instance,
    triangle_census,
)

g = named_instance("share_vertex_k4")
spec = hamiltonian_spectrum(g, witnesses=True)
print("share_vertex_k4 spectrum over its 3 circles:")
for s, count in spec.counts.items():
    mark = f" witness {spec.witnesses[s].vertices}" if s in (spec.witnesses or {}) else ""
    print(f"  {s.render()}: {count}{mark}")

per_start = {v: hamiltonian_paths_spectrum(g, v) for v in g.vertices()}
# each of the 12 paths is seen from both of its ends
ends = [s for ms in per_start.values() for s in ms]
print("12 Hamiltonian paths by label:", {s.render(): ends.count(s) // 2 for s in ELEMENTS})
print("  (all even, and the triple's label never appears)")
print("paths from vertex 1:", [s.render() for s in per_start[1]])
print("multiset from vertex 2:", [s.render() for s in per_start[2]])

print()
for seed in (0, 3):
    g7 = gen_random(7, seed)
    census = triangle_census(g7)
    spec = hamiltonian_spectrum(g7)
    print(
        f"random n=7 seed {seed}: diversity {census.diversity}, "
        f"spectrum {{ {', '.join(s.render() for s in sorted(spec.realized))} }} "
        f"over {spec.total} circles"
    )
