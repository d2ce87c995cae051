"""
The alldifferent kernel
=======================

Which values can actually be used?  A value survives into the kernel exactly
when some injective selection passes through it.  The kernel falls straight
out of the Hall partition, and the brute-force oracle double-checks it here
by enumerating every selection.
"""

from hallkernel import (
    FiniteMapping,
    alldifferent_kernel,
    extract_selection,
    has_unique_selection,
    is_alldifferent,
)
from hallkernel.oracle import enumerate_selections, oracle_kernel

F = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}, 3: {1, 2, 3}})

# Elements 1 and 2 will always use up values 1 and 2 between them, so
# element 3 can never take those: its kernel image shrinks to {3}.
kern = alldifferent_kernel(F)
print("kernel:", {x: sorted(img) for x, img in kern.images_by_label().items()})

# The oracle agrees, by sheer enumeration.
print("all selections:", [s.values for s in enumerate_selections(F)])
print("oracle kernel matches?", oracle_kernel(F) == kern)

# F is not alldifferent: the kernel lost the pair (3, 1) and (3, 2).
print("F alldifferent?", is_alldifferent(F))

# Forcing chains: every image nested inside the next pins a unique selection.
chain = FiniteMapping.from_dict({1: {1}, 2: {1, 2}, 3: {1, 2, 3}})
print("chain has a unique selection?", has_unique_selection(chain))
print("the selection:", extract_selection(chain).as_dict())

# The extracted selection is the least one: each element in turn takes the
# least value that still extends to a whole selection, which is also the
# first selection the oracle enumerates.
print("least selection:       ", extract_selection(F).as_dict())
print("oracle's first?        ", extract_selection(F) == enumerate_selections(F)[0])
