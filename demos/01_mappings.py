"""
Set-valued mappings, images, and critical sets
==============================================

A walk through the basic calculus on finite set-valued mappings.
"""

from hallkernel import (
    FiniteMapping,
    complement,
    image_of_set,
    is_critical,
    is_non_reducible,
    residual,
)

# A mapping assigns each element of the domain a set of admissible values.
# Think of it as "who could take what": 1 and 2 can take values 1 or 2,
# while 3 could take anything.
F = FiniteMapping.from_dict({1: {1, 2}, 2: {1, 2}, 3: {1, 2, 3}})
print("F =", F)

# The image of a subset is the union of what its members can take.
print("F({1, 2}) =", sorted(image_of_set(F, {1, 2})))
print("F({1, 3}) =", sorted(image_of_set(F, {1, 3})))

# {1, 2} is *critical*: two elements, and together they reach exactly two
# values.  Whatever they end up taking, they will use up both.
print("{1, 2} critical?", is_critical(F, {1, 2}))
print("{3} critical?", is_critical(F, {3}))

# A non-reducible set contains no smaller critical set; singletons always
# qualify, and here so does {1, 2} itself.
print("{1, 2} non-reducible?", is_non_reducible(F, {1, 2}))

# The residual mapping answers: once {1, 2} has consumed everything it can
# reach, what is left for the others?  Only the value 3, for element 3.
print("residual after {1, 2}:", residual(F, {1, 2}))

# complement() is the general form: drop domain elements, strike values.
print("drop {1}, strike {1, 2}:", complement(F, {1}, {1, 2}))
