"""The oracle's physical swaps cut to the frames' magnetization blocks.

The oracle evolves the frames' 9- and 5-dim closures; the 15- and 20-dim
blocks of strings with two and three down spins stay in the tests as
larger real-symmetric stacks for ``expi`` and ``evolve``.
"""

import numpy as np

from exgates import oracle

# number of down spins (1 bits) of each basis string
DOWN_SPINS = np.array([bin(idx).count("1") for idx in range(oracle.DIM)])


def magnetization_block(down: int) -> np.ndarray:
    """Read-only (15, d, d) swap stack on the strings with ``down`` down spins."""
    on_block = DOWN_SPINS == down
    stack = oracle._swap_stack()[:, on_block][:, :, on_block]
    stack.setflags(write=False)
    return stack


# The SPIN1 frame's block (2 down spins, 15 dims) and the SPIN0 frame's (3, 20).
MAGNETIZATION_BLOCKS = [magnetization_block(2), magnetization_block(3)]
