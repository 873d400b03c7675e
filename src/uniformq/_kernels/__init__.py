"""Word-size hot loops: integer matrix products, the modular Hessenberg
characteristic polynomial and modular rank, in pure Python (``pykernels``).
"""

from .pykernels import charpoly_mod, imat_mul, rank_mod  # noqa: F401
