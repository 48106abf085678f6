"""Topic-based clustering and pruned search over encrypted keyword indexes.

The library API is the submodules (`cipherclust.crypto`, `.index`,
`.matrices`, `.clustering`, `.search`, `.evaluation`, `.config`, `.cli`).
This package imports none of them, so a process that only searches never
loads numpy.
"""

__version__ = "0.1.0"
