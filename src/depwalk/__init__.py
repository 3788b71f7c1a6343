"""Device dependency discovery from unidirectional IP flows.

The pipeline samples a directed communication multigraph from flow records,
explores it with time-constrained random walks, trains a skip-gram node
embedding on the resulting contexts, and classifies address pairs as
dependencies with a random forest.  An exhaustive enumeration over the raw
flows, held as int64 columns, provides ground truth, and directed local
similarity indices serve as a baseline for comparison.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DepwalkError

__all__ = ["ConfigError", "DepwalkError", "__version__"]
