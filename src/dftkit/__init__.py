"""Transform-based audio toolkit.

Hand-rolled discrete Fourier transforms (a naive matrix-style path and
an iterative radix-2 fast path), spectrum and note analysis,
frequency-domain equalization, sine synthesis, and WAV file I/O.
"""

from . import analysis, equalizer, synth, transform, wavio
from .transform import *  # noqa: F403
from .analysis import *  # noqa: F403
from .equalizer import *  # noqa: F403
from .wavio import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *transform.__all__,
    *analysis.__all__,
    *equalizer.__all__,
    *wavio.__all__,
    *synth.__all__,
    "__version__",
]
