"""Re-exports the benchmark's traced mode binds by name.

``perfbench/spans.py`` (``BY_NAME``) wraps these array kernels under
this module's name, and its ``install()`` fails when a name is gone or
is not the defining module's object.  The module holds nothing else.
"""

from repro.core.fleet import fold_segment_sums  # noqa: F401
from repro.power.budget import allocate_level  # noqa: F401
from repro.thermal.model import temperature_step_arrays  # noqa: F401
