"""Classical ensembles in scratched potentials.

Builds, for a quantum system H = p^2/2m + U(q), a classical ensemble moving
in a potential modified only along measure-zero curves ("scratches") whose
region-occupation statistics reproduce the quantum position and momentum
probabilities within an explicit bound.
"""

# numpy imports these on first use; a pipeline run should not pay for that
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

__version__ = "0.1.0"
