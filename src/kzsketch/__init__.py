"""kzsketch: bit-exact epsilon-sketches for Euclidean (k,z)-clustering.

Compression side: quantize a weighted coreset relative to approximate
centers into a sketch whose cost answers stay within (1 +- eps) of the
exact clustering cost, with exact bit accounting. Hard-instance side:
principal angles, partial colorings, adversarial centers and
grid-rounded instances that no smaller sketch could distinguish.
"""

from .anglelab import (InnerProductMatrix, OrthonormalBasis, PrincipalAngles,
                       angle_statistics, principal_angles, row_norm_profile,
                       sample_haar_basis)
from .codec import BitLedger, Sketch, compress, encode, theoretical_upper_bound
from .coloring import (PartialColoring, SeparationWitness, adversarial_center,
                       center_for_power, cost_gap, find_partial_coloring,
                       round_and_scale, separation_witness)
from .coreset import ApproxCenters, WeightedCoreset, approx_centers, build_coreset
from .distsim import (CommLedger, MergedSketch, SitePartition, StreamState,
                      run_coordinator, run_stream)
from .errors import DimensionMismatch, InvalidInput, KZSketchError, SketchFormatError
from .geometry import (CenterSet, GridDataset, ProblemConfig, RealDataset, cost,
                       nearest_assignment, weighted_cost)

__version__ = "0.1.0"
