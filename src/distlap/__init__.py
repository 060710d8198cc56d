"""Distance Laplacian and signless Laplacian spectra of connected graphs,
spectral-radius bounds with equality diagnostics, and small-graph sweeps."""

__version__ = "0.1.0"

from .bounds import (
    BOUND_META, BoundEntry, BoundId, BoundMeta, BoundReport, Side, Target,
    compute_all_bounds, slack_for)
from .certify import (
    EqualityDiagnosis, check_han_multiplicity, check_tree_determinant,
    diagnose, equality_tol)
from .errors import (
    ConsistencyError, DisconnectedGraphError, GraphParseError,
    TheoremViolationError)
from .graph6 import (
    encode_graph6, encode_graph6_stack, parse_graph6, read_graph6_stream)
from .graphs import (
    ConnectedClasses, DistanceData, Graph, connected_classes,
    connected_stacks, enumerate_connected, format_edge_list, parse_edge_list,
    sample_connected)
from .linalg import eig_symmetric, is_irreducible, multiplicity
from .named_graphs import (
    FIXTURES, builtin_graph, complete_graph, cycle_graph, fixture_graph,
    fixture_text, path_graph, star_graph)
from .operators import build_operators
from .scan import ScanResult, SoundnessReport, scan_conjecture, scan_soundness
