"""CORGI — CustOmizable Robust Geo-Indistinguishability.

A complete, pure-Python reproduction of *"User Customizable and Robust
Geo-Indistinguishability for Location Privacy"* (EDBT 2023): hexagonal
hierarchical location trees, customization policies, robust obfuscation
matrix generation via linear programming, user-side pruning and precision
reduction, baselines, adversary models and the full experiment suite.

Typical usage::

    from repro import (
        SAN_FRANCISCO, tree_for_region, priors_from_checkins,
        GowallaLikeGenerator, ForestEngine, CORGIClient, Policy,
    )

    dataset = GowallaLikeGenerator(seed=7).generate()
    tree = tree_for_region(SAN_FRANCISCO, height=2, root_resolution=7)
    priors_from_checkins(tree, dataset)
    engine = ForestEngine(tree)  # the server side: builds privacy forests
    client = CORGIClient(tree, engine)  # wraps the engine in a CORGIService
    outcome = client.obfuscate(37.78, -122.41, Policy(privacy_level=2, precision_level=0, delta=3))
    print(outcome.reported_center)

See README.md for the architecture overview and DESIGN.md for the mapping
between the paper's sections and the modules here.
"""

from repro.attacks import BayesianAttacker, expected_inference_error_km
from repro.baselines import NonRobustLPMechanism, PlanarLaplaceMechanism, UniformMechanism
from repro.client import (
    CORGIClient,
    HTTPTransport,
    InProcessTransport,
    ObfuscationOutcome,
    ObfuscationSession,
    TransportForestProvider,
)
from repro.core import (
    HexNeighborhoodGraph,
    ObfuscationLP,
    ObfuscationMatrix,
    QualityLossModel,
    RobustMatrixGenerator,
    TargetDistribution,
    check_geo_ind,
    precision_reduction,
    prune_matrix,
)
from repro.datasets import (
    SAN_FRANCISCO,
    CheckIn,
    CheckInDataset,
    GowallaLikeGenerator,
    SyntheticConfig,
    load_gowalla,
    train_test_split_checkins,
)
from repro.geometry import BoundingBox, LatLng, haversine_km
from repro.hexgrid import HexCell, HexGridSystem
from repro.pipeline import CacheStats, MatrixCache, PreparedProblem, RobustGenerationTask, run_robust_tasks
from repro.policy import Policy, Predicate, annotate_tree_with_dataset, user_location_profile
from repro.server import ForestEngine, PrivacyForest, ServerConfig
from repro.service import CORGIHTTPServer, CORGIService, EnginePool, ServiceConfig
from repro.tree import LocationTree, build_location_tree, priors_from_checkins, tree_for_region

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Geometry / grid
    "LatLng",
    "BoundingBox",
    "haversine_km",
    "HexCell",
    "HexGridSystem",
    # Tree
    "LocationTree",
    "build_location_tree",
    "tree_for_region",
    "priors_from_checkins",
    # Datasets
    "CheckIn",
    "CheckInDataset",
    "GowallaLikeGenerator",
    "SyntheticConfig",
    "load_gowalla",
    "train_test_split_checkins",
    "SAN_FRANCISCO",
    # Policies
    "Policy",
    "Predicate",
    "annotate_tree_with_dataset",
    "user_location_profile",
    # Core
    "ObfuscationMatrix",
    "ObfuscationLP",
    "RobustMatrixGenerator",
    "QualityLossModel",
    "TargetDistribution",
    "HexNeighborhoodGraph",
    "check_geo_ind",
    "prune_matrix",
    "precision_reduction",
    # Pipeline
    "MatrixCache",
    "CacheStats",
    "PreparedProblem",
    "RobustGenerationTask",
    "run_robust_tasks",
    # Server / service / client
    "ForestEngine",
    "ServerConfig",
    "PrivacyForest",
    "CORGIService",
    "ServiceConfig",
    "CORGIHTTPServer",
    "EnginePool",
    "CORGIClient",
    "ObfuscationOutcome",
    "ObfuscationSession",
    "InProcessTransport",
    "HTTPTransport",
    "TransportForestProvider",
    # Baselines / attacks
    "NonRobustLPMechanism",
    "PlanarLaplaceMechanism",
    "UniformMechanism",
    "BayesianAttacker",
    "expected_inference_error_km",
]
