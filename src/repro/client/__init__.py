"""User-device side of the CORGI framework (Section 5.2, Algorithm 4).

The client holds everything private: the user's real location, their
check-in history (if any) and their preference predicates.  It asks the
server only for ``(privacy level, δ)``, receives the privacy forest, selects
the matrix of its own sub-tree, prunes the locations failing the
preferences, reduces the matrix to the requested precision level and samples
the obfuscated location to hand to location-based applications.
"""

from repro.client.client import CORGIClient, ObfuscationOutcome
from repro.client.gateway import AsyncGatewayClient, GatewayClient, GatewayPush
from repro.client.session import ObfuscationSession
from repro.client.transport import (
    ForestTransport,
    HTTPTransport,
    InProcessTransport,
    TransportError,
    TransportForestProvider,
    as_forest_provider,
)

__all__ = [
    "AsyncGatewayClient",
    "CORGIClient",
    "GatewayClient",
    "GatewayPush",
    "ObfuscationOutcome",
    "ObfuscationSession",
    "ForestTransport",
    "HTTPTransport",
    "InProcessTransport",
    "TransportError",
    "TransportForestProvider",
    "as_forest_provider",
]
