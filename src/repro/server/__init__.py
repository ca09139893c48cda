"""Server side of the CORGI framework (Section 5.1).

The (untrusted) server performs the computationally heavy work: it builds
the location tree for the area of interest, and — given only the privacy
level and the prune count δ — generates a robust obfuscation matrix for
*every* sub-tree rooted at that level (Algorithm 3), because it must not
learn which sub-tree contains the user.  The resulting
:class:`~repro.server.privacy_forest.PrivacyForest` is returned to the user
for customization.  :class:`~repro.server.engine.ForestEngine` is the
in-process engine that builds it; request serving (coalescing, admission
control, metrics) wraps an engine in :class:`~repro.service.service.CORGIService`.
"""

from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import ObfuscationRequest, PrivacyForestResponse
from repro.server.privacy_forest import PrivacyForest

__all__ = [
    "ForestEngine",
    "ServerConfig",
    "PrivacyForest",
    "ObfuscationRequest",
    "PrivacyForestResponse",
]
