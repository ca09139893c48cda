"""Client transports: one protocol, in-process and HTTP implementations.

Figure 1's protocol is two messages — a request carrying ``(privacy_level,
δ)`` (optionally ε) and a response carrying the privacy forest.  A
:class:`ForestTransport` is anything that can run that exchange:

* :class:`InProcessTransport` — calls a
  :class:`~repro.service.service.CORGIService` directly (no serialization;
  still benefits from coalescing/metrics);
* :class:`HTTPTransport` — speaks the JSON protocol of
  :mod:`repro.service.http` over ``urllib`` (stdlib only).

:class:`TransportForestProvider` adapts any transport to the provider
protocol — one method, ``generate_privacy_forest`` — that
:class:`~repro.client.client.CORGIClient` and
:class:`~repro.client.session.ObfuscationSession` consume, returning the
wire :class:`~repro.server.messages.PrivacyForestResponse`, which carries
the same lookup surface as a server-side
:class:`~repro.server.privacy_forest.PrivacyForest`.  The other provider is
:class:`~repro.service.service.CORGIService`; :func:`as_forest_provider`
wraps a bare engine in a default service and a transport in a
:class:`TransportForestProvider`, which is what lets ``CORGIClient``
accept an engine, a service or a transport interchangeably.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable

from repro.core.exceptions import CORGIError
from repro.server.messages import ObfuscationRequest, PrivacyForestResponse
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "ForestTransport",
    "HTTPTransport",
    "InProcessTransport",
    "TransportError",
    "TransportForestProvider",
    "as_forest_provider",
]


class TransportError(CORGIError):
    """A transport-level failure (connection refused, non-2xx status, bad body).

    ``status`` carries the HTTP status code when one was received, and
    ``detail`` the server's error payload, so callers can distinguish
    overload (503, retry later) from request errors (4xx, don't retry).
    """

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.detail = detail


@runtime_checkable
class ForestTransport(Protocol):
    """The two-message exchange of Figure 1, behind any transport."""

    def fetch_forest(self, request: ObfuscationRequest) -> PrivacyForestResponse:
        """Run one request/response exchange."""
        ...


class InProcessTransport:
    """Transport that calls a :class:`CORGIService` in the same process.

    Accepts a service, or an engine (a
    :class:`~repro.server.engine.ForestEngine` or
    :class:`~repro.service.pool.EnginePool`, wrapped in a default-configured
    service), so tests and single-process deployments exercise the exact
    request path of the HTTP transport minus the wire.
    """

    def __init__(self, target: object) -> None:
        from repro.service.service import CORGIService

        if isinstance(target, CORGIService):
            self.service = target
        else:
            self.service = CORGIService(target)  # type: ignore[arg-type]

    def fetch_forest(self, request: ObfuscationRequest) -> PrivacyForestResponse:
        return self.service.handle(request)

    def fetch_forests(
        self, requests: Sequence[ObfuscationRequest]
    ) -> List[PrivacyForestResponse]:
        """Batch exchange (mirrors ``POST /forest/batch``)."""
        return self.service.handle_batch(requests)


class HTTPTransport:
    """Transport speaking the JSON protocol of :mod:`repro.service.http`.

    Parameters
    ----------
    base_url:
        The server's base URL, e.g. ``http://127.0.0.1:8350`` (a
        :attr:`CORGIHTTPServer.url`).  Trailing slashes are tolerated.
    timeout_s:
        Socket timeout per exchange.  Forest builds can be slow cold; size
        this to the engine, not to network latency.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #

    def fetch_forest(self, request: ObfuscationRequest) -> PrivacyForestResponse:
        payload = self._post("/forest", request.to_dict())
        return PrivacyForestResponse.from_dict(payload)

    def fetch_forests(
        self, requests: Sequence[ObfuscationRequest]
    ) -> List[PrivacyForestResponse]:
        """Batch exchange over ``POST /forest/batch`` (order-aligned)."""
        payload = self._post(
            "/forest/batch", {"requests": [request.to_dict() for request in requests]}
        )
        responses = payload.get("responses")
        if not isinstance(responses, list):
            raise TransportError("malformed batch response: missing 'responses' list")
        return [PrivacyForestResponse.from_dict(entry) for entry in responses]

    def metrics(self) -> Dict[str, object]:
        """The server's ``GET /metrics`` snapshot."""
        return self._get("/metrics")

    def health(self) -> Dict[str, object]:
        """The server's ``GET /healthz`` liveness answer."""
        return self._get("/healthz")

    def diagnostics(self) -> Dict[str, object]:
        """``GET /admin/diagnostics``: engine cache + LP-solver diagnostics.

        The ``"solver"`` block carries the aggregate solve count and
        per-stage time totals, summed across shards when the server runs a
        pool.
        """
        return self._get("/admin/diagnostics")

    def durability(self) -> Dict[str, object]:
        """``GET /admin/durability``: durable state tier diagnostics."""
        return self._get("/admin/durability")

    # ------------------------------------------------------------------ #
    # Admin surface (cache lifecycle)
    # ------------------------------------------------------------------ #

    def invalidate(self, privacy_level: Optional[int] = None) -> int:
        """``POST /admin/invalidate``: drop the server's cached forests.

        Returns the number of forests dropped (summed across shards when
        the server runs an :class:`~repro.service.pool.EnginePool`).
        """
        payload = self._post(
            "/admin/invalidate",
            {"privacy_level": None if privacy_level is None else int(privacy_level)},
        )
        return int(payload.get("invalidated", 0))  # type: ignore[arg-type]

    def publish_priors(
        self, priors: Dict[str, float], *, normalize: bool = True
    ) -> int:
        """``POST /admin/priors``: install new leaf priors (live update).

        Returns the number of cached forests the update flushed server-side.
        """
        payload = self._post(
            "/admin/priors", {"priors": dict(priors), "normalize": bool(normalize)}
        )
        return int(payload.get("invalidated", 0))  # type: ignore[arg-type]

    def drain(self, slot: int) -> Dict[str, object]:
        """``POST /admin/drain``: gracefully drain one shard slot.

        Returns the server's drain report (``{"slot", "exported",
        "handoff_keys", "imported", "prewarmed", ...}``).  Errors are typed
        like :meth:`invalidate`: a bad slot id, an undrainable slot or a
        server without a pool raises :class:`TransportError` with
        ``status=400`` and the server's ``detail``, so callers can
        distinguish their own fault from a transport failure.
        """
        return self._post("/admin/drain", {"slot": slot})

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    def _post(self, path: str, payload: object) -> Dict[str, object]:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._exchange(request)

    def _get(self, path: str) -> Dict[str, object]:
        request = urllib.request.Request(self.base_url + path, method="GET")
        return self._exchange(request)

    def _exchange(self, request: urllib.request.Request) -> Dict[str, object]:
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                raw = response.read()
        except urllib.error.HTTPError as error:
            detail = self._error_detail(error)
            raise TransportError(
                f"{request.get_method()} {request.full_url} failed with HTTP {error.code}"
                + (f": {detail}" if detail else ""),
                status=error.code,
                detail=detail,
            ) from error
        except urllib.error.URLError as error:
            raise TransportError(
                f"cannot reach {request.full_url}: {error.reason}"
            ) from error
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise TransportError(
                f"non-JSON response from {request.full_url}"
            ) from error
        if not isinstance(payload, dict):
            raise TransportError(f"unexpected response shape from {request.full_url}")
        return payload

    @staticmethod
    def _error_detail(error: urllib.error.HTTPError) -> Optional[str]:
        try:
            payload = json.loads(error.read())
        except (json.JSONDecodeError, OSError, ValueError):
            return None
        if isinstance(payload, dict):
            detail = payload.get("detail")
            return str(detail) if detail is not None else None
        return None


class TransportForestProvider:
    """Adapts a :class:`ForestTransport` to the provider protocol.

    ``CORGIClient`` and ``ObfuscationSession`` call
    ``generate_privacy_forest(privacy_level, delta, epsilon=...)``; this
    adapter turns that call into a request/response exchange, so the client
    pipeline is byte-for-byte identical whether the forest came from an
    in-process engine or over the network.
    """

    def __init__(self, transport: ForestTransport) -> None:
        self.transport = transport

    def generate_privacy_forest(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
    ) -> PrivacyForestResponse:
        request = ObfuscationRequest(
            privacy_level=int(privacy_level),
            delta=int(delta),
            epsilon=None if epsilon is None else float(epsilon),
        )
        return self.transport.fetch_forest(request)


def as_forest_provider(target: object):
    """Normalize anything forest-shaped into a ``generate_privacy_forest`` provider.

    Accepts (in resolution order):

    1. a provider — :class:`~repro.service.service.CORGIService`,
       :class:`TransportForestProvider`, or anything exposing
       ``generate_privacy_forest`` — returned unchanged;
    2. a :class:`ForestTransport` (``fetch_forest``) — wrapped in a
       :class:`TransportForestProvider`;
    3. an engine (``build_forest_traced``) —
       :class:`~repro.server.engine.ForestEngine` or
       :class:`~repro.service.pool.EnginePool` — wrapped in a
       default-configured :class:`~repro.service.service.CORGIService`.
       When a service already fronts the engine, pass that service: a new
       one over an ``EnginePool`` takes over the pool's stats listener.
    """
    if callable(getattr(target, "generate_privacy_forest", None)):
        return target
    if callable(getattr(target, "fetch_forest", None)):
        return TransportForestProvider(target)  # type: ignore[arg-type]
    if callable(getattr(target, "build_forest_traced", None)):
        from repro.service.service import CORGIService

        return CORGIService(target)  # type: ignore[arg-type]
    raise TypeError(
        f"{type(target).__name__} is neither a forest provider "
        "(generate_privacy_forest), a transport (fetch_forest) nor an engine "
        "(build_forest_traced)"
    )
