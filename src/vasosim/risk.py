"""Episode likelihood, time-to-episode, providers, and alert severity.

A likelihood provider answers Pr(V = 1 | t = i, biophysics data) for
horizon step i >= 0. Two providers ship here: a deterministic logistic
reference, and a remote client speaking the JSON wire protocol

    request:  {"template_version": "v1", "horizon_step": int,
               "step_seconds": float, "features": {...}}
    response: {"probability": number, "recommendation": str (optional)}
"""
from __future__ import annotations

import base64
import json
import math
import netrc
import os
import time
import urllib.parse
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CurveError,
    DomainError,
    NumericalError,
    ProtocolError,
    ProviderError,
    ProviderTimeoutError,
    TransportError,
)

__all__ = [
    "BiophysicsReport",
    "EpisodeLikelihood",
    "TTEResult",
    "AlertPolicy",
    "AlertPayload",
    "likelihood_curve",
    "compute_tte",
    "logistic_provider",
    "LlmProvider",
    "dispatch_alert",
]

TEMPLATE_VERSION = "v1"  # the wire request's "template_version"


@dataclass(frozen=True)
class BiophysicsReport:
    """Feature bundle handed to likelihood providers."""

    stenosis_index: float
    density_fractional_change: float
    tof: float
    timestamp: float
    session_id: str
    residual_norm: float = 0.0
    converged: bool = True

    def __post_init__(self):
        if not 0 <= self.stenosis_index <= 1:
            raise DomainError("stenosis_index must lie in [0, 1]")
        if self.timestamp < 0:
            raise DomainError("timestamp must be nonnegative")

    def features(self):
        return {
            "stenosis_index": self.stenosis_index,
            "density_fractional_change": self.density_fractional_change,
            "tof_s": self.tof,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class EpisodeLikelihood:
    probs: np.ndarray       # probs[i-1] = Pr(V=1 | t=i) for i = 1..H
    prob_now: float
    horizon: int

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.horizon < 1 or probs.size != self.horizon:
            raise DomainError("probs length must equal horizon >= 1")
        if np.any(probs < 0) or np.any(probs > 1):
            raise DomainError("probabilities must lie in [0, 1]")
        if not 0 <= self.prob_now <= 1:
            raise DomainError("prob_now must lie in [0, 1]")


@dataclass(frozen=True)
class TTEResult:
    """Argmax step of the likelihood curve; ties break to the smallest index."""

    tte_step: int
    max_prob: float
    step_seconds: float
    tie_rule: str = "smallest-index"

    def to_dict(self):
        return {**asdict(self), "tte_seconds": self.tte_step * self.step_seconds}


@dataclass(frozen=True)
class AlertPolicy:
    critical_prob: float = 0.8
    critical_horizon: int = 2   # steps
    warn_prob: float = 0.5

    def __post_init__(self):
        for name in ("critical_prob", "warn_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise DomainError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class AlertPayload:
    session_id: str
    timestamp: float
    tte_step: int
    max_prob: float
    prob_now: float
    recommendation: str
    severity: str

    def to_dict(self):
        return asdict(self)


def _validate_probability(value, source):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"{source} returned non-numeric probability {value!r}")
    p = float(value)
    if not math.isfinite(p):
        raise ProtocolError(f"{source} returned non-finite probability")
    if p < -0.01 or p > 1.01:
        raise ProtocolError(f"{source} returned probability {p} outside [-0.01, 1.01]")
    return min(max(p, 0.0), 1.0)


def likelihood_curve(report: BiophysicsReport, provider, horizon):
    """Query the provider for every step 0..H and assemble the curve."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    values = []
    for i in range(horizon + 1):
        try:
            values.append(_validate_probability(provider(report, i), "provider"))
        except ProviderError as exc:
            raise CurveError(f"provider failed at step {i}: {exc}", step=i) from exc
    return EpisodeLikelihood(probs=np.array(values[1:]), prob_now=values[0],
                             horizon=horizon)


def compute_tte(likelihood: EpisodeLikelihood, step_seconds):
    """Smallest future step maximizing episode probability."""
    probs = likelihood.probs  # EpisodeLikelihood makes it nonempty
    k = int(np.argmax(probs))  # np.argmax already returns the first maximum
    return TTEResult(tte_step=k + 1, max_prob=float(probs[k]),
                     step_seconds=float(step_seconds))


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def logistic_provider(weights, bias, horizon_decay=0.0):
    """Reference provider sigma(w . f + b) with feature vector
    f = [stenosis_index, density_fractional_change, exp(-decay * i)]."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (3,) or not np.all(np.isfinite(weights)):
        raise DomainError("weights must be 3 finite values")
    if not (math.isfinite(bias) and math.isfinite(horizon_decay)):
        raise DomainError("bias and horizon_decay must be finite")

    def provider(report: BiophysicsReport, step: int):
        f = np.array([report.stenosis_index,
                      report.density_fractional_change,
                      math.exp(-horizon_decay * step)])
        z = float(weights @ f) + bias
        out = _sigmoid(z)
        if not math.isfinite(out):
            raise NumericalError("logistic provider produced non-finite output")
        return out

    return provider


class LlmProvider:
    """Remote likelihood provider speaking the JSON wire protocol.

    Retries transient failures with exponential backoff: transport
    errors, timeouts, and 5xx and 429 answers, waiting a numeric
    ``Retry-After`` (capped at ``timeout``) where the answer gives one.
    Any other non-2xx status raises TransportError at once. The
    optional ``recommendation`` from the last successful response is kept
    on ``last_recommendation``.

    Its one ``http.client`` connection is built here, with the
    environment's ``http_proxy``, ``https_proxy`` (through a CONNECT
    tunnel) and ``no_proxy``, ``~/.netrc`` credentials for the endpoint's
    host and, for HTTPS, the system CA store (or ``SSL_CERT_FILE``) bound
    in. ``http.client`` opens it on first use and after any close; a kept
    connection the server dropped while idle is reopened at once, not as a
    retry. :meth:`close`, or dropping the provider, closes it.
    """

    def __init__(self, endpoint, timeout=5.0, step_seconds=3600.0,
                 max_retries=2, backoff=0.1):
        # the HTTP stack loads here, not with the module, so that runs
        # with the logistic provider do not pay its import time
        import urllib.request
        from http.client import HTTPConnection, HTTPSConnection, InvalidURL

        self.endpoint = endpoint
        self.timeout = timeout
        self.step_seconds = step_seconds
        self.max_retries = max_retries
        self.backoff = backoff
        self.last_recommendation = None

        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise DomainError(f"endpoint {endpoint!r} is not an http(s) URL")
        netloc = url.netloc.rpartition("@")[2]
        self._path = urllib.parse.urlunsplit(
            ("", "", url.path or "/", url.query, ""))
        credentials = _netrc_credentials(url.hostname) or _credentials(url)
        self._headers = {"Content-Type": "application/json",
                         **_auth_header("Authorization", credentials)}

        address, tunnel = netloc, None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            proxy = urllib.parse.urlsplit(
                proxy if "://" in proxy else "http://" + proxy)
            address = proxy.netloc.rpartition("@")[2]
            proxy_headers = _auth_header("Proxy-Authorization",
                                         _credentials(proxy))
            if url.scheme == "https":
                tunnel = proxy_headers
            else:
                # a plain HTTP proxy is sent the absolute URL
                self._path = urllib.parse.urlunsplit(url._replace(
                    netloc=netloc, path=url.path or "/", fragment=""))
                self._headers.update(proxy_headers)
        # an HTTPS connection verifies against ssl's default context
        connection = {"http": HTTPConnection,
                      "https": HTTPSConnection}[url.scheme]
        try:  # http.client parses the port, raising InvalidURL on a bad one
            self._conn = connection(address, timeout=timeout)
            if tunnel is not None:
                self._conn.set_tunnel(netloc, headers=tunnel)
        except InvalidURL as exc:
            raise DomainError(f"{exc} in {address!r}") from exc

    def __call__(self, report: BiophysicsReport, step: int):
        import http.client

        body = {
            "template_version": TEMPLATE_VERSION,
            "horizon_step": int(step),
            "step_seconds": self.step_seconds,
            "features": report.features(),
        }
        try:
            data = json.dumps(body, allow_nan=False).encode()
        except ValueError as exc:
            raise ProtocolError("features must be finite numbers") from exc
        last_exc = None
        for attempt in range(self.max_retries + 1):
            delay = self.backoff * 2**attempt
            try:
                resp = self._send(data)
                answer = resp.read()
            except TimeoutError as exc:
                self.close()
                last_exc = ProviderTimeoutError(
                    f"no answer from {self.endpoint} within {self.timeout}s")
                last_exc.__cause__ = exc
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                last_exc = TransportError(f"transport failure: {exc}")
                last_exc.__cause__ = exc
            else:
                status = resp.status
                if 200 <= status < 300:
                    return self._parse(answer)
                last_exc = TransportError(
                    f"{self.endpoint} answered status {status}")
                if not (status == 429 or 500 <= status < 600):
                    raise last_exc
                delay = self._retry_after(resp, delay)
            if attempt < self.max_retries:
                time.sleep(delay)
        raise last_exc

    def _send(self, data):
        """POST ``data``, returning the response with its headers read; a
        kept connection the server closed unanswered is reopened at once."""
        reused = self._conn.sock is not None
        try:
            self._conn.request("POST", self._path, body=data,
                               headers=self._headers)
            return self._conn.getresponse()
        except (ConnectionResetError, BrokenPipeError):
            # RemoteDisconnected is a ConnectionResetError: no answer byte
            if not reused:
                raise
            self.close()
            return self._send(data)

    def close(self):
        """Close the connection; the next call opens it again."""
        self._conn.close()

    def __del__(self):
        if hasattr(self, "_conn"):  # __init__ can raise before building it
            self.close()

    def _retry_after(self, resp, default):
        """A numeric Retry-After header in seconds, capped at the timeout;
        ``default`` without one."""
        try:
            seconds = float(resp.headers.get("Retry-After", ""))
        except ValueError:
            return default
        if not seconds >= 0:  # NaN and negative values too
            return default
        return min(seconds, self.timeout)

    def _parse(self, answer):
        try:
            payload = json.loads(answer)
        except ValueError as exc:
            raise ProtocolError("response is not valid JSON") from exc
        if not isinstance(payload, dict) or "probability" not in payload:
            raise ProtocolError("response lacks a 'probability' field")
        p = _validate_probability(payload["probability"], self.endpoint)
        rec = payload.get("recommendation")
        if rec is not None and not isinstance(rec, str):
            raise ProtocolError("'recommendation' must be a string")
        self.last_recommendation = rec
        return p


def _credentials(url):
    """(user, password) from a split URL's user info; None without one."""
    if url.username is None:
        return None
    return (urllib.parse.unquote(url.username),
            urllib.parse.unquote(url.password or ""))


def _netrc_credentials(host):
    """(login, password) for ``host`` from ``$NETRC`` or ``~/.netrc``;
    None when the file is missing or unreadable or names no such host."""
    try:
        entry = netrc.netrc(os.environ.get("NETRC")).authenticators(host)
    except (OSError, netrc.NetrcParseError):
        return None
    return entry and (entry[0] or entry[1], entry[2])


def _auth_header(name, credentials):
    """``{name: "Basic ..."}`` for (user, password); {} for None."""
    if not credentials:
        return {}
    token = base64.b64encode(":".join(credentials).encode()).decode("ascii")
    return {name: f"Basic {token}"}


def llm_provider(endpoint, **kwargs):
    """Factory mirroring :func:`logistic_provider` for the remote client;
    keyword arguments and their defaults are :class:`LlmProvider`'s."""
    return LlmProvider(endpoint, **kwargs)


_RECOMMENDATIONS = {
    "critical": "Contact the emergency hotline now; do not wait for symptoms "
                "to worsen.",
    "warn": "Hydrate, rest, and re-measure within the next interval; escalate "
            "if readings worsen.",
    "info": "No action needed; continue routine monitoring.",
}


def dispatch_alert(tte: TTEResult, prob_now, policy: AlertPolicy,
                   session_id, timestamp, recommendation=None):
    """Build the alert payload and classify its severity per policy.

    "critical" when ``prob_now`` reaches ``critical_prob``, or when the
    episode peak is within ``critical_horizon`` steps and its probability
    ``tte.max_prob`` reaches ``warn_prob``; otherwise "warn" when
    ``prob_now`` reaches ``warn_prob``, else "info".
    """
    imminent = tte.tte_step <= policy.critical_horizon \
        and tte.max_prob >= policy.warn_prob
    if prob_now >= policy.critical_prob or imminent:
        severity = "critical"
    elif prob_now >= policy.warn_prob:
        severity = "warn"
    else:
        severity = "info"
    return AlertPayload(
        session_id=session_id,
        timestamp=timestamp,
        tte_step=tte.tte_step,
        max_prob=tte.max_prob,
        prob_now=prob_now,
        recommendation=recommendation or _RECOMMENDATIONS[severity],
        severity=severity,
    )
