"""Episode likelihood, time-to-episode, providers, and alert severity.

A likelihood provider answers Pr(V = 1 | t = i, biophysics data) for
horizon step i >= 0. Two providers ship here: a deterministic logistic
reference, and a remote client speaking the JSON wire protocol

    request:  {"template_version": "v1", "horizon_step": int,
               "step_seconds": float, "features": {...}}
    response: {"probability": number, "recommendation": str (optional)}

Each step is one HTTP POST. The remote client pipelines a curve's POSTs on
its one keep-alive connection, save the first on a new connection and to
servers that answer HTTP/1.0 or ``Connection: close`` (see
:class:`LlmProvider`). A POST can be sent more than once, so the protocol's
requests must be free of side effects. The configured endpoint alone
routes the client's requests and gives their credentials.
"""
from __future__ import annotations

import base64
import io
import json
import math
import re
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
    "check_endpoint",
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
    """Query the provider for every step 0..H and assemble the curve.

    A provider with a ``probabilities(report, steps)`` method, such as
    :class:`LlmProvider`, is asked for every step in one call; any other is
    called once per step. The CurveError of a failure names its step.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    steps = range(horizon + 1)
    if hasattr(provider, "probabilities"):
        values = provider.probabilities(report, steps)
    else:
        values = []
        for i in steps:
            try:
                values.append(
                    _validate_probability(provider(report, i), "provider"))
            except ProviderError as exc:
                raise _curve_error(i, exc) from exc
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

    :meth:`probabilities` is its one wire path, and a call for one step
    takes it with a one-step list. Each request is written whole, in one
    ``sendall``, on one ``http.client`` connection; once an HTTP/1.1
    answer has left that connection open, every remaining step of the
    list goes in one write and the answers are read back in order
    (pipelining, RFC 9112 section 9.3.2). A fresh connection carries its
    first request alone, and a server that answers HTTP/1.0 or
    ``Connection: close`` is sent one request per connection, so no
    server is sent a request it will not read. The wire protocol's
    requests must therefore be free of side effects, as the retries
    below already assume: a request can be sent again.

    Retries transient failures with exponential backoff: transport
    errors, timeouts, and 5xx and 429 answers, waiting a numeric
    ``Retry-After`` (capped at ``timeout``) where the answer gives one.
    Each step gets at most ``max_retries + 1`` attempts; a retry resends
    only the steps that failed. Any other non-2xx status raises
    TransportError at once. The optional ``recommendation`` of the last
    step's answer is kept on ``last_recommendation``.

    The connection is built here, straight to the endpoint's host, with
    the endpoint's user info, if any, as Basic ``Authorization`` and, for
    HTTPS, the system CA store (or ``SSL_CERT_FILE``) bound in. The
    endpoint alone says where the requests go and what credentials they
    carry; no other environment setting routes or signs them. It opens
    on first use and after any close. When a kept connection closes after
    answering, the steps it left unanswered are sent again at once on a
    new one, not as a retry. :meth:`close`, or dropping the provider,
    closes it.
    """

    def __init__(self, endpoint, timeout=5.0, step_seconds=3600.0,
                 max_retries=2, backoff=0.1):
        # the HTTP stack loads here, not with the module, so that runs with
        # the logistic provider do not pay its import time
        from http.client import HTTPConnection, HTTPSConnection

        self.endpoint = endpoint
        self.timeout = timeout
        self.step_seconds = step_seconds
        self.max_retries = max_retries
        self.backoff = backoff
        self.last_recommendation = None

        url, host, target = check_endpoint(endpoint)
        headers = {"Host": host, "Accept-Encoding": "identity",
                   "Content-Type": "application/json",
                   **_auth_header(url)}
        # an HTTPS connection verifies against ssl's default context
        connection = {"http": HTTPConnection,
                      "https": HTTPSConnection}[url.scheme]
        self._conn = connection(host, timeout=timeout)
        self._head = "".join([f"POST {target} HTTP/1.1\r\n", *(
            f"{name}: {value}\r\n" for name, value in headers.items())]
        ).encode("ascii")

    def __call__(self, report: BiophysicsReport, step: int):
        """Pr(V = 1 | t = step): :meth:`probabilities` for one step,
        raising the provider's error itself rather than a CurveError."""
        try:
            [p] = self.probabilities(report, [step])
        except CurveError as exc:
            error = exc.__cause__
        else:
            return p
        raise error

    def probabilities(self, report: BiophysicsReport, steps):
        """Pr(V = 1 | t = i) for each step i of ``steps``, in their order.

        Raises CurveError naming the smallest failing step, with the
        provider's error (ProviderTimeoutError, TransportError or
        ProtocolError) as its cause.
        """
        requests = {}
        for step in steps:
            try:
                requests[step] = self._request(report, step)
            except ProtocolError as exc:
                raise _curve_error(step, exc) from exc
        answers = {}  # step -> (probability, recommendation)
        todo = list(steps)
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(wait)
            failed, wait = self._round(requests, todo, answers,
                                       self.backoff * 2**attempt)
            if not failed:
                self.last_recommendation = answers[steps[-1]][1]
                return [answers[step][0] for step in steps]
            todo = sorted(failed)
        raise _curve_error(todo[0], failed[todo[0]]) from failed[todo[0]]

    def _request(self, report, step):
        """The whole POST for one step, as bytes."""
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
        return b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(data),
                                                      data)

    def _round(self, requests, todo, answers, backoff):
        """Send each step of ``todo`` once, parsing its answer into
        ``answers``.

        Returns ``(failed, wait)``: the steps that failed transiently, each
        with its error, and the wait before they are sent again, the
        longest of ``backoff`` and each capped Retry-After. Raises
        CurveError at once for any other failure.
        """
        import http.client

        failed, wait = {}, 0.0
        todo = list(todo)
        while todo:
            kept = self._conn.sock is not None
            batch = todo[:_IN_FLIGHT if kept else 1]
            replies, error = [], None
            try:
                if not kept:
                    self._conn.connect()
                    self._answers = _Answers(self._conn.sock)
                self._conn.sock.sendall(
                    b"".join(requests[step] for step in batch))
                for _ in batch:
                    resp = http.client.HTTPResponse(self._answers,
                                                    method="POST")
                    resp.begin()
                    replies.append((resp, resp.read()))
                    if resp.will_close or resp.version < 11:
                        self.close()
                        break
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                # RemoteDisconnected is a ConnectionResetError: no answer
                # byte came, so a kept connection was closed by the server
                if not (kept and isinstance(
                        exc, (ConnectionResetError, BrokenPipeError))):
                    error = TransportError(f"transport failure: {exc}")
                    if isinstance(exc, TimeoutError):
                        error = ProviderTimeoutError(
                            f"no answer from {self.endpoint} within "
                            f"{self.timeout}s")
                    error.__cause__ = exc
            except BaseException:
                self.close()  # answers to what was sent may be unread on it
                raise
            for step, (resp, answer) in zip(todo, replies):
                status = resp.status
                if 200 <= status < 300:
                    try:
                        answers[step] = self._parse(answer)
                    except ProtocolError as exc:
                        raise _curve_error(step, exc) from exc
                    continue
                exc = TransportError(
                    f"{self.endpoint} answered status {status}")
                if not (status == 429 or 500 <= status < 600):
                    raise _curve_error(step, exc) from exc
                failed[step] = exc
                wait = max(wait, self._retry_after(resp, backoff))
            del todo[:len(replies)]
            if error is not None:
                # the steps after a broken answer went unanswered with it
                failed.update(dict.fromkeys(todo, error))
                return failed, max(wait, backoff)
        return failed, wait

    def close(self):
        """Close the connection; the next request opens it again."""
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
        """``(probability, recommendation)`` from an answer's body."""
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
        return p, rec


# requests written at once on a kept connection. The answers to 64 fit the
# socket buffers, so a server that answers while the client still writes
# never blocks on a full one; unbounded, a 40,000-step curve on loopback
# stalled both sides until the timeout.
_IN_FLIGHT = 64


class _Answers(io.BufferedReader):
    """The read side of one connection. Every ``http.client.HTTPResponse``
    read from it takes it as its socket, so an answer that arrived with an
    earlier one waits in this one buffer for its turn. A response flushes
    and closes its file when it is done, even after the socket has closed;
    both leave this one as it is, and closing the socket ends it."""

    def __init__(self, sock):
        import socket
        super().__init__(socket.SocketIO(sock, "rb"))

    def makefile(self, mode):
        return self

    def flush(self):
        pass

    close = flush


def check_endpoint(endpoint):
    """Check ``endpoint`` and split it into what its requests need.

    Returns ``(url, host, target)``: the split endpoint, its
    ``host[:port]`` in ASCII for the connection and the ``Host`` header,
    and the request target, its path and query. Raises DomainError unless
    the endpoint is an http(s) URL with a host, its host and request
    target are printable ASCII without spaces, and its port is a number in
    0..65535. It reads nothing from the environment and builds no
    connection, so a config check can call it.
    """
    url = urllib.parse.urlsplit(endpoint)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise DomainError(f"endpoint {endpoint!r} is not an http(s) URL")
    host = _host(url)
    target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
    if not _PRINTABLE.fullmatch(target):
        raise DomainError(f"request target {target!r} is not printable "
                          "ASCII without spaces")
    return url, host, target


_PRINTABLE = re.compile(r"[!-~]+")  # printable ASCII, no space


def _host(url):
    """``host[:port]`` of a split URL, without user info, in ASCII (IDNA).

    Raises DomainError when the port is not a number in 0..65535 or the
    host does not encode as printable ASCII without spaces.
    """
    netloc = url.netloc.rpartition("@")[2]
    try:
        url.port  # parses the port
        host = netloc.encode("idna").decode("ascii")
    except ValueError as exc:  # UnicodeError is a ValueError
        raise DomainError(f"bad host or nonnumeric port in {netloc!r}: "
                          f"{exc}") from exc
    if not _PRINTABLE.fullmatch(host):
        raise DomainError(f"host {netloc!r} is not printable ASCII")
    return host


def _curve_error(step, exc):
    """The CurveError of a curve whose ``step`` failed with ``exc``."""
    return CurveError(f"provider failed at step {step}: {exc}", step=step)


def _auth_header(url):
    """``{"Authorization": "Basic ..."}`` from a split URL's user info;
    {} without one."""
    if url.username is None:
        return {}
    user = urllib.parse.unquote(url.username)
    password = urllib.parse.unquote(url.password or "")
    token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
    return {"Authorization": f"Basic {token}"}


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
