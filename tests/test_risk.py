import base64
import contextlib
import json
import math
import select
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vasosim import risk
from vasosim.errors import (
    CurveError,
    DomainError,
    ProtocolError,
    ProviderError,
    ProviderTimeoutError,
    TransportError,
)


def make_report(stenosis=0.3, density=0.05, **kwargs):
    defaults = dict(tof=4e-5, timestamp=0.0, session_id="s0000")
    defaults.update(kwargs)
    return risk.BiophysicsReport(stenosis_index=stenosis,
                                 density_fractional_change=density,
                                 **defaults)


class TestLogisticProvider:
    def test_midpoint(self):
        # weights chosen so z = 0 for this report at step 0
        provider = risk.logistic_provider((2.0, 0.0, 0.0), -0.6)
        assert provider(make_report(stenosis=0.3), 0) == pytest.approx(0.5)

    def test_hand_value(self):
        # z = 4*1 + 2*0.5 + 0*1 - 3 = 2 -> sigma(2)
        provider = risk.logistic_provider((4.0, 2.0, 0.0), -3.0)
        report = make_report(stenosis=1.0, density=0.5)
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert provider(report, 0) == pytest.approx(expected, rel=1e-12)

    def test_horizon_decay(self):
        # decay ln 2 halves the horizon feature each step:
        # z(step=1) = 1 * exp(-ln 2) = 0.5
        provider = risk.logistic_provider((0.0, 0.0, 1.0), 0.0,
                                          horizon_decay=math.log(2))
        expected = 1.0 / (1.0 + math.exp(-0.5))
        assert provider(make_report(), 1) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_stenosis(self):
        provider = risk.logistic_provider((6.0, 2.0, 1.0), -4.0)
        probs = [provider(make_report(stenosis=s), 0)
                 for s in np.linspace(0, 1, 11)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    @given(st.floats(0, 1), st.floats(-1, 1), st.integers(0, 48))
    def test_output_is_probability(self, stenosis, density, step):
        provider = risk.logistic_provider((6.0, 2.0, 1.0), -4.0,
                                          horizon_decay=0.2)
        p = provider(make_report(stenosis=stenosis, density=density), step)
        assert 0.0 <= p <= 1.0

    def test_bad_weights_rejected(self):
        with pytest.raises(DomainError):
            risk.logistic_provider((1.0, 2.0), 0.0)
        with pytest.raises(DomainError):
            risk.logistic_provider((1.0, 2.0, math.nan), 0.0)


class TestProbabilityValidation:
    """Each provider answer passes the wire contract's probability check."""

    def test_uses_step_zero(self):
        seen = []

        def provider(report, step):
            seen.append(step)
            return 0.25 if step == 0 else 0.5

        curve = risk.likelihood_curve(make_report(), provider, horizon=1)
        assert curve.prob_now == 0.25
        assert seen == [0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(CurveError) as info:
            risk.likelihood_curve(make_report(), lambda r, i: 1.2, horizon=1)
        assert isinstance(info.value.__cause__, ProtocolError)

    def test_small_overshoot_clamped(self):
        high = risk.likelihood_curve(make_report(), lambda r, i: 1.005,
                                     horizon=1)
        low = risk.likelihood_curve(make_report(), lambda r, i: -0.005,
                                    horizon=1)
        assert high.prob_now == 1.0 and list(high.probs) == [1.0]
        assert low.prob_now == 0.0 and list(low.probs) == [0.0]

    def test_non_numeric_rejected(self):
        for value in ("high", True):
            with pytest.raises(CurveError) as info:
                risk.likelihood_curve(make_report(), lambda r, i: value,
                                      horizon=1)
            assert isinstance(info.value.__cause__, ProtocolError)


class TestLikelihoodCurve:
    def test_constant_provider(self):
        curve = risk.likelihood_curve(make_report(), lambda r, i: 0.3,
                                      horizon=4)
        assert curve.prob_now == 0.3
        assert np.array_equal(curve.probs, [0.3, 0.3, 0.3, 0.3])
        assert curve.horizon == 4

    def test_per_step_values(self):
        provider = risk.logistic_provider((0.0, 0.0, 1.0), -0.5,
                                          horizon_decay=0.3)
        report = make_report()
        curve = risk.likelihood_curve(report, provider, horizon=6)
        for i in range(1, 7):
            z = math.exp(-0.3 * i) - 0.5
            assert curve.probs[i - 1] == pytest.approx(
                1.0 / (1.0 + math.exp(-z)), rel=1e-12)

    def test_horizon_one(self):
        curve = risk.likelihood_curve(make_report(), lambda r, i: 0.1,
                                      horizon=1)
        assert curve.probs.size == 1

    def test_failure_names_the_step(self):
        def provider(report, step):
            if step == 3:
                raise ProviderError("down")
            return 0.2

        with pytest.raises(CurveError) as info:
            risk.likelihood_curve(make_report(), provider, horizon=5)
        assert info.value.step == 3

    def test_horizon_validation(self):
        with pytest.raises(DomainError):
            risk.likelihood_curve(make_report(), lambda r, i: 0.5, horizon=0)


class TestComputeTte:
    def test_simple_argmax(self):
        curve = risk.EpisodeLikelihood(probs=np.array([0.1, 0.5, 0.3]),
                                       prob_now=0.05, horizon=3)
        tte = risk.compute_tte(curve, step_seconds=3600.0)
        assert tte.tte_step == 2
        assert tte.max_prob == 0.5
        assert tte.to_dict()["tte_seconds"] == 2 * 3600.0

    def test_tie_breaks_to_smallest_step(self):
        curve = risk.EpisodeLikelihood(probs=np.array([0.2, 0.7, 0.7, 0.1]),
                                       prob_now=0.0, horizon=4)
        assert risk.compute_tte(curve, 1.0).tte_step == 2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            probs = rng.uniform(0, 1, rng.integers(1, 30))
            curve = risk.EpisodeLikelihood(probs=probs, prob_now=0.0,
                                           horizon=probs.size)
            tte = risk.compute_tte(curve, 1.0)
            best = min((i + 1 for i in range(probs.size)
                        if probs[i] == probs.max()))
            assert tte.tte_step == best
            assert tte.max_prob == probs.max()

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=20))
    def test_invariant_under_increasing_transform(self, levels):
        # argmax only depends on the ordering, so a strictly increasing
        # remap of the probability levels must not move the answer
        probs_a = np.array(levels) / 10.0
        probs_b = probs_a ** 2  # strictly increasing on [0, 1]
        a = risk.compute_tte(risk.EpisodeLikelihood(
            probs=probs_a, prob_now=0.0, horizon=probs_a.size), 1.0)
        b = risk.compute_tte(risk.EpisodeLikelihood(
            probs=probs_b, prob_now=0.0, horizon=probs_b.size), 1.0)
        assert a.tte_step == b.tte_step


# ---------------------------------------------------------------------------
# remote provider against a local HTTP stub

class _StubHandler(BaseHTTPRequestHandler):
    behavior = staticmethod(lambda body: (200, {"probability": 0.5}))
    requests_seen = []
    headers_seen = []
    # per request, whether the client had sent the next one on the same
    # connection before this answer: reading a byte at a time, the handler
    # takes no more than one request out of the socket (this does not hold
    # over TLS, whose socket reads whole records)
    ahead_seen = []
    rbufsize = 1

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        type(self).headers_seen.append(self.headers)
        type(self).ahead_seen.append(
            bool(select.select([self.connection], [], [], 0)[0]))
        # behavior returns (status, payload) or (status, payload, headers)
        status, payload, *headers = type(self).behavior(body)
        data = json.dumps(payload).encode() if payload is not None else b"x"
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _step_answer(body):
    """Step i's answer: probability i / 100, recommendation "step i"."""
    step = body["horizon_step"]
    return 200, {"probability": step / 100, "recommendation": f"step {step}"}


class _StubServer(HTTPServer):
    """Counts the connections it accepts; ``closed`` is set each time it
    has closed one. Reports a handler's errors, save a client that hung up
    before its answer was written, as one that timed out has."""

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.connections = 0
        self.closed = threading.Event()

    def get_request(self):
        accepted = super().get_request()
        self.connections += 1
        return accepted

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1],
                          (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


@contextlib.contextmanager
def _serving(server):
    """Serve ``server`` on a daemon thread until the block ends."""
    threading.Thread(target=server.serve_forever, args=(0.01,),
                     daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def stub_server():
    handler = type("Handler", (_StubHandler,), {
        "requests_seen": [], "headers_seen": [], "ahead_seen": []})
    with _serving(_StubServer(handler)) as server:
        yield handler, f"http://127.0.0.1:{server.server_address[1]}/"


class _ThreadingStubServer(ThreadingMixIn, _StubServer):
    daemon_threads = True


@pytest.fixture
def keepalive_server():
    """An HTTP/1.1 stub; a handler whose ``drop`` is true closes the
    connection after its answer without saying so. It first reads what
    the client sent ahead, as a lingering close does: closing a socket
    with unread data sends a reset, which can discard answers in flight."""
    handler = type("Handler", (_StubHandler,), {
        "requests_seen": [], "headers_seen": [], "ahead_seen": [],
        "protocol_version": "HTTP/1.1", "drop": False,
        # the answer goes out in two writes; with Nagle on, the second
        # waits for the client's delayed ACK
        "disable_nagle_algorithm": True})

    def handle_one_request(self):
        _StubHandler.handle_one_request(self)
        if type(self).drop:
            self.close_connection = True
            self.connection.setblocking(False)
            with contextlib.suppress(BlockingIOError):
                while self.connection.recv(65536):
                    pass

    handler.handle_one_request = handle_one_request
    with _serving(_ThreadingStubServer(handler)) as server:
        yield handler, server, f"http://127.0.0.1:{server.server_address[1]}/"


# A self-signed certificate for 127.0.0.1, valid until 2126, made with
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 \
#     -nodes -keyout key.pem -out cert.pem -days 36500 -subj /CN=127.0.0.1 \
#     -addext subjectAltName=IP:127.0.0.1
TLS_DIR = Path(__file__).resolve().parent / "tls"


@pytest.fixture
def https_server():
    """An HTTP/1.1 stub behind TLS with the certificate in ``tls/``; the
    TLS handshake runs as the server accepts."""
    handler = type("Handler", (_StubHandler,), {
        "requests_seen": [], "headers_seen": [], "ahead_seen": [],
        "protocol_version": "HTTP/1.1", "disable_nagle_algorithm": True})
    server = _ThreadingStubServer(handler)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_DIR / "cert.pem", TLS_DIR / "key.pem")
    server.socket = context.wrap_socket(server.socket, server_side=True)
    with _serving(server):
        yield handler, server, f"https://127.0.0.1:{server.server_address[1]}/"


class TestLlmProvider:
    def test_round_trip(self, stub_server):
        handler, url = stub_server
        handler.behavior = staticmethod(
            lambda body: (200, {"probability": 0.42,
                                "recommendation": "rest"}))
        provider = risk.llm_provider(url, timeout=2.0)
        report = make_report(stenosis=0.4, density=0.1)
        assert provider(report, 3) == 0.42
        assert provider.last_recommendation == "rest"
        sent = handler.requests_seen[-1]
        assert sent["template_version"] == "v1"
        assert sent["horizon_step"] == 3
        assert sent["features"]["stenosis_index"] == 0.4
        assert sent["features"]["density_fractional_change"] == 0.1

    def test_non_numeric_probability(self, stub_server):
        handler, url = stub_server
        handler.behavior = staticmethod(
            lambda body: (200, {"probability": "high"}))
        provider = risk.llm_provider(url, timeout=2.0)
        with pytest.raises(ProtocolError):
            provider(make_report(), 0)

    def test_missing_probability(self, stub_server):
        handler, url = stub_server
        handler.behavior = staticmethod(lambda body: (200, {"p": 0.5}))
        provider = risk.llm_provider(url, timeout=2.0)
        with pytest.raises(ProtocolError):
            provider(make_report(), 0)

    def test_server_error_is_transport_error(self, stub_server):
        handler, url = stub_server
        handler.behavior = staticmethod(lambda body: (500, {"probability": 0.5}))
        provider = risk.llm_provider(url, timeout=2.0)
        with pytest.raises(TransportError):
            provider(make_report(), 0)

    def test_server_error_then_success_retried(self, stub_server):
        handler, url = stub_server
        answers = iter([(503, {"error": "busy"}), (200, {"probability": 0.7})])
        handler.behavior = staticmethod(lambda body: next(answers))
        provider = risk.llm_provider(url, timeout=2.0, backoff=0.01)
        assert provider(make_report(), 0) == 0.7
        assert len(handler.requests_seen) == 2

    def test_too_many_requests_honours_retry_after(self, stub_server):
        handler, url = stub_server
        answers = iter([(429, None, {"Retry-After": "0"}),
                        (200, {"probability": 0.2})])
        handler.behavior = staticmethod(lambda body: next(answers))
        # the zero Retry-After, not this backoff, is what the retry waits
        provider = risk.llm_provider(url, timeout=2.0, backoff=5.0)
        start = time.monotonic()
        assert provider(make_report(), 0) == 0.2
        assert time.monotonic() - start < 2.5
        assert len(handler.requests_seen) == 2

    def test_retry_after_capped_at_timeout(self):
        provider = risk.llm_provider("http://127.0.0.1:1/", timeout=0.5)

        class Answer:
            headers = {"Retry-After": "3600"}

        assert provider._retry_after(Answer, 0.1) == 0.5
        Answer.headers = {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}
        assert provider._retry_after(Answer, 0.1) == 0.1

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_retry_after_not_a_wait_falls_back(self, value):
        provider = risk.llm_provider("http://127.0.0.1:1/", timeout=0.5)

        class Answer:
            headers = {"Retry-After": value}

        assert provider._retry_after(Answer, 0.1) == 0.1

    def test_answer_not_json(self, stub_server):
        handler, url = stub_server
        handler.behavior = staticmethod(lambda body: (200, None))  # b"x"
        provider = risk.llm_provider(url, timeout=2.0)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            provider(make_report(), 0)

    def test_recommendation_not_a_string(self, stub_server):
        handler, url = stub_server
        handler.behavior = staticmethod(
            lambda body: (200, {"probability": 0.5, "recommendation": 3}))
        provider = risk.llm_provider(url, timeout=2.0)
        with pytest.raises(ProtocolError, match="recommendation"):
            provider(make_report(), 0)

    def test_client_error_not_retried(self, stub_server):
        handler, url = stub_server
        handler.behavior = staticmethod(lambda body: (404, {"error": "no"}))
        provider = risk.llm_provider(url, timeout=2.0, backoff=0.01)
        with pytest.raises(TransportError, match="404"):
            provider(make_report(), 0)
        assert len(handler.requests_seen) == 1

    def test_timeout_after_retries(self, stub_server):
        handler, url = stub_server

        def slow(body):
            import time as _time
            _time.sleep(0.5)
            return 200, {"probability": 0.5}

        handler.behavior = staticmethod(slow)
        provider = risk.llm_provider(url, timeout=0.05, max_retries=1,
                                     backoff=0.01)
        with pytest.raises(ProviderTimeoutError):
            provider(make_report(), 0)

    def test_endpoint_user_info_is_the_only_credentials(
            self, stub_server, tmp_path, monkeypatch):
        # a netrc entry for the same host is not read
        handler, url = stub_server
        netrc_path = tmp_path / "netrc"
        netrc_path.write_text("machine 127.0.0.1 login bob password other\n")
        monkeypatch.setenv("NETRC", str(netrc_path))
        lines = []
        post = handler.do_POST

        def do_POST(self):
            lines.append(self.requestline)
            post(self)

        handler.do_POST = do_POST
        # user info is percent-decoded before it is encoded as Basic
        endpoint = url.replace("//", "//ann:s3%40cret@")
        provider = risk.llm_provider(endpoint, timeout=2.0, max_retries=0)
        assert provider(make_report(), 0) == 0.5
        headers = handler.headers_seen[-1]
        token = base64.b64encode(b"ann:s3@cret").decode()
        assert headers["Authorization"] == f"Basic {token}"
        assert headers["Host"] == url.split("/")[2]
        assert lines == ["POST / HTTP/1.1"]

    def test_environment_proxy_ignored(self, stub_server, monkeypatch):
        # nothing listens on port 1, so only a direct connection answers
        handler, url = stub_server
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, "http://127.0.0.1:1/")
        provider = risk.llm_provider(url, timeout=2.0, max_retries=0)
        assert provider(make_report(), 0) == 0.5
        assert len(handler.requests_seen) == 1

    def test_one_connection_per_provider(self, keepalive_server):
        handler, server, url = keepalive_server
        provider = risk.llm_provider(url, timeout=2.0)
        curve = risk.likelihood_curve(make_report(), provider, 24)
        # dropping the provider closes its socket; a leaked one would
        # fail the test with a ResourceWarning
        del provider
        assert curve.prob_now == 0.5
        assert len(handler.requests_seen) == 25
        assert server.connections == 1

    def test_closing_server_sees_one_post_per_call(self, stub_server):
        # the HTTP/1.0 stub closes after every answer: each call opens a
        # new connection, and none waits out the backoff
        handler, url = stub_server
        provider = risk.llm_provider(url, timeout=2.0, backoff=5.0)
        start = time.monotonic()
        for calls in range(1, 4):
            assert provider(make_report(), calls) == 0.5
            assert len(handler.requests_seen) == calls
        assert time.monotonic() - start < 2.0

    def test_idle_connection_dropped_by_server(self, keepalive_server):
        handler, server, url = keepalive_server
        handler.drop = True
        provider = risk.llm_provider(url, timeout=2.0, backoff=5.0)
        assert provider(make_report(), 0) == 0.5
        assert server.closed.wait(timeout=5.0)
        start = time.monotonic()
        assert provider(make_report(), 1) == 0.5
        assert time.monotonic() - start < 2.0  # no retry sleep
        provider.close()
        assert [body["horizon_step"] for body in handler.requests_seen] \
            == [0, 1]
        assert server.connections == 2

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:8080/", "ftp://host/",
                                          "http:///path"])
    def test_endpoint_must_be_http_url(self, endpoint):
        with pytest.raises(DomainError):
            risk.llm_provider(endpoint)

    @pytest.mark.parametrize("endpoint", ["http://h/a b", "http://h/\u00fc",
                                          "http://a..b/"])
    def test_request_line_must_be_printable_ascii(self, endpoint):
        # the request is written as bytes: a space, a non-ASCII path or an
        # unencodable host would break its request line or Host header
        with pytest.raises(DomainError):
            risk.check_endpoint(endpoint)

    def test_host_header_in_idna(self):
        url, host, target = risk.check_endpoint(
            "http://b\u00fccher.example:81/a?b=1")
        assert (host, target) == ("xn--bcher-kva.example:81", "/a?b=1")

    def test_port_not_a_number(self):
        # http.client parses the port as it builds the connection
        with pytest.raises(DomainError, match="nonnumeric port"):
            risk.llm_provider("http://127.0.0.1:abc/")

    def test_non_finite_feature_not_sent(self, stub_server):
        # the wire format is JSON, which has no infinity
        handler, url = stub_server
        provider = risk.llm_provider(url, timeout=2.0)
        with pytest.raises(ProtocolError):
            provider(make_report(density=math.inf), 0)
        assert handler.requests_seen == []

    def test_unreachable_endpoint(self):
        provider = risk.llm_provider("http://127.0.0.1:1/", timeout=0.2,
                                     max_retries=0)
        with pytest.raises(TransportError):
            provider(make_report(), 0)


class TestPipelinedCurve:
    """likelihood_curve on the remote provider: step 0 goes alone on a new
    connection, then steps 1..H in one write, answered in order."""

    def test_steps_in_flight_together(self, keepalive_server):
        handler, server, url = keepalive_server
        handler.behavior = staticmethod(_step_answer)
        provider = risk.llm_provider(url, timeout=2.0)
        curve = risk.likelihood_curve(make_report(), provider, 24)
        provider.close()
        assert curve.prob_now == 0.0
        assert list(curve.probs) == [i / 100 for i in range(1, 25)]
        assert [body["horizon_step"] for body in handler.requests_seen] \
            == list(range(25))
        assert server.connections == 1
        # each of steps 1..23 was answered with the next already sent
        assert handler.ahead_seen == [False] + [True] * 23 + [False]

    def test_transient_failure_resends_that_step_only(self,
                                                      keepalive_server):
        handler, server, url = keepalive_server
        busy = {5}

        def behavior(body):
            if body["horizon_step"] in busy:
                busy.remove(body["horizon_step"])
                return 503, {"error": "busy"}
            return _step_answer(body)

        handler.behavior = staticmethod(behavior)
        provider = risk.llm_provider(url, timeout=2.0, backoff=0.01)
        curve = risk.likelihood_curve(make_report(), provider, 24)
        provider.close()
        assert list(curve.probs) == [i / 100 for i in range(1, 25)]
        assert [body["horizon_step"] for body in handler.requests_seen] \
            == [*range(25), 5]
        # step 5 was answered last, but the curve's last step is 24
        assert provider.last_recommendation == "step 24"

    def test_client_error_fails_at_once(self, keepalive_server):
        handler, server, url = keepalive_server
        handler.behavior = staticmethod(
            lambda body: (400, {"error": "no"}) if body["horizon_step"] == 7
            else _step_answer(body))
        provider = risk.llm_provider(url, timeout=2.0, backoff=0.01)
        with pytest.raises(CurveError) as failure:
            risk.likelihood_curve(make_report(), provider, 24)
        provider.close()
        assert failure.value.step == 7
        assert isinstance(failure.value.__cause__, TransportError)
        assert "400" in str(failure.value.__cause__)
        # the answers in flight were read; nothing was sent twice
        assert [body["horizon_step"] for body in handler.requests_seen] \
            == list(range(25))

    def test_dropped_connection_resends_the_rest_at_once(self,
                                                         keepalive_server):
        handler, server, url = keepalive_server

        def behavior(body):
            handler.drop = body["horizon_step"] == 10  # closes, unannounced
            return _step_answer(body)

        handler.behavior = staticmethod(behavior)
        provider = risk.llm_provider(url, timeout=2.0, backoff=5.0)
        start = time.monotonic()
        curve = risk.likelihood_curve(make_report(), provider, 24)
        assert time.monotonic() - start < 2.0  # no retry sleep
        provider.close()
        assert list(curve.probs) == [i / 100 for i in range(1, 25)]
        assert [body["horizon_step"] for body in handler.requests_seen] \
            == list(range(25))
        assert server.connections == 2
        # step 11 opened the second connection alone
        assert handler.ahead_seen[11:] == [False] + [True] * 12 + [False]

    def test_closing_server_sent_one_request_per_connection(self,
                                                             stub_server):
        # the HTTP/1.0 stub reads one request per connection, then closes:
        # no request may wait behind another
        handler, url = stub_server
        handler.behavior = staticmethod(_step_answer)
        provider = risk.llm_provider(url, timeout=2.0)
        curve = risk.likelihood_curve(make_report(), provider, 4)
        assert list(curve.probs) == [0.01, 0.02, 0.03, 0.04]
        assert [body["horizon_step"] for body in handler.requests_seen] \
            == list(range(5))
        assert handler.ahead_seen == [False] * 5


class TestLlmProviderTls:
    """HTTPS, verified against ``SSL_CERT_FILE`` or the system store."""

    @pytest.fixture(autouse=True)
    def no_cert_dir(self, monkeypatch):
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)

    def test_trusted_calls_share_one_connection(self, https_server,
                                                monkeypatch):
        handler, server, url = https_server
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DIR / "cert.pem"))
        provider = risk.llm_provider(url, timeout=2.0, max_retries=0)
        assert [provider(make_report(), i) for i in range(3)] == [0.5] * 3
        provider.close()
        assert [body["horizon_step"] for body in handler.requests_seen] \
            == [0, 1, 2]
        assert server.connections == 1

    def test_untrusted_certificate_fails(self, https_server, monkeypatch):
        handler, server, url = https_server
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        provider = risk.llm_provider(url, timeout=2.0, max_retries=0)
        with pytest.raises(TransportError) as failure:
            provider(make_report(), 0)
        assert isinstance(failure.value.__cause__,
                          ssl.SSLCertVerificationError)
        assert "CERTIFICATE_VERIFY_FAILED" in str(failure.value.__cause__)
        assert handler.requests_seen == []


class TestDispatch:
    def make_tte(self, step=5, max_prob=0.6):
        return risk.TTEResult(tte_step=step, max_prob=max_prob,
                              step_seconds=3600.0)

    def test_severity_rules(self):
        policy = risk.AlertPolicy(critical_prob=0.8, critical_horizon=2,
                                  warn_prob=0.5)
        cases = [
            (0.9, 5, 0.6, "critical"),   # probability threshold
            (0.1, 2, 0.5, "critical"),   # imminent and likely episode
            (0.1, 2, 0.49, "info"),      # imminent but unlikely episode
            (0.6, 5, 0.6, "warn"),
            (0.1, 5, 0.6, "info"),
        ]
        for i, (prob_now, step, max_prob, expected) in enumerate(cases):
            payload = risk.dispatch_alert(
                self.make_tte(step=step, max_prob=max_prob), prob_now,
                policy, "s0000", float(i))
            assert payload.severity == expected
            assert payload.to_dict()["severity"] == expected

    def test_payload_contents(self):
        payload = risk.dispatch_alert(self.make_tte(step=3, max_prob=0.7),
                                      0.85, risk.AlertPolicy(),
                                      "s0007", 42.0,
                                      recommendation="seek care")
        assert payload.to_dict() == {
            "session_id": "s0007", "timestamp": 42.0, "tte_step": 3,
            "max_prob": 0.7, "prob_now": 0.85, "recommendation": "seek care",
            "severity": "critical"}
