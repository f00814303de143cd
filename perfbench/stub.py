"""Local stand-in for the remote likelihood provider.

Speaks the JSON wire protocol of ``vasosim.risk.LlmProvider`` over HTTP/1.1
keep-alive and answers each POST with the package's logistic reference
built from the weights, bias and horizon decay given on the command line.
Run from the repository root:

    python3 perfbench/stub.py W_STENOSIS W_DENSITY W_HORIZON BIAS DECAY

It prints the port it listens on (127.0.0.1), serves until its standard
input is closed, and answers ``GET /stats`` with the number of POSTs served
and the summed handler time, so the benchmark can count HTTP requests and
retries and separate server time from client time.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from vasosim import risk  # noqa: E402


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # without this, delayed ACK on the client holds every small response
    disable_nagle_algorithm = True
    timeout = 10  # closes keep-alive connections a client left idle

    def do_POST(self):
        t0 = time.perf_counter()
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        f = body["features"]
        report = risk.BiophysicsReport(
            stenosis_index=f["stenosis_index"],
            density_fractional_change=f["density_fractional_change"],
            tof=f["tof_s"], timestamp=0.0, session_id="stub",
            residual_norm=f["residual_norm"], converged=f["converged"])
        self._reply({"probability": self.server.provider(
            report, body["horizon_step"])})
        with self.server.lock:
            self.server.requests += 1
            self.server.handler_s += time.perf_counter() - t0

    def do_GET(self):
        with self.server.lock:
            stats = {"requests": self.server.requests,
                     "handler_s": self.server.handler_s}
        self._reply(stats)

    def _reply(self, obj):
        data = json.dumps(obj).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


def main(argv):
    w_stenosis, w_density, w_horizon, bias, decay = map(float, argv)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.provider = risk.logistic_provider(
        (w_stenosis, w_density, w_horizon), bias, decay)
    server.lock = threading.Lock()
    server.requests = 0
    server.handler_s = 0.0
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


if __name__ == "__main__":
    main(sys.argv[1:])
