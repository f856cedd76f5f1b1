"""OpenAI-compatible chat-completion mock served from a benchmark thread
on localhost. Replies come from a queue the benchmark fills before each
`plan --mllm` call; every POST is counted, so attempts and retries are
measured from outside the client."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockEndpoint:
    def __init__(self):
        self._lock = threading.Lock()
        self._replies: list[str] = []
        self.posts = 0
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with endpoint._lock:
                    endpoint.posts += 1
                    reply = endpoint._replies.pop(0) if endpoint._replies else None
                if self.path != "/v1/chat/completions" or reply is None:
                    self.send_error(404 if reply is not None else 503)
                    return
                payload = json.dumps({"choices": [{"message": {"content": reply}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        # a short poll interval lets shutdown return within 50 ms
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1"

    def queue(self, replies: list[str]) -> None:
        with self._lock:
            self._replies = list(replies)

    def pending(self) -> int:
        with self._lock:
            return len(self._replies)

    def __enter__(self) -> "MockEndpoint":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
