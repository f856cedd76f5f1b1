"""Shared fixtures: golden planner examples, a mock chat-completion
endpoint, concurrent calls with a deadline and satisfiable spec
synthesis."""

import json
import random
import re
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources

import pytest

from scotkit.constraints import (
    AlignedRow,
    Contains,
    LeftOf,
    NonOverlap,
    RightOf,
    Above,
    Below,
)
from scotkit.geometry import BBox
from scotkit.planner import EntitySpec, PlannerOutput, SceneSpec

_OUTPUT_BLOCK_RE = re.compile(r"Output:\s*```json\s*(.*?)```", re.DOTALL)


def planner_output(prompt: str, objects) -> PlannerOutput:
    """The planner output with this prompt whose object n is objects[n],
    keyed "n. object", for objects keyed 1..N in order."""
    return PlannerOutput("", prompt, tuple((f"{n}. object", box) for n, box in objects.items()))


def load_system_prompt() -> str:
    return (
        resources.files("scotkit.resources")
        .joinpath("planner_system_prompt.txt")
        .read_text(encoding="utf-8")
    )


@pytest.fixture(scope="session")
def system_prompt() -> str:
    return load_system_prompt()


@pytest.fixture(scope="session")
def golden_examples(system_prompt) -> list[str]:
    """The seven worked planner outputs, as raw fenced JSON blocks."""
    blocks = [f"```json\n{m}\n```" for m in _OUTPUT_BLOCK_RE.findall(system_prompt)]
    assert len(blocks) == 7
    return blocks


class MockState:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests: list[dict] = []
        self.headers: list[dict] = []
        self.payload: bytes | None = None  # a 200 body sent as is, in place of a reply
        self.replies: list[str] = []
        self.active = 0
        self.max_active = 0
        self.delay = 0.0
        self.status = 200

    def next_reply(self) -> str:
        with self.lock:
            if len(self.replies) > 1:
                return self.replies.pop(0)
            return self.replies[0]


class MockHandler(BaseHTTPRequestHandler):
    state: MockState = None

    def do_POST(self):
        st = self.state
        with st.lock:
            st.active += 1
            st.max_active = max(st.max_active, st.active)
        try:
            if st.delay:
                time.sleep(st.delay)
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            with st.lock:
                st.requests.append(body)
                st.headers.append(dict(self.headers))
        finally:
            # leave the count before replying: the client frees its gate
            # slot on receipt and may send its next request at once
            with st.lock:
                st.active -= 1
        if self.path != "/v1/chat/completions":
            self.send_error(404)
            return
        if st.status != 200:
            self.send_response(st.status)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        payload = st.payload or json.dumps(
            {"choices": [{"message": {"content": st.next_reply()}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def mock_endpoint():
    state = MockState()
    handler = type("Handler", (MockHandler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base_url = f"http://127.0.0.1:{server.server_address[1]}/v1"
    yield base_url, state
    server.shutdown()
    server.server_close()


def on_daemon_threads(calls, seconds: float) -> list:
    """[call() for call in calls], each started at once on its own daemon
    thread and all awaited within `seconds`. A call that blocks for good
    (on a leaked in-flight slot) fails the test with a TimeoutError instead
    of hanging the run, as leaving a thread pool's `with` block would."""
    futures = []
    for call in calls:
        future = Future()

        def run(call=call, future=future):
            try:
                future.set_result(call())
            except BaseException as exc:
                future.set_exception(exc)

        threading.Thread(target=run, daemon=True).start()
        futures.append(future)
    deadline = time.monotonic() + seconds
    return [f.result(timeout=max(0.0, deadline - time.monotonic())) for f in futures]


def in_daemon_thread(fn, *args):
    """fn(*args) on a daemon thread, failing the test after 10 s if it
    blocks for good."""
    [result] = on_daemon_threads([lambda: fn(*args)], 10)
    return result


NOUNS = [
    "apple", "bench", "tree", "lamp", "mug", "sofa", "vase", "book",
    "chair", "ball", "hat", "drum", "kite", "shoe", "clock", "plant",
]


def synth_satisfiable_spec(seed: int) -> SceneSpec:
    """Build a spec whose constraints are all witnessed by a hidden
    layout, so a perfect planner could always reach zero violations."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    ncols = 1
    while ncols * ncols < n:
        ncols += 1
    nrows = -(-n // ncols)
    cell_w, cell_h = 1000 / ncols, 1000 / nrows

    ids = [f"e{i}" for i in range(n)]
    hidden: dict[str, BBox] = {}
    for i, eid in enumerate(ids):
        row, col = divmod(i, ncols)
        cx = (col + 0.5) * cell_w + rng.uniform(-0.1, 0.1) * cell_w
        cy = (row + 0.5) * cell_h + rng.uniform(-0.1, 0.1) * cell_h
        w = rng.uniform(0.3, 0.5) * cell_w
        h = rng.uniform(0.3, 0.5) * cell_h
        hidden[eid] = BBox(
            int(cx - w / 2), int(cy - h / 2), int(cx + w / 2), int(cy + h / 2)
        )

    def cx(eid):
        return (hidden[eid].xmin + hidden[eid].xmax) / 2

    def cy(eid):
        return (hidden[eid].ymin + hidden[eid].ymax) / 2

    cons = []
    n_directional = rng.randint(1, max(1, n - 1))
    attempts = 0
    while len(cons) < n_directional and attempts < 40:
        attempts += 1
        a, b = rng.sample(ids, 2)
        if abs(cx(a) - cx(b)) >= 60 and rng.random() < 0.5:
            cons.append(LeftOf(a, b) if cx(a) < cx(b) else RightOf(a, b))
        elif abs(cy(a) - cy(b)) >= 60:
            cons.append(Above(a, b) if cy(a) < cy(b) else Below(a, b))
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(ids, 2)
        cons.append(NonOverlap(a, b))
    if rng.random() < 0.3 and nrows > 1:
        row = rng.randrange(nrows)
        members = [ids[row * ncols + c] for c in range(ncols) if row * ncols + c < n]
        if len(members) >= 2:
            dev = max(abs(cy(m) - sum(cy(x) for x in members) / len(members)) for m in members)
            cons.append(AlignedRow(tuple(members), tol=dev + 15))
    if rng.random() < 0.25:
        scene_id = "scene"
        ids.append(scene_id)
        hidden[scene_id] = BBox(0, 0, 1000, 1000)
        inner = rng.choice(ids[:-1])
        cons.append(Contains(scene_id, inner, margin=0))

    entities = tuple(
        EntitySpec(
            id=eid,
            phrase=NOUNS[i % len(NOUNS)],
            category=NOUNS[i % len(NOUNS)],
            size="background" if eid == "scene" else ("small" if n > 6 else "medium"),
        )
        for i, eid in enumerate(ids)
    )
    return SceneSpec(entities=entities, constraints=tuple(cons))
