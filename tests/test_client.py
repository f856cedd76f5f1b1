"""Client tests against a local mock chat-completion endpoint
(`mock_endpoint` in conftest)."""

import hashlib
import json
import re
import sys
import threading
from types import SimpleNamespace

import pytest

from scotkit import client
from scotkit.client import (
    SYSTEM_PROMPT_SHA256,
    ClientConfig,
    build_request,
    request_plan,
)
from scotkit.geometry import BBox

from conftest import in_daemon_thread, on_daemon_threads


@pytest.fixture(autouse=True)
def fresh_gates(monkeypatch):
    """No in-flight slots at the start of each test, so a slot that one
    test leaks fails that test instead of blocking the next."""
    monkeypatch.setattr(client, "_GATES", {})


@pytest.fixture()
def config(mock_endpoint, monkeypatch):
    base_url, _ = mock_endpoint
    monkeypatch.setenv("SCOT_API_KEY", "test-key")
    return ClientConfig(base_url=base_url, model_name="mock-model")


@pytest.fixture()
def prompt_reads(monkeypatch):
    """Packages whose resources the client opens, from an empty prompt cache."""
    reads = []
    files = client.resources.files

    def counting_files(package):
        reads.append(package)
        return files(package)

    monkeypatch.setattr(client, "resources", SimpleNamespace(files=counting_files))
    client.load_system_prompt.cache_clear()
    yield reads
    client.load_system_prompt.cache_clear()


class TestBuildRequest:
    def test_two_messages(self):
        messages = build_request("a cat on a mat")
        assert len(messages) == 2
        assert messages[0]["role"] == "system"
        assert messages[0]["content"].startswith(
            "You are a Layout-to-Image Generation Spatial Planning Expert."
        )
        assert messages[1] == {"role": "user", "content": "a cat on a mat"}

    def test_empty_prompt(self):
        with pytest.raises(ValueError, match="^user prompt must be non-empty$"):
            build_request("")

    def test_user_content_ends_with_prompt(self):
        messages = build_request("two dogs playing")
        assert messages[1]["content"].endswith("two dogs playing")

    def test_drifted_prompt_raises_on_every_request(self, monkeypatch, prompt_reads):
        monkeypatch.setattr(client, "SYSTEM_PROMPT_SHA256", "0" * 64)
        for _ in range(2):
            with pytest.raises(ValueError, match="^system prompt resource drifted: sha256 "):
                build_request("a cat on a mat")
        assert len(prompt_reads) == 2

    def test_prompt_digest_pinned(self, system_prompt):
        assert hashlib.sha256(system_prompt.encode("utf-8")).hexdigest() == SYSTEM_PROMPT_SHA256
        assert system_prompt.startswith("You are a Layout-to-Image Generation Spatial Planning Expert.")
        assert system_prompt.rstrip().endswith("Below is the input text:")


class TestRequestPlan:
    def test_valid_first_try(self, config, mock_endpoint, golden_examples):
        _, state = mock_endpoint
        state.replies = [golden_examples[0]]
        out = request_plan(config, "a marketplace")
        assert len(out.objects) == 8
        assert len(state.requests) == 1
        assert state.requests[0]["model"] == "mock-model"
        assert state.requests[0]["temperature"] == 0.2

    def test_prompt_read_once_per_process(self, config, mock_endpoint, golden_examples,
                                          prompt_reads):
        _, state = mock_endpoint
        state.replies = ["not json at all", golden_examples[1]]
        for _ in range(3):
            request_plan(config, "a marketplace")
        assert len(state.requests) == 4
        assert prompt_reads == ["scotkit.resources"]

    def test_retry_with_feedback(self, config, mock_endpoint, golden_examples):
        _, state = mock_endpoint
        state.replies = ["not json at all", golden_examples[1]]
        out = request_plan(config, "a park")
        assert out.objects[0][1] == BBox(0, 0, 1000, 1000)
        assert len(state.requests) == 2
        retry_messages = state.requests[1]["messages"]
        assert retry_messages[-1]["role"] == "user"
        assert "Your previous output was invalid" in retry_messages[-1]["content"]
        assert "re-emit the JSON only" in retry_messages[-1]["content"]

    def test_an_unfenced_reply_that_quotes_a_fence_parses_in_one_post(self, config, mock_endpoint):
        _, state = mock_endpoint
        reply = {"reasoning": "I answer as ```json``` asks", "prompt": "a cat<|bbox_1|>",
                 "objects": {"1. cat": [0, 0, 10, 10]}}
        state.replies = [json.dumps(reply)]
        out = request_plan(config, "a cat")
        assert out.reasoning == reply["reasoning"]
        assert len(state.requests) == 1

    def test_a_placeholder_the_codec_rejects_is_fed_back(self, config, mock_endpoint,
                                                         golden_examples):
        _, state = mock_endpoint
        bad = {"reasoning": "r", "prompt": "a cat<|bbox_1|> and a dog<|bbox_x|>",
               "objects": {"1. cat": [0, 0, 10, 10]}}
        state.replies = [json.dumps(bad), golden_examples[1]]
        request_plan(config, "a park")
        assert len(state.requests) == 2
        assert "malformed placeholder: '<|bbox_x|>'" in state.requests[1]["messages"][-1]["content"]

    def test_invalid_after_retries(self, config, mock_endpoint):
        _, state = mock_endpoint
        state.replies = ["garbage"]
        cfg = ClientConfig(
            base_url=config.base_url, model_name="mock", max_retries=1
        )
        with pytest.raises(ValueError, match="^planner output still invalid after 2 attempts: "
                                             "not valid JSON: Expecting value"):
            request_plan(cfg, "anything")
        assert len(state.requests) == 2

    def test_missing_api_key(self, mock_endpoint, monkeypatch):
        base_url, _ = mock_endpoint
        monkeypatch.delenv("SCOT_API_KEY", raising=False)
        cfg = ClientConfig(base_url=base_url, model_name="mock")
        with pytest.raises(ValueError, match="^environment variable SCOT_API_KEY is not set$"):
            request_plan(cfg, "anything")

    def test_transport_error_status(self, config, mock_endpoint):
        _, state = mock_endpoint
        state.status = 500
        state.replies = ["unused"]
        with pytest.raises(OSError, match=r"^transport failure \(500\): boom$"):
            request_plan(config, "anything")

    def test_transport_error_carries_the_error_body_and_is_an_os_error(self, config, mock_endpoint):
        _, state = mock_endpoint
        state.status = 503
        with pytest.raises(OSError, match=r"^transport failure \(503\): boom$"):
            request_plan(config, "anything")

    def test_request_is_json_with_the_bearer_key(self, config, mock_endpoint, golden_examples):
        _, state = mock_endpoint
        state.replies = [golden_examples[0]]
        request_plan(config, "a marketplace")
        [headers] = state.headers
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer test-key"

    @pytest.mark.parametrize("payload", [
        b"not json", b"[]", b'{"choices": []}', b'{"choices": [{"message": {"content": 5}}]}',
    ])
    def test_malformed_completion_payload(self, config, mock_endpoint, payload):
        _, state = mock_endpoint
        state.payload = payload
        with pytest.raises(OSError, match="malformed completion payload"):
            request_plan(config, "anything")

    def test_unreachable_endpoint(self, monkeypatch):
        monkeypatch.setenv("SCOT_API_KEY", "test-key")
        for base_url, message in (
            ("http://127.0.0.1:1/v1", r"^POST http://127\.0\.0\.1:1/v1/chat/completions: "),
            ("ftp://127.0.0.1/v1", r"^base_url is not an http\(s\) URL: 'ftp://127\.0\.0\.1/v1'$"),
        ):
            cfg = ClientConfig(base_url=base_url, model_name="mock", timeout=5)
            with pytest.raises(OSError, match=message):
                request_plan(cfg, "anything")

    def test_in_flight_cap(self, config, mock_endpoint, golden_examples):
        _, state = mock_endpoint
        state.replies = [golden_examples[2]]
        state.delay = 0.04
        for out in on_daemon_threads([lambda i=i: request_plan(config, f"prompt {i}")
                                      for i in range(32)], 30):
            assert len(out.objects) == 2
        assert state.max_active <= config.max_in_flight
        assert len(state.requests) == 32

    def test_a_cap_of_one_admits_one_request_at_a_time(self, config, mock_endpoint,
                                                        golden_examples):
        _, state = mock_endpoint
        state.replies = [golden_examples[2]]
        state.delay = 0.02
        cfg = ClientConfig(base_url=config.base_url, model_name="mock", max_in_flight=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the first use too
        try:
            for out in on_daemon_threads([lambda i=i: request_plan(cfg, f"prompt {i}")
                                          for i in range(16)], 30):
                assert len(out.objects) == 2
        finally:
            sys.setswitchinterval(interval)
        assert state.max_active == 1
        assert len(state.requests) == 16

    def test_a_failed_post_frees_its_slot(self, config, mock_endpoint, golden_examples):
        _, state = mock_endpoint
        state.replies = [golden_examples[2]]
        ok = ClientConfig(base_url=config.base_url, model_name="mock", max_in_flight=1, timeout=5)
        refused = ClientConfig(base_url="http://127.0.0.1:1/v1", model_name="mock",
                               max_in_flight=1, timeout=5)
        for cfg, fault, message in (
            (refused, {}, r"^POST http://127\.0\.0\.1:1/v1/chat/completions: "),
            (ok, {"status": 503}, r"^transport failure \(503\): boom$"),
            (ok, {"payload": b"not json"}, "^malformed completion payload: "),
        ):
            vars(state).update(fault)
            with pytest.raises(OSError, match=message):
                request_plan(cfg, "anything")
            state.status, state.payload = 200, None
            assert len(in_daemon_thread(request_plan, ok, "anything").objects) == 2


class TestConfigValidation:
    def test_bad_retries(self):
        with pytest.raises(ValueError):
            ClientConfig(base_url="http://x", model_name="m", max_retries=-1)

    def test_bad_in_flight(self):
        with pytest.raises(ValueError):
            ClientConfig(base_url="http://x", model_name="m", max_in_flight=0)

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            ClientConfig(base_url="http://x", model_name="m", timeout=0)

    def test_timeout_beyond_the_socket_bound(self):
        # the largest timeout socket.settimeout accepts: 9223372036.0 on a 64-bit host
        message = re.escape(f"timeout must be <= {threading.TIMEOUT_MAX}, got ")
        with pytest.raises(ValueError, match=f"^{message}1e\\+308$"):
            ClientConfig(base_url="http://x", model_name="m", timeout=1e308)
        with pytest.raises(ValueError, match=f"^{message}"):
            ClientConfig(base_url="http://x", model_name="m", timeout=threading.TIMEOUT_MAX * 2)
        config = ClientConfig(base_url="http://x", model_name="m", timeout=threading.TIMEOUT_MAX)
        assert config.timeout == threading.TIMEOUT_MAX
