"""Chat-completion client that runs the packaged spatial-planning system
prompt against any OpenAI-compatible endpoint and returns a validated
PlannerOutput.

The system prompt ships as a package resource and is integrity-checked
against a pinned digest so silent edits cannot drift the planner
contract. Invalid model output triggers a bounded retry loop that feeds
the validator's error message back to the model. Requests go through
the standard library's `urllib`, which reads proxies from
HTTP(S)_PROXY / NO_PROXY and verifies TLS against the system store.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import os
import threading
import urllib.error
import urllib.request
from importlib import resources

from . import wire
from .planner import PlannerOutput, PlannerOutputError, parse_planner_output
from .wire import Record, assign

SYSTEM_PROMPT_RESOURCE = "planner_system_prompt.txt"
SYSTEM_PROMPT_SHA256 = "ca2418d0873776d3e0c596c589ebc9a85b33c558a24f48662aa7583fc4710ec6"


class ClientConfig(Record):
    base_url: str
    model_name: str
    api_key_env_var: str
    temperature: float
    timeout: float
    max_retries: int
    max_in_flight: int

    def __init__(self, base_url, model_name, api_key_env_var="SCOT_API_KEY",
                 temperature=0.2, timeout=120.0, max_retries=2, max_in_flight=4):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if timeout <= 0:
            raise ValueError("timeout must be > 0")
        # the socket layer overflows on a longer timeout
        if timeout > threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be <= {threading.TIMEOUT_MAX}, got {timeout}")
        assign(self, "base_url", base_url)
        assign(self, "model_name", model_name)
        assign(self, "api_key_env_var", api_key_env_var)
        assign(self, "temperature", temperature)
        assign(self, "timeout", timeout)
        assign(self, "max_retries", max_retries)
        assign(self, "max_in_flight", max_in_flight)


@functools.cache
def load_system_prompt() -> str:
    """The packaged system prompt, read and verified once per process."""
    text = (
        resources.files("scotkit.resources")
        .joinpath(SYSTEM_PROMPT_RESOURCE)
        .read_text(encoding="utf-8")
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != SYSTEM_PROMPT_SHA256:
        raise ValueError(f"system prompt resource drifted: sha256 {digest} != pinned")
    return text


def build_request(user_prompt: str) -> list[dict[str, str]]:
    """Two chat messages: the packaged system prompt (which closes with
    the input-text marker line) and the raw user prompt."""
    if not user_prompt:
        raise ValueError("user prompt must be non-empty")
    return [
        {"role": "system", "content": load_system_prompt()},
        {"role": "user", "content": user_prompt},
    ]


# One cap per max_in_flight value: concurrent calls that share a limit
# share its semaphore (setdefault is atomic, so first uses race safely).
_GATES: dict[int, threading.BoundedSemaphore] = {}


def _post_chat(config: ClientConfig, api_key: str, messages: list[dict[str, str]]) -> str:
    url = config.base_url.rstrip("/") + "/chat/completions"
    if not url.lower().startswith(("http://", "https://")):
        raise OSError(f"base_url is not an http(s) URL: {config.base_url!r}")
    body = {
        "model": config.model_name,
        "messages": messages,
        "temperature": config.temperature,
    }
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", "Authorization": f"Bearer {api_key}"},
        method="POST",
    )
    limit = config.max_in_flight
    try:
        with _GATES.setdefault(limit, threading.BoundedSemaphore(limit)):
            try:
                response = urllib.request.urlopen(request, timeout=config.timeout)
            except urllib.error.HTTPError as exc:
                response = exc  # an error status still carries a body
            with response:
                status, payload = response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise OSError(f"POST {url}: {getattr(exc, 'reason', exc)}") from exc
    if status != 200:
        raise OSError(f"transport failure ({status}): "
                      f"{payload.decode('utf-8', 'replace')[:500]}")
    try:
        content = wire.loads(payload)["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise OSError(f"malformed completion payload: {exc}") from exc
    if not isinstance(content, str):
        raise OSError(f"malformed completion payload: content is {type(content).__name__}")
    return content


def request_plan(config: ClientConfig, user_prompt: str) -> PlannerOutput:
    """Run the planner prompt against the configured endpoint.

    On schema-validation failure the error is appended as a user turn
    and the request retried, up to max_retries extra attempts.
    """
    api_key = os.environ.get(config.api_key_env_var)
    if not api_key:
        raise ValueError(f"environment variable {config.api_key_env_var} is not set")
    messages = build_request(user_prompt)
    last_error: PlannerOutputError | None = None
    for _ in range(config.max_retries + 1):
        raw = _post_chat(config, api_key, messages)
        try:
            return parse_planner_output(raw)
        except PlannerOutputError as exc:
            last_error = exc
            messages = messages + [
                {"role": "assistant", "content": raw},
                {
                    "role": "user",
                    "content": (
                        f"Your previous output was invalid: {exc}; "
                        "re-emit the JSON only"
                    ),
                },
            ]
    raise ValueError(
        f"planner output still invalid after {config.max_retries + 1} attempts: {last_error}"
    )
