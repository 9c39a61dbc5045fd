"""Minimal HTTP/1.1 framing over :mod:`asyncio` streams.

The serving layer deliberately avoids web frameworks (the runtime
dependency budget of this repository is the standard library) and the
blocking :mod:`http.server`; this module is the complete wire protocol
it speaks instead:

- :func:`read_request` parses one request (request line, headers, and a
  ``Content-Length`` body) from a stream reader with hard limits on
  header and body size, raising :class:`ProtocolError` with the HTTP
  status and machine-readable error code the app layer should answer
  with;
- :func:`send_json` / :func:`send_response` write fixed-length
  responses.

Connections are keep-alive by default (HTTP/1.1 semantics); a client
``Connection: close`` header or a protocol error closes after the
response.  See ``docs/SERVING.md`` for the full endpoint contract.

Examples
--------
A handler answering a parsed request::

    request = await read_request(reader)
    if request is None:          # client closed the idle connection
        return
    await send_json(writer, 200, {"ok": True},
                    keep_alive=request.keep_alive)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs, urlsplit

import asyncio

from repro.exceptions import ReproError

__all__ = [
    "HTTPRequest",
    "ProtocolError",
    "read_request",
    "send_json",
    "send_response",
]

#: Reason phrases for the statuses this server emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Hard cap on the request line + headers (bytes).
MAX_HEADER_BYTES = 16 * 1024
#: Hard cap on a request body (bytes) unless the app overrides it.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed or inadmissible HTTP request.

    Carries the HTTP ``status`` to answer with and a short
    machine-readable ``code`` for the JSON error envelope
    (``{"error": {"code": ..., "message": ...}}``).

    ``request_id`` carries the client's ``X-Request-Id`` when the error
    was raised after the headers were parsed, so even 413/501 rejections
    produced below the app layer echo the id the client sent; ``None``
    means the app layer should mint a fresh id for the error envelope.

    Examples
    --------
    >>> err = ProtocolError(413, "payload_too_large", "body exceeds cap")
    >>> err.status, err.code
    (413, 'payload_too_large')
    """

    def __init__(self, status: int, code: str, message: str,
                 request_id: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.request_id = request_id


@dataclass
class HTTPRequest:
    """One parsed HTTP request.

    ``headers`` keys are lower-cased; repeated headers are joined with
    commas.  ``params`` holds the decoded query string
    (``{name: [values...]}``).
    """

    method: str
    path: str
    params: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Correlation id assigned by the app layer (honoring an inbound
    #: ``X-Request-Id`` header) and echoed in every response envelope.
    request_id: str = ""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default unless the client sent ``Connection: close``."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self):
        """The body parsed as JSON.

        Raises :class:`ProtocolError` (400 ``bad_json``) when the body
        is empty or not valid JSON — the caller converts this straight
        into the typed error response.
        """
        if not self.body:
            raise ProtocolError(400, "bad_json", "request body is empty")
        try:
            return json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(
                400, "bad_json", f"request body is not valid JSON: {exc}"
            ) from exc

    def param(self, name: str) -> Optional[str]:
        """The last value of query parameter ``name``, if present."""
        values = self.params.get(name)
        return values[-1] if values else None


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[HTTPRequest]:
    """Read and parse one request; ``None`` on a cleanly closed idle
    connection.

    Raises :class:`ProtocolError` on oversized headers (431), an
    oversized body (413), a chunked request body (501 — clients must
    send ``Content-Length``), or anything malformed (400).
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            400, "bad_request", "connection closed mid-request"
        ) from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(
            431, "headers_too_large",
            f"request head exceeds {MAX_HEADER_BYTES} bytes",
        ) from exc

    try:
        head = raw.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 is total
        raise ProtocolError(400, "bad_request", "undecodable head") from exc
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(
            400, "bad_request", f"malformed request line: {lines[0]!r}"
        )
    method, target, _version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(
                400, "bad_request", f"malformed header line: {line!r}"
            )
        key = name.strip().lower()
        value = value.strip()
        headers[key] = f"{headers[key]},{value}" if key in headers else value

    # Headers are parsed from here on: rejections below carry the
    # client's correlation id so even pre-app errors echo it.
    inbound_id = headers.get("x-request-id")

    if "transfer-encoding" in headers:
        raise ProtocolError(
            501, "unsupported_transfer_encoding",
            "chunked request bodies are not supported; send Content-Length",
            request_id=inbound_id,
        )

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
            if length < 0:
                raise ValueError
        except ValueError:
            raise ProtocolError(
                400, "bad_request",
                f"malformed Content-Length: {length_header!r}",
                request_id=inbound_id,
            )
        if length > max_body_bytes:
            raise ProtocolError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte cap",
                request_id=inbound_id,
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError(
                    400, "bad_request", "connection closed mid-body",
                    request_id=inbound_id,
                ) from exc

    split = urlsplit(target)
    return HTTPRequest(
        method=method.upper(),
        path=split.path or "/",
        params=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, length: int, keep_alive: bool,
          extra_headers: Optional[dict[str, str]] = None) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        f"Content-Length: {length}",
    ]
    if status == 429:
        lines.append("Retry-After: 1")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[dict[str, str]] = None,
) -> None:
    """Write one fixed-length response and drain the transport."""
    writer.write(
        _head(status, content_type, len(body), keep_alive,
              extra_headers=extra_headers)
        + body
    )
    await writer.drain()


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    keep_alive: bool = True,
    extra_headers: Optional[dict[str, str]] = None,
) -> None:
    """Serialize ``payload`` compactly and send it as one JSON response."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
    await send_response(writer, status, body, keep_alive=keep_alive,
                        extra_headers=extra_headers)
