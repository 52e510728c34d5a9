"""A keep-alive HTTP/1.1 client small enough that its own cost is known.

The load generator shares two cores with the server it measures, so the
client does the least it can: one socket, hand-written request heads, a
buffered reader, ``Content-Length`` bodies only (all the server sends).
``http.client`` costs three to four times as much per request.
"""

from __future__ import annotations

import socket


class Connection:
    """One keep-alive connection to ``host:port``."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self._post_head = (
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: "
        ).encode("latin-1")

    def send_post(self, path: bytes, body: bytes) -> None:
        self.sock.sendall(
            b"POST " + path + b" HTTP/1.1\r\n" + self._post_head
            + str(len(body)).encode("latin-1") + b"\r\n\r\n" + body
        )

    def post(self, path: bytes, body: bytes) -> tuple[int, bytes, str]:
        """POST ``body``; returns (status, body, X-Query-Id or '')."""
        self.send_post(path, body)
        return self.read_response()

    def get(self, path: bytes) -> tuple[int, bytes, str]:
        self.sock.sendall(
            b"GET " + path + b" HTTP/1.1\r\nHost: bench\r\n\r\n"
        )
        return self.read_response()

    def read_response(self) -> tuple[int, bytes, str]:
        readline = self.reader.readline
        status_line = readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line[9:12])
        length = 0
        query_id = ""
        while True:
            line = readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name = line[:15].lower()
            if name.startswith(b"content-length:"):
                length = int(line[15:])
            elif name.startswith(b"x-query-id:"):
                query_id = line[11:].strip().decode("latin-1")
        return status, self.reader.read(length) if length else b"", query_id

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
