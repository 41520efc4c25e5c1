"""A stdlib ``urllib`` client for the ``repro serve`` wire API.

Thin by design: every method maps onto exactly one endpoint of
:mod:`repro.serve.server` and traffics in the same ``repro-wire/1``
records, so the client needs no schema layer of its own. HTTP failures
and error answers surface as :class:`~repro.errors.ServeError` carrying
the HTTP status (0 when the daemon was unreachable).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Iterator

from repro.errors import ServeError
from repro.serve import wire


class ServeClient:
    """Client for one ``repro serve`` daemon, e.g.
    ``ServeClient("http://127.0.0.1:8732")``."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ----------------------------------------------------------

    def _request(self, path: str, body: dict | None = None):
        url = f"{self.base_url}{path}"
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except (ValueError, AttributeError):
                detail = ""
            message = detail or f"{exc.code} {exc.reason}"
            raise ServeError(f"{url}: {message}",
                             status=exc.code) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServeError(
                f"cannot reach {url}: {exc}; is `repro serve` running?"
            ) from None

    def _json(self, path: str, body: dict | None = None) -> dict:
        with self._request(path, body) as response:
            return json.loads(response.read())

    # -- endpoints ----------------------------------------------------------

    def ping(self) -> dict:
        """Liveness + schema check; raises :class:`ServeError` when down."""
        answer = self._json("/v1/ping")
        schema = answer.get("schema")
        if schema != wire.WIRE_SCHEMA:
            raise ServeError(
                f"{self.base_url} speaks {schema!r}, this client speaks "
                f"{wire.WIRE_SCHEMA!r}")
        return answer

    def submit(self, request) -> dict:
        """POST one request; returns the job status (with ``id``).

        ``request`` is a :class:`~repro.serve.wire.SweepRequest` (one
        simulation is a one-job request) or an already-encoded wire
        record. A resubmission of an identical request comes back with
        ``deduplicated: true`` and the original job's id.
        """
        record = request if isinstance(request, dict) \
            else wire.request_to_wire(request)
        return self._json("/v1/jobs", body=record)

    def jobs(self) -> list[dict]:
        return self._json("/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json(f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The finished job's results; 409 → :class:`ServeError` if not."""
        return self._json(f"/v1/jobs/{job_id}/result")

    def events(self, job_id: str, start: int = 0) -> Iterator[dict]:
        """Stream the job's NDJSON progress events (follows a live job)."""
        with self._request(f"/v1/jobs/{job_id}/events?start={start}") \
                as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def wait(self, job_id: str, timeout: float | None = None,
             poll_seconds: float = 0.2) -> dict:
        """Poll until the job leaves queued/running; returns its status."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] not in ("queued", "running"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"{job_id} still {status['state']} after {timeout:.1f}s")
            time.sleep(poll_seconds)

    def run(self, request, timeout: float | None = None) -> dict:
        """Submit, wait, and fetch results in one call (CLI convenience)."""
        status = self.submit(request)
        final = self.wait(status["id"], timeout=timeout)
        result = self.result(status["id"])
        result["deduplicated"] = status.get("deduplicated", False)
        result.update({"cached_jobs": final["cached_jobs"],
                       "executed_jobs": final["executed_jobs"]})
        return result


__all__ = ["ServeClient"]
