"""Durable, content-addressed storage of compile runs.

The :class:`ArtifactStore` persists every served
:class:`~repro.service.schemas.CompileResponse` (and the emitted bitstream,
when the request asked for one) under a run directory named by the content
hash of the response, with a JSON index for listing and reloading past
runs::

    <root>/
      index.json                   run_id -> {model, status, created_at, ...}
      runs/<run_id>/response.json  the full wire response
      runs/<run_id>/request.json   the request alone (convenience copy)
      runs/<run_id>/bitstream.json the chip configuration (when emitted)

Content addressing makes saves idempotent: re-serving an identical request
with an identical outcome lands on the same run directory instead of
accumulating duplicates, which is what makes sweep results comparable
across sessions.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

try:  # POSIX only; on other platforms saves fall back to the thread lock
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from ..analysis.verify import verification_enabled
from ..errors import InvalidRequestError, VerificationError
from .schemas import CompileResponse

__all__ = ["ArtifactStore", "RunRecord"]

_INDEX_NAME = "index.json"
_RUNS_DIR = "runs"


def _content_address(data: dict[str, Any]) -> str:
    """Hash of a response dict without its run-environment-dependent
    timing fields (see :meth:`ArtifactStore.run_id_for`)."""
    timings = data.get("timings")
    if timings:
        timings["passes"] = [
            {k: v for k, v in entry.items() if k not in ("seconds", "cached")}
            for entry in timings["passes"]
        ]
        for volatile in ("total_seconds", "cache_hits", "cache_misses"):
            timings.pop(volatile, None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    """One index entry: the metadata of a persisted run."""

    run_id: str
    model: str
    status: str
    duplication_degree: int
    created_at: float
    has_bitstream: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "model": self.model,
            "status": self.status,
            "duplication_degree": self.duplication_degree,
            "created_at": self.created_at,
            "has_bitstream": self.has_bitstream,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(data["run_id"]),
            model=str(data["model"]),
            status=str(data["status"]),
            duplication_degree=int(data.get("duplication_degree") or 1),
            created_at=float(data.get("created_at") or 0.0),
            has_bitstream=bool(data.get("has_bitstream")),
        )


class ArtifactStore:
    """Persist and reload compile responses under a root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.runs_root = self.root / _RUNS_DIR
        self.runs_root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / _INDEX_NAME
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # index handling
    # ------------------------------------------------------------------

    @contextmanager
    def _index_guard(self):
        """Serialize index read-modify-write across threads *and* processes.

        Two concurrent savers (e.g. a ``serve-batch`` pool in one shell and
        an ``FPSAClient`` in another) must not lose each other's entries, so
        the thread lock is paired with an advisory ``flock`` on a lock file
        next to the index where the platform provides one.
        """
        with self._lock:
            if fcntl is None:  # pragma: no cover - non-POSIX
                yield
                return
            with open(self.root / ".index.lock", "w") as lockfile:
                fcntl.flock(lockfile, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(lockfile, fcntl.LOCK_UN)

    def _read_index(self) -> dict[str, dict[str, Any]]:
        if not self._index_path.exists():
            return {}
        with open(self._index_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _write_index(self, index: dict[str, dict[str, Any]]) -> None:
        # write-then-rename so a crashed save never truncates the index
        tmp = self._index_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(index, handle, indent=2, sort_keys=True)
        tmp.replace(self._index_path)

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    @staticmethod
    def run_id_for(response: CompileResponse) -> str:
        """Content-addressed run id: hash of the canonical response JSON
        minus everything run-environment-dependent (wall-clock timings and
        the stage-cache hit/miss state), so re-serving an identical request
        with an identical outcome maps to the same run id."""
        return _content_address(response.to_dict())

    def save(self, response: CompileResponse, bitstream_json: str | None = None) -> str:
        """Persist one response (and optional bitstream); returns the run id."""
        run_id = self.run_id_for(response)
        run_dir = self.runs_root / run_id
        with self._index_guard():
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "response.json").write_text(
                response.to_json(indent=2), encoding="utf-8"
            )
            (run_dir / "request.json").write_text(
                response.request.to_json(indent=2), encoding="utf-8"
            )
            if bitstream_json is not None:
                (run_dir / "bitstream.json").write_text(bitstream_json, encoding="utf-8")
            index = self._read_index()
            existing = index.get(run_id)
            record = RunRecord(
                run_id=run_id,
                model=response.request.model,
                status=response.status,
                duplication_degree=response.request.duplication_degree,
                created_at=(
                    existing["created_at"] if existing else time.time()
                ),
                has_bitstream=bitstream_json is not None
                or bool(existing and existing.get("has_bitstream")),
            )
            index[run_id] = record.to_dict()
            self._write_index(index)
        return run_id

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._read_index())

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._read_index()

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.list_runs())

    def list_runs(
        self, model: str | None = None, status: str | None = None
    ) -> list[RunRecord]:
        """Index entries (newest first), optionally filtered."""
        records = [RunRecord.from_dict(entry) for entry in self._read_index().values()]
        if model is not None:
            records = [r for r in records if r.model == model]
        if status is not None:
            records = [r for r in records if r.status == status]
        return sorted(records, key=lambda r: r.created_at, reverse=True)

    def _run_dir(self, run_id: str) -> Path:
        run_dir = self.runs_root / run_id
        if not (run_dir / "response.json").exists():
            raise InvalidRequestError(
                f"unknown run id {run_id!r} in store {str(self.root)!r}",
                details={"run_id": run_id, "store": str(self.root)},
            )
        return run_dir

    def load(self, run_id: str, verify: bool | None = None) -> CompileResponse:
        """Reload the full response of a past run.

        With verification on (``verify=True`` or ``REPRO_VERIFY=1``), the
        loaded response's content address is recomputed and compared to
        ``run_id``: a tampered or bit-rotted ``response.json`` raises a
        :class:`~repro.errors.VerificationError` at the load boundary
        instead of feeding silently-corrupt numbers downstream.
        """
        payload = (self._run_dir(run_id) / "response.json").read_text(encoding="utf-8")
        response = CompileResponse.from_json(payload)
        if verification_enabled(verify):
            # hash the stored dict, not the re-parsed response: a run saved
            # before a request field was retired (``pnr_jobs``) still
            # carries that field and must keep its own address
            expected = _content_address(json.loads(payload))
            if expected != run_id:
                raise VerificationError(
                    f"store: content-address: run {run_id!r} re-hashes to "
                    f"{expected!r}; the stored response was modified after "
                    f"it was saved",
                    stage="store",
                    invariant="content-address",
                    ids=(run_id, expected),
                    details={"store": str(self.root)},
                )
        return response

    def load_bitstream(self, run_id: str) -> str | None:
        """The stored bitstream JSON of a run, or ``None`` if none was emitted."""
        path = self._run_dir(run_id) / "bitstream.json"
        return path.read_text(encoding="utf-8") if path.exists() else None

    def latest(self, model: str | None = None) -> RunRecord | None:
        """The most recent run (of ``model``, when given), if any."""
        runs = self.list_runs(model=model)
        return runs[0] if runs else None
