"""Request/response schema of the serving API.

One task request (``POST /v1/task``) is a JSON document::

    {"task": {"generator": "pressure", "seed": 7, "k": 6,
              "strategy": "briggs", "params": {"rounds": 9},
              "max_steps": 100000, "max_seconds": 2.0},
     "verify": false,          # certify via repro.analysis (optional)
     "deadline": 1.5,          # wall-clock seconds granted (optional)
     "cache": "use"}           # "use" | "bypass" | "refresh" (optional)

``task`` is a :class:`repro.engine.tasks.TaskSpec` in its ``as_dict``
form, and the content address (:func:`repro.engine.tasks.task_hash`)
is shared with campaigns, which is what makes the result cache a common
substrate.  The service serves the built-in generators only: an
``"llvm"`` task's ``params.path`` must be the bare name of a file in
:func:`repro.frontend.corpus.corpus_dir`, and a dotted
``"module:function"`` generator or a ``"call"`` task is refused, so a
request can neither open a file outside the corpus nor import code.

:func:`parse_task_request` validates the document into a
:class:`TaskRequest`; validation failures raise
:class:`repro.serve.http.HttpError` (status 400) with a message naming
the offending field.

Admission classes: :func:`request_class` maps a spec onto ``"light"``
(polynomial heuristics) or ``"heavy"`` (exponential exact solvers and
fault injection), which the admission controller budgets
separately so one queue of slow solver calls cannot starve cheap
heuristic traffic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..engine.tasks import (
    FAULT_GENERATORS, STRATEGY_TABLE, TaskSpec, _corpus_file, task_hash,
)
from .http import HttpError

__all__ = [
    "TaskRequest",
    "parse_task_request",
    "request_class",
    "CACHE_MODES",
    "LIGHT",
    "HEAVY",
]

#: Cache interaction modes a request may ask for.
CACHE_MODES = ("use", "bypass", "refresh")

#: Admission class names.
LIGHT = "light"
HEAVY = "heavy"


@dataclass
class TaskRequest:
    """One admitted unit of client work, parsed and content-addressed."""

    spec: TaskSpec
    key: str
    verify: bool = False
    deadline: Optional[float] = None
    cache_mode: str = "use"

    @property
    def admission_class(self) -> str:
        """The admission class this request is budgeted under."""
        return request_class(self.spec)


def request_class(spec: TaskSpec) -> str:
    """Admission class of a spec: ``"heavy"`` for exponential work (a
    :data:`~repro.engine.tasks.STRATEGY_TABLE` row marked ``heavy``) and
    fault injection, else ``"light"``."""
    if STRATEGY_TABLE[spec.strategy].heavy \
            or spec.generator in FAULT_GENERATORS:
        return HEAVY
    return LIGHT


def _check_served(spec: TaskSpec) -> None:
    """Refuse (400) a spec that would import code or read a file
    outside the served corpus."""
    if ":" in spec.generator or spec.strategy == "call":
        raise HttpError(400, "the service runs no dotted generator or "
                             "custom 'call' task; run those in a campaign")
    if spec.generator == "llvm":
        path = spec.params_dict().get("path")
        if _corpus_file(path) is None:
            raise HttpError(400, "'params.path' must name a file of the "
                                 f"served corpus, got {path!r}")


def parse_task_request(document: Any) -> TaskRequest:
    """Validate one ``/v1/task`` JSON document into a :class:`TaskRequest`.

    Raises :class:`~repro.serve.http.HttpError` (400) with a
    field-specific message on any schema violation.
    """
    if not isinstance(document, Mapping):
        raise HttpError(400, "request body must be a JSON object")
    unknown = set(document) - {"task", "verify", "deadline", "cache"}
    if unknown:
        raise HttpError(400, f"unknown request fields: {sorted(unknown)}")
    task = document.get("task")
    if not isinstance(task, Mapping):
        raise HttpError(400, "'task' must be a JSON object (TaskSpec fields)")
    try:
        spec = TaskSpec.from_dict(task)
    except (TypeError, ValueError) as exc:
        raise HttpError(400, f"invalid task: {exc}") from exc
    _check_served(spec)
    verify = document.get("verify", False)
    if not isinstance(verify, bool):
        raise HttpError(400, "'verify' must be a boolean")
    deadline = document.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) or deadline <= 0:
            raise HttpError(400, "'deadline' must be a positive number "
                                 "of seconds")
        deadline = float(deadline)
    cache_mode = document.get("cache", "use")
    if cache_mode not in CACHE_MODES:
        raise HttpError(400, f"'cache' must be one of {CACHE_MODES}")
    return TaskRequest(
        spec=spec,
        key=task_hash(spec),
        verify=verify,
        deadline=deadline,
        cache_mode=cache_mode,
    )


def dumps(payload: Any) -> bytes:
    """Canonical JSON encoding used for every response body."""
    return json.dumps(payload, sort_keys=True).encode()
