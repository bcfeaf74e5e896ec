"""The uniform diagnostic model of the static checker.

Every analysis pass reports its findings as :class:`Diagnostic` records
instead of raising, printing, or returning ad-hoc strings.  A diagnostic
carries a stable machine-readable **code** (``SSA001``, ``LIVE002``,
``CERT004`` … — the full catalog lives in ``docs/ANALYSIS.md``), a
**severity**, a human message, a **location** string (block/instruction,
vertex, affinity pair — whatever identifies the finding), and an
optional ``detail`` mapping with fixit-style structured data (the
offending edge, the expected vs. actual value, a witness subgraph).

Severities form a strict order (``error`` > ``warning`` > ``info``):

* ``error`` — an invariant of the paper or of the data model is broken;
* ``warning`` — suspicious but not provably wrong (e.g. a verification
  budget ran out before the check finished);
* ``info`` — an observation that is useful evidence but not a problem
  (e.g. "graph is chordal, ω = Maxlive = 4").

The default reporting threshold everywhere (CLI, engine hook) is
``warning``: a healthy artifact produces *zero*
diagnostics at the default threshold, while ``--severity info`` turns
the checker into an explainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "SEVERITIES",
    "Diagnostic",
    "severity_rank",
    "max_severity",
    "filter_diagnostics",
    "format_diagnostic",
    "sort_diagnostics",
]

#: Valid severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")

_RANK: Dict[str, int] = {name: i for i, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity (0 = most severe).

    Raises ``ValueError`` on an unknown severity so typos in pass code
    fail loudly instead of silently sorting last.
    """
    try:
        return _RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r} (one of {SEVERITIES})"
        ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    ``code`` is the stable identifier tests and tools match on;
    ``where`` locates the finding inside the checked object (a block
    name, a ``block:index`` program point, a vertex, an edge …);
    ``obj`` names the checked object itself (a function or instance
    name) and may be empty; ``detail`` carries structured fixit-style
    data and must stay JSON-serializable.
    """

    code: str
    severity: str
    message: str
    where: str = ""
    obj: str = ""
    passname: str = ""
    detail: Mapping[str, Any] = field(default_factory=dict)
    #: Source provenance: the file the checked object came from and the
    #: 1-based line of the finding (0 = no line known).  Filled by
    #: :mod:`repro.analysis.provenance` for ``.ll``/``.ir`` input; the
    #: SARIF exporter turns the pair into a physical location.
    file: str = ""
    line: int = 0

    def __post_init__(self) -> None:
        severity_rank(self.severity)  # validate eagerly

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (stable key order handled by dumps)."""
        out: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.where:
            out["where"] = self.where
        if self.obj:
            out["obj"] = self.obj
        if self.passname:
            out["pass"] = self.passname
        if self.detail:
            out["detail"] = dict(self.detail)
        if self.file:
            out["file"] = self.file
        if self.line:
            out["line"] = self.line
        return out

    def sort_key(self) -> Tuple[str, str, str, int, str, int, str]:
        """The canonical emission order: code, then location, then
        message (severity breaks the remaining ties)."""
        return (
            self.code, self.obj, self.file, self.line, self.where,
            severity_rank(self.severity), self.message,
        )


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[str]:
    """The most severe severity present, or None for no diagnostics."""
    best: Optional[str] = None
    for diag in diagnostics:
        if best is None or severity_rank(diag.severity) < severity_rank(best):
            best = diag.severity
    return best


def filter_diagnostics(
    diagnostics: Iterable[Diagnostic], threshold: str = "warning"
) -> List[Diagnostic]:
    """Diagnostics at least as severe as ``threshold``."""
    cutoff = severity_rank(threshold)
    return [d for d in diagnostics if severity_rank(d.severity) <= cutoff]


def format_diagnostic(diag: Diagnostic) -> str:
    """One-line human rendering: ``severity CODE [obj at where]: message``.

    With source provenance attached, the line is prefixed with the
    compiler-conventional ``file:line:`` anchor.
    """
    location = ""
    if diag.obj and diag.where:
        location = f" [{diag.obj} at {diag.where}]"
    elif diag.obj:
        location = f" [{diag.obj}]"
    elif diag.where:
        location = f" [{diag.where}]"
    anchor = ""
    if diag.file:
        anchor = f"{diag.file}:{diag.line}: " if diag.line else f"{diag.file}: "
    return f"{anchor}{diag.severity} {diag.code}{location}: {diag.message}"


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """The deterministic emission order every checker reports in.

    Stable sort by code, then location (object, file, line, ``where``),
    then severity and message — independent of pass registration order,
    set iteration order, and ``PYTHONHASHSEED``.
    """
    return sorted(diagnostics, key=Diagnostic.sort_key)
