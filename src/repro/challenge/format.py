"""Text format for coalescing-challenge instances.

Appel and George published their "Optimal Coalescing Challenge" as a
base of interference graphs extracted from Standard ML compilations.
Those files are not available offline, so this module defines a
compatible-in-spirit line format plus a reader/writer, and the sibling
:mod:`repro.challenge.generator` produces instances with the same
regime (register pressure at k, φ-driven parallel-copy affinities).

Format (one record per line, ``#`` comments allowed)::

    graph <name> <k>
    node <id>
    edge <id> <id>           # interference
    affinity <id> <id> <weight>

Node lines are optional for endpoints that appear in edges.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, TextIO

from ..graphs.interference import InterferenceGraph


@dataclass
class ChallengeInstance:
    """A named coalescing instance with its register count."""

    name: str
    k: int
    graph: InterferenceGraph


def dump_instance(instance: ChallengeInstance, stream: TextIO) -> None:
    """Write one instance in the challenge format."""
    stream.write(f"graph {instance.name} {instance.k}\n")
    for v in instance.graph.vertices:
        stream.write(f"node {v}\n")
    for u, v in instance.graph.edges():
        stream.write(f"edge {u} {v}\n")
    for u, v, w in instance.graph.affinities():
        stream.write(f"affinity {u} {v} {w:g}\n")


def dumps_instance(instance: ChallengeInstance) -> str:
    """The instance as a string."""
    buf = io.StringIO()
    dump_instance(instance, buf)
    return buf.getvalue()


def load_instances(stream: TextIO) -> List[ChallengeInstance]:
    """Parse every instance from a stream (instances are concatenated;
    each starts with a ``graph`` line)."""
    instances: List[ChallengeInstance] = []
    current: Optional[ChallengeInstance] = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "graph":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed graph header")
            current = ChallengeInstance(
                name=parts[1], k=int(parts[2]), graph=InterferenceGraph()
            )
            instances.append(current)
            continue
        if current is None:
            raise ValueError(f"line {lineno}: record before graph header")
        if kind == "node" and len(parts) == 2:
            current.graph.add_vertex(parts[1])
        elif kind == "edge" and len(parts) == 3:
            current.graph.add_edge(parts[1], parts[2])
        elif kind == "affinity" and len(parts) == 4:
            current.graph.add_affinity(parts[1], parts[2], float(parts[3]))
        else:
            raise ValueError(f"line {lineno}: unrecognized record {line!r}")
    return instances


def loads_instances(text: str) -> List[ChallengeInstance]:
    """Parse instances from a string."""
    return load_instances(io.StringIO(text))
