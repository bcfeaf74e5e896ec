"""Pin the ``result_hash`` of every corpus task the end-to-end
benchmark serves.

The benchmark checks served hashes against a replay of the same code,
so it cannot see a hash that moved.  This test compares each hash with
``tests/data/result_hashes.json``, generated under the same
:data:`~repro.engine.tasks.ENGINE_VERSION`.  A change that moves a
hash must bump ``ENGINE_VERSION`` (cached records keyed by the old
version become unreachable) and regenerate the file::

    PYTHONPATH=src python -m tests.test_result_hashes
"""

import json
from pathlib import Path

from repro.engine import run_task
from repro.engine.tasks import ENGINE_VERSION
from tests import corpus_tasks

HASHES = Path(__file__).parent / "data" / "result_hashes.json"

REGENERATE = "PYTHONPATH=src python -m tests.test_result_hashes"


def current_hashes():
    """``{key: result_hash}`` of an unverified run of every task."""
    out = {}
    for key, spec in corpus_tasks().items():
        record = run_task(spec)
        assert record["status"] == "ok", (key, record["error"])
        out[key] = record["result_hash"]
    return out


def test_corpus_result_hashes_are_pinned():
    pinned = json.loads(HASHES.read_text())
    assert pinned["engine"] == ENGINE_VERSION, (
        f"{HASHES.name} was generated under ENGINE_VERSION "
        f"{pinned['engine']!r}; regenerate it with `{REGENERATE}`")
    current = current_hashes()
    assert sorted(current) == sorted(pinned["hashes"]), (
        f"the corpus task list changed; regenerate with `{REGENERATE}`")
    moved = sorted(k for k, h in current.items() if pinned["hashes"][k] != h)
    assert not moved, (
        f"{len(moved)} result_hash(es) moved under an unchanged "
        f"ENGINE_VERSION {ENGINE_VERSION!r} (first: {moved[:3]}): bump "
        f"ENGINE_VERSION in repro/engine/tasks.py, then regenerate "
        f"with `{REGENERATE}`")


if __name__ == "__main__":
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(
        {"engine": ENGINE_VERSION, "hashes": current_hashes()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {HASHES}")
