"""Trace equivalence of every linear-scan allocation of the corpus.

Every corpus function, under both scan variants, at every k from
max(2, Maxlive - 4) to Maxlive: the allocator's final code (spill code
included) must behave like its source on the interpreter's input
streams (:func:`repro.ir.interp.equivalent`).  This is the "done when"
check of ROADMAP item 1 for the linear-scan allocators, and it guards
the spill code the scans produce.

Two kinds of cell do not pass today, and each is pinned:

* ``chacha_mix`` at k = 31..34 miscompiles under both variants
  (ROADMAP item 1A: φ-web slot sharing ignores interference), marked
  ``xfail(strict=True)`` so the fix must take the marker off;
* ``abs_diff`` and ``clamp`` at k = 2 cannot be allocated: more reload
  temporaries are live at once than there are registers, and the scan
  raises ``RuntimeError``.
"""

import pytest

from repro.frontend.corpus import corpus_functions
from repro.intervals.linear_scan import linear_scan_allocate
from repro.ir.interp import equivalent
from repro.ir.liveness import maxlive

VARIANTS = ("classic", "second-chance")

#: ``(function, k)`` cells that miscompile: ROADMAP item 1A.
MISCOMPILED = {("chacha_mix", k) for k in (31, 32, 33, 34)}

#: ``(function, k)`` cells whose spilling cannot converge.
UNALLOCATABLE = {("abs_diff", 2), ("clamp", 2)}

_FUNCTIONS = {f"{path.name}:{func.name}": func
              for path, func in corpus_functions()}


def _cells():
    for name, func in _FUNCTIONS.items():
        top = maxlive(func)
        for variant in VARIANTS:
            for k in range(max(2, top - 4), top + 1):
                marks = []
                if (func.name, k) in MISCOMPILED:
                    marks.append(pytest.mark.xfail(
                        strict=True, raises=AssertionError,
                        reason="ROADMAP item 1A: spill slots shared "
                               "across interfering phi-webs"))
                yield pytest.param(name, variant, k, marks=marks,
                                   id=f"{name}:{variant}:k={k}")


CELLS = list(_cells())


def test_matrix_covers_the_corpus():
    """96 cells: 18 functions, both variants, up to five k each."""
    assert len(_FUNCTIONS) == 18
    assert len(CELLS) == 96


@pytest.mark.parametrize("name, variant, k", CELLS)
def test_allocation_is_trace_equivalent(name, variant, k):
    func = _FUNCTIONS[name]
    if (func.name, k) in UNALLOCATABLE:
        with pytest.raises(RuntimeError, match="reload temporaries"):
            linear_scan_allocate(func, k, variant=variant)
        return
    result = linear_scan_allocate(func, k, variant=variant)
    assert equivalent(func, result.function)
