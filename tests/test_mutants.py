"""The mutation gate's table (`tests/mutants.py`) stays in step with the code.

No mutant is run here: `python tests/mutants.py` runs them.
"""

import pytest

from mutants import COPIED, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=lambda m: f"{m.path.split('/')[-1]}:{m.old[:40]}")
def test_old_text_occurs_once(mutant):
    """Each mutant's old text is in its file exactly once, so that the
    mutant still applies and applies to one place."""
    assert mutant.path.split("/")[0] in COPIED
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.breaks


def test_mutants_are_distinct():
    assert len({(m.path, m.old) for m in MUTANTS}) == len(MUTANTS)
