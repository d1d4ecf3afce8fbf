"""Motion-blur robustness toolkit for two-stage image captioning pipelines.

Pieces, each name imported from its own module: box-filter blur variants
(`imaging`), per-stage augmentation schedules and manifests (`schedule`),
dataset/prediction parsing (`ingest`), CIDEr-D scoring (`cider`),
degradation tables and feature histograms (`report`), and a CLI (`cli`).
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_import(name: str):
    """Module `name`, executed on first attribute access: only `blur` and
    `score` use numpy, the bulk of a cold start. A module-level `np.` use
    would execute it at import again (tests/test_startup.py fails then)."""
    if name not in sys.modules and (spec := importlib.util.find_spec(name)):
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    if sys.modules.get(name) is None:  # no spec, or blocked by a None entry
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    return sys.modules[name]


def _error_text(exc: Exception) -> str:
    """`exc`'s text for an error line: Python's integer digit limit is
    named, but not the call that lifts it."""
    return str(exc).removesuffix(
        "; use sys.set_int_max_str_digits() to increase the limit")


def _id_list(ids: list) -> str:
    """`ids` for an error line: the list, past 5 ids cut to 5 and a count."""
    return repr(ids) if len(ids) <= 5 else f"{ids[:5]!r} and {len(ids) - 5} more"
