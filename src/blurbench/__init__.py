"""Motion-blur robustness toolkit for two-stage image captioning pipelines.

Pieces, each name imported from its own module: box-filter blur variants
(`imaging`), per-stage augmentation schedules and manifests (`schedule`),
dataset/prediction parsing (`ingest`), CIDEr-D scoring (`cider`),
degradation tables and feature histograms (`report`), and a CLI (`cli`).
"""

__version__ = "0.1.0"
