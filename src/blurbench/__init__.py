"""Motion-blur robustness toolkit for two-stage image captioning pipelines.

Pieces: box-filter blur variants (`imaging`), per-stage augmentation
schedules and manifests (`schedule`), dataset/prediction parsing
(`ingest`), CIDEr-D scoring (`cider`), degradation tables and feature
histograms (`report`), and a CLI (`cli`).
"""

from .cider import (
    CiderConfig,
    IdfTable,
    build_idf,
    cider_d,
    corpus_cider_d,
    ngram_counts,
    tokenize,
)
from .imaging import (
    BlurKernel,
    BlurLevel,
    DimensionError,
    FormatError,
    Image,
    apply_blur,
    load_image,
    make_kernel,
    save_image,
)
from .ingest import (
    BlurFlag,
    Dataset,
    FeatureCountRecord,
    ParseError,
    filter_by_blur_flag,
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_predictions,
)
from .report import (
    DegradationDelta,
    FeatureHistogram,
    ScoreRow,
    ScoreTable,
    build_histograms,
    degradation_deltas,
)
from .schedule import (
    AugmentationManifest,
    Schedule,
    Stage,
    Technique,
    TechniquePlan,
    plan_dataset,
    read_manifest,
    sample_level,
    technique_plan,
    write_manifest,
)

__version__ = "0.1.0"
