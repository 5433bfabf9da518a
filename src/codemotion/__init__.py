"""Coordination-based action descriptors (CODE) and the correlation-based
similarity measure (CSM) for skeletal action classification."""

from .descriptor import (
    ActionMatrix,
    CodeDescriptor,
    DegenerateActionError,
    compute_descriptor,
    stack_descriptor,
    stacked_length,
)
from .evaluation import (
    EvalReport,
    SplitPlan,
    evaluate,
    inject_agwn,
    mij_sweep,
    noise_sweep,
)
from .ingest import (
    DatasetError,
    DatasetManifest,
    FilterSpec,
    ManifestEntry,
    SyntheticConfig,
    butterworth_filter,
    generate_synthetic,
    load_dataset,
    load_manifest,
    save_dataset,
)
from .similarity import (
    FeatureSet,
    Metric,
    MetricSpec,
    csm,
    similarity_matrix,
)

__version__ = "0.1.0"
