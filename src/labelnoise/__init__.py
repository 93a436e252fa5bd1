"""Label-noise transition-matrix theory, clean-sample selection, co-training.

The package models label corruption through a row-stochastic transition
matrix, provides the closed-form accuracy and selection-quality laws that
matrix implies, and implements cross-validation selection of clean
samples plus a two-learner co-training loop that exchanges small-loss
mini-batch subsets. Everything is seeded and reproducible at desk scale.
"""

from .cotraining import (
    CoTrainConfig,
    CoTrainReport,
    EpochRecord,
    batch_mix,
    cotrain,
    keep_count,
    resolve_eps_s,
)
from .data import (
    BlobSpec,
    LabeledDataset,
    SchemaError,
    corrupt_dataset,
    load,
    make_blobs,
    save,
    split_half,
    split_per_class,
)
from .learners import (
    DivergenceError,
    KnnLearner,
    Learner,
    MissingTrueLabelsError,
    OracleLearner,
    SoftmaxLearner,
    TrainConfig,
    knn_factory,
    oracle_factory,
    softmax_factory,
)
from .noise import (
    NoiseSpec,
    TransitionMatrix,
    actual_noise_ratio,
    asymmetric_matrix,
    corrupt_labels,
    cyclic_mapping,
    matrix_from_spec,
    random_diagonal_dominant,
    symmetric_matrix,
)
from .selection import (
    IterationRecord,
    SelectionMetrics,
    SelectionResult,
    UndefinedMetricError,
    confusion_matrix,
    incv,
    ncv,
    selection_metrics,
    selection_result_from_json,
)
from .theory import (
    TheoryPoint,
    asymmetric_accuracy,
    class_accuracy,
    estimate_epsilon_asymmetric,
    estimate_epsilon_symmetric,
    lp_bounds,
    lp_lr_general,
    symmetric_accuracy,
    theory_curve,
    theory_point,
)

__version__ = "0.1.0"
