"""imbench: oversampling benchmark toolkit for imbalanced binary classification.

Submodules:
    data          CSV ingestion, min-max scaling, stratified splits
    nn            dense networks, backprop, Adam, dropout
    oversamplers  ROS, SMOTE, Borderline-SMOTE, ADASYN, exhaustive KNN
    gan           conditional GAN + feature-matching GAN oversamplers
    classifiers   logistic regression, random forest, GBT, MLP
    bench         experiment grid, metrics, mean ranks, report emission
    cli           the ``bench`` command
"""

from .data import (
    Dataset,
    ImbalanceStats,
    ScalerParams,
    TrainTestSplit,
    imbalance_stats,
    load_csv,
    minmax_fit,
    minmax_transform,
    save_csv,
    stratified_split,
)
from .oversamplers import (
    AugmentedDataset,
    KNNIndex,
    adasyn,
    adasyn_plan,
    borderline_smote,
    random_oversample,
    smote,
)
from .gan import (
    GANModel,
    TrainingConfig,
    feature_matching_loss,
    generate_minority,
    oversample_to_balance,
    train_cgan,
    train_sdg_gan,
)
from .classifiers import (
    ForestSpec,
    GBTSpec,
    LogRegSpec,
    MLPSpec,
    predict_labels,
    train_classifier,
    train_gbt,
    train_logreg,
    train_mlp_classifier,
    train_random_forest,
)
from .bench import (
    ExperimentConfig,
    MetricsReport,
    RankTable,
    compute_metrics,
    emit_report,
    mean_rank,
    run_benchmark,
    run_cell,
    synth_dataset,
)

__version__ = "0.1.0"
