"""Two-side live-broadcast recommender.

Static encoders and LSTM sequence encoders feed item- and anchor-aspect
attention networks on both the user and anchor sides; a category
co-retrieval index prunes the attention pair set.  Everything runs on a
minimal float64 reverse-mode autodiff tape and is deterministic per seed.

The package exports the data, training, scoring and checkpoint entry
points and the named errors; the encoders, interaction layers, retrieval
index and tape are reached through their modules (``liverec.model``,
``liverec.autodiff`` and the others).
"""

from .autodiff import ShapeError
from .data import (
    Anchor,
    Catalog,
    IngestError,
    Item,
    LabeledPair,
    SyntheticSpec,
    User,
    generate_synthetic,
    ingest_logs,
    split_dataset,
    write_catalog,
    write_pairs,
)
from .metrics import EvalReport, compute_logloss
from .model import (
    CheckpointError,
    ModelParams,
    NonFiniteScoreError,
    TrainConfig,
    TrainingDiverged,
    UnknownIdError,
    evaluate_pairs,
    forward_pair,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
