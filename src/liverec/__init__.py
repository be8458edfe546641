"""Two-side live-broadcast recommender.

Static encoders and LSTM sequence encoders feed item- and anchor-aspect
attention networks on both the user and anchor sides; a category
co-retrieval index prunes the attention pair set.  Everything runs on a
minimal float64 reverse-mode autodiff tape and is deterministic per seed.
"""

from .autodiff import ShapeError, Tape, Tensor, backward
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
from .encoders import LstmParams, PnnEncoderParams, encode_sequence, pnn_encode
from .interaction import anchor_aspect_interaction, embed_similarity, item_aspect_interaction, svdpp_similarity
from .metrics import EvalReport, compute_acc, compute_auc, compute_logloss, make_report
from .model import (
    AttentionParams,
    CheckpointError,
    ModelParams,
    NonFiniteScoreError,
    TrainConfig,
    TrainingDiverged,
    UnknownIdError,
    batch_loss,
    evaluate_pairs,
    forward_pair,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .retrieval import KKVIndex, RetrievedHistories, build_index, co_retrieve, pair_budget

__version__ = "0.1.0"
