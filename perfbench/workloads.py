"""The benchmark's workloads and the set-up stage that turns a seed into inputs.

Every workload shares one population (400 users, 60 anchors, 500 items,
10 categories), embedding dim 32 and batch 200.  The workloads differ in
history length and model variant, which decides which layer dominates;
README.md says why each one exists.  The training config is pinned field
by field so that a change to a `TrainConfig` default does not move the
benchmark.  Every train rep takes at least two SGD steps, and
`train_loss` (the last epoch's mean) is measured after at least one, so a
model that stops learning shows in it and in `test_logloss`.  The long
workloads take fewer steps, so they take a larger one.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import liverec
from liverec.model import TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    history_len_range: tuple[int, int]
    variant: str
    train_pairs: int  # one train rep is `epochs` epochs over these
    test_pairs: int  # one eval rep scores all of these
    epochs: int = 1
    lr_start: float = 1e-2
    num_users: int = 400
    num_anchors: int = 60
    num_items: int = 500
    num_categories: int = 10
    min_score_samples: int = 100  # also the size of one traced score rep


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-hist", (5, 15), "full", train_pairs=2000, test_pairs=3000),
        Workload("long-hist", (150, 200), "full", train_pairs=200, test_pairs=1600, epochs=2, lr_start=5e-2),
        Workload(
            "long-coret", (150, 200), "with_co_retrieval", train_pairs=200, test_pairs=1600, epochs=2, lr_start=5e-2
        ),
    )
}


def train_config(workload: Workload, seed: int) -> TrainConfig:
    return TrainConfig(
        variant=workload.variant,
        lr_start=workload.lr_start,
        lr_end=1e-6,
        batch_size=200,
        l2_weight=4e-4,
        dropout=0.5,
        dim=32,
        co_retrieval_k=10,
        epochs=workload.epochs,
        seed=seed,
        literal_eq4_product=False,
        optimizer="sgd",
        svdpp_head=False,
        threads=1,
    )


def synthetic_spec(workload: Workload, seed: int) -> liverec.SyntheticSpec:
    return liverec.SyntheticSpec(
        num_users=workload.num_users,
        num_anchors=workload.num_anchors,
        num_items=workload.num_items,
        num_categories=workload.num_categories,
        history_len_range=workload.history_len_range,
        signal_strength=0.8,
        seed=seed,
        num_pairs=workload.train_pairs + workload.test_pairs,
        base_rate=0.08,
        id_features=False,
    )


@dataclass
class Dataset:
    catalog: liverec.Catalog
    train: list
    test: list


SETUP_STAGES = ("data.generate_s", "data.write_s", "data.ingest_s", "data.split_s", "retrieval.build_index_s")


def set_up(workload: Workload, seed: int, workdir: str) -> tuple[Dataset, dict[str, float]]:
    """Generate, write, ingest and split the workload's data; returns it with
    the seconds each set-up stage took.

    The data goes through the JSONL files because that is how a user feeds
    the system.  The co-retrieval index is built here, where a user pays for
    it once, so that it does not land in the first training batch.
    """
    catalog_path = os.path.join(workdir, "catalog.jsonl")
    pairs_path = os.path.join(workdir, "pairs.jsonl")
    t0 = time.perf_counter()
    catalog, pairs = liverec.generate_synthetic(synthetic_spec(workload, seed))
    t1 = time.perf_counter()
    liverec.write_catalog(catalog, catalog_path)
    liverec.write_pairs(pairs, pairs_path)
    t2 = time.perf_counter()
    catalog, pairs = liverec.ingest_logs(catalog_path, pairs_path)
    t3 = time.perf_counter()
    n = len(pairs)
    train, _, test = liverec.split_dataset(
        pairs, ratios=(workload.train_pairs / n, 0.0, workload.test_pairs / n), seed=seed
    )
    t4 = time.perf_counter()
    if workload.variant == "with_co_retrieval":
        catalog.kkv_indices()
    t5 = time.perf_counter()
    times = dict(zip(SETUP_STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)))
    return Dataset(catalog, train, test), times
