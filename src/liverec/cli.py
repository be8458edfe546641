"""Command-line entry point.

Subcommands: ``generate`` (synthetic logs), ``build-index`` (offline KKV
index file), ``train``, ``eval``, ``score``, and ``sweep`` (ablation runs
across seeds).  Exit codes: 0 success, 2 usage/input error, 3 numeric
failure.

All flags of a subcommand can instead be given in a flat ``key=value``
config file via ``--config``; explicit flags win.  Every command is
deterministic given its flags and seed.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .data import IngestError, SyntheticSpec, generate_synthetic, ingest_logs, split_dataset, write_catalog, write_pairs
from .model import (
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    UnknownIdError,
    evaluate_pairs,
    forward_pair,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)
from .retrieval import build_index, co_retrieve, pair_budget, save_index

_VARIANT_FLAGS = {
    "full": "full",
    "no-item": "no_item_aspect",
    "no-anchor": "no_anchor_aspect",
    "co-retrieval": "with_co_retrieval",
}


def _read_config_file(path) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Turn --config file entries into parser defaults; flags override."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        parser.error("--config needs a file path")
    values = _read_config_file(argv[at + 1])
    known = {a.dest for a in parser._actions}
    defaults = {}
    for key, raw in values.items():
        dest = key.replace("-", "_")
        if dest not in known:
            parser.error(f"config file sets unknown key {key!r}")
        action = next(a for a in parser._actions if a.dest == dest)
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            defaults[dest] = raw.lower() in ("1", "true", "yes")
        elif action.type is not None:
            defaults[dest] = action.type(raw)
        else:
            defaults[dest] = raw
    parser.set_defaults(**defaults)
    return [a for i, a in enumerate(argv) if i not in (at, at + 1)]


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="full")
    p.add_argument("--lr-start", type=float, default=1e-2)
    p.add_argument("--lr-end", type=float, default=1e-6)
    p.add_argument("--batch-size", type=int, default=2000)
    p.add_argument("--l2", type=float, default=4e-4)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--k", type=int, default=10, help="co-retrieval cap per side")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--literal-eq4-product", action="store_true",
                   help="use the anchor-side square attention product variant")
    p.add_argument("--optimizer", choices=("sgd", "adam"), default="sgd")
    p.add_argument("--svdpp-head", action="store_true",
                   help="score with the dot-product baseline head instead of the MLP")


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(
        variant=_VARIANT_FLAGS[args.variant],
        lr_start=args.lr_start,
        lr_end=args.lr_end,
        batch_size=args.batch_size,
        l2_weight=args.l2,
        dropout=args.dropout,
        dim=args.dim,
        co_retrieval_k=args.k,
        epochs=args.epochs,
        seed=args.seed,
        literal_eq4_product=args.literal_eq4_product,
        optimizer=args.optimizer,
        svdpp_head=args.svdpp_head,
    )


def cmd_generate(args) -> int:
    spec = SyntheticSpec(
        num_users=args.users,
        num_anchors=args.anchors,
        num_items=args.items,
        num_categories=args.categories,
        history_len_range=(args.hist_min, args.hist_max),
        signal_strength=args.signal,
        seed=args.seed,
        num_pairs=args.pairs,
        base_rate=args.base_rate,
        id_features=args.id_features,
    )
    catalog, pairs = generate_synthetic(spec)
    write_catalog(catalog, args.out_catalog)
    write_pairs(pairs, args.out_pairs)
    print(f"wrote {len(catalog.users)} users, {len(catalog.anchors)} anchors, "
          f"{len(catalog.items)} items to {args.out_catalog}")
    print(f"wrote {len(pairs)} pairs to {args.out_pairs}")
    return 0


def _ingest_catalog_only(path):
    catalog, _ = ingest_logs(path, os.devnull)
    return catalog


def cmd_build_index(args) -> int:
    catalog = _ingest_catalog_only(args.catalog)
    index = build_index(catalog, args.side)
    save_index(index, args.out)
    n_items = sum(len(v) for per in index.owners.values() for v in per.values())
    print(f"wrote {args.side} index: {len(index.owners)} owners, {n_items} entries -> {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    catalog, pairs = ingest_logs(args.catalog, args.pairs)
    train_split, val_split, _ = split_dataset(pairs, seed=args.split_seed)
    params, rows = train(catalog, train_split, config, val_pairs=val_split or None)
    save_checkpoint(params, config, args.out_checkpoint)
    write_metrics_csv(rows, args.metrics_csv, include_timing=args.timing_in_csv)
    print(f"checkpoint -> {args.out_checkpoint}")
    print(f"metrics    -> {args.metrics_csv}")
    if val_split:
        report = evaluate_pairs(catalog, params, config, val_split)
        print("validation split:")
        print(report.table())
    return 0


def cmd_eval(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    if args.variant is not None:
        config = TrainConfig(**{**asdict(config), "variant": _VARIANT_FLAGS[args.variant]})
    catalog, pairs = ingest_logs(args.catalog, args.pairs)
    seed = args.split_seed if args.split_seed is not None else config.seed
    _, _, test_split = split_dataset(pairs, seed=seed)
    report = evaluate_pairs(catalog, params, config, test_split)
    print(report.table())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_score(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    catalog = _ingest_catalog_only(args.catalog)
    yhat = forward_pair(catalog, params, config, args.user, args.anchor, mode="eval")
    print(repr(yhat))
    if args.explain:
        user_index, anchor_index = catalog.kkv_indices()
        retrieved = co_retrieve(user_index, anchor_index, args.user, args.anchor, config.co_retrieval_k)
        cats = ",".join(str(c) for c in sorted(retrieved.common_categories))
        print(f"pair_budget={pair_budget(retrieved)}")
        print(f"common_categories={cats}")
    return 0


def cmd_sweep(args) -> int:
    catalog, pairs = ingest_logs(args.catalog, args.pairs)
    train_split, _, test_split = split_dataset(pairs, seed=args.split_seed)
    variants = [v.strip() for v in args.variants.split(",")]
    seeds = range(args.seeds)
    print("variant,seed,test_auc,test_acc,test_logloss")
    summary = {}
    for flag in variants:
        aucs = []
        for seed in seeds:
            config = _config_from_args(args)
            config = TrainConfig(**{**asdict(config), "variant": _VARIANT_FLAGS[flag], "seed": seed})
            params, _ = train(catalog, train_split, config)
            report = evaluate_pairs(catalog, params, config, test_split)
            auc = float("nan") if report.auc is None else report.auc
            aucs.append(auc)
            print(f"{flag},{seed},{auc:.6f},{report.acc:.6f},{report.logloss:.6f}")
        summary[flag] = float(np.mean(aucs))
    for flag, mean_auc in summary.items():
        print(f"# mean {flag}: {mean_auc:.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liverec",
                                     description="two-side live-broadcast recommender")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic catalog and pairs JSONL files")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--out-catalog", required=True)
    p.add_argument("--out-pairs", required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--anchors", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--hist-min", type=int, default=5)
    p.add_argument("--hist-max", type=int, default=15)
    p.add_argument("--signal", type=float, default=0.8)
    p.add_argument("--base-rate", type=float, default=0.08)
    p.add_argument("--id-features", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("build-index", help="build and serialize a KKV retrieval index")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--catalog", required=True)
    p.add_argument("--side", choices=("user", "anchor"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_index)

    p = sub.add_parser("train", help="train a model and write checkpoint + metrics CSV")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--metrics-csv", required=True)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--timing-in-csv", action="store_true",
                   help="write real wall_seconds (breaks byte-for-byte reproducibility)")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default=None,
                   help="override the checkpoint's variant")
    p.add_argument("--split-seed", type=int, default=None,
                   help="split seed (default: the checkpoint's seed)")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("score", help="score a single (user, anchor) pair")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--catalog", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--anchor", type=int, required=True)
    p.add_argument("--explain", action="store_true",
                   help="also print the co-retrieval pair budget and common categories")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("sweep", help="train ablation variants across seeds, print AUC table")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--variants", default="full,no-item,no-anchor,co-retrieval")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--split-seed", type=int, default=0)
    _add_train_flags(p)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # find the subparser to resolve --config against its flags
    try:
        if argv and not argv[0].startswith("-"):
            sub_actions = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            )
            subparser = sub_actions.choices.get(argv[0])
            if subparser is not None and "--config" in argv:
                argv = [argv[0]] + _apply_config_file(subparser, argv[1:])
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (IngestError, CheckpointError, UnknownIdError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
