"""Command-line entry point.

Subcommands: ``generate`` (synthetic logs), ``train``, ``eval``,
``score``, and ``sweep`` (ablation runs across seeds).

Exit codes: 0 success, 2 usage/input error, 3 numeric failure.

Every flag of a subcommand can instead be set in a ``key=value`` config
file given by ``--config``: a key is a flag name without its dashes, and
a switch takes true or false.  The file's settings go ahead of the command
line's flags, so flags win, and a bad setting exits 2 as a bad flag does.
Every command is deterministic given its flags and seed.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .data import SyntheticSpec, generate_synthetic, ingest_logs, split_dataset, write_catalog, write_pairs
from .model import (
    TrainConfig,
    TrainingDiverged,
    UnknownIdError,
    check_training,
    evaluate_pairs,
    forward_pair,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)
from .retrieval import co_retrieve, pair_budget

_VARIANT_FLAGS = {
    "full": "full",
    "no-item": "no_item_aspect",
    "no-anchor": "no_anchor_aspect",
    "co-retrieval": "with_co_retrieval",
}
_SWITCH_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _config_parser(prog: str = "liverec") -> argparse.ArgumentParser:
    """The ``--config`` flag: a parent of every subcommand's parser, and
    the parser that reads the path before the full parse."""
    p = argparse.ArgumentParser(prog=prog, add_help=False, allow_abbrev=False)
    p.add_argument("--config", help="key=value file of flag settings; command-line flags win")
    return p


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The flag tokens a config file spells for ``parser``: ``--key=value``,
    or ``--key`` for a switch set true.  A switch is a flag whose default
    is a bool."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"--config: {exc}")
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key == "config":
            parser.error(f"{path}:{lineno}: a config file cannot name another config file")
        if not isinstance(parser.get_default(key.replace("-", "_")), bool):
            tokens.append(f"--{key}={value}")
        elif value.lower() not in _SWITCH_VALUES:
            parser.error(f"{path}:{lineno}: switch {key} takes true or false, got {value!r}")
        elif _SWITCH_VALUES[value.lower()]:
            tokens.append(f"--{key}")
    return tokens


def _variant_list(text: str) -> list[str]:
    flags = [v.strip() for v in text.split(",")]
    if not set(flags) <= set(_VARIANT_FLAGS):
        raise argparse.ArgumentTypeError(f"variants must be among {', '.join(sorted(_VARIANT_FLAGS))}, got {text!r}")
    if len(set(flags)) < len(flags):
        raise argparse.ArgumentTypeError(f"each variant may be named once, got {text!r}")
    return flags


def _seed_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _with_variant(config: TrainConfig, flag: str | None) -> TrainConfig:
    return config if flag is None else replace(config, variant=_VARIANT_FLAGS[flag])


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field but ``threads`` and
    ``literal_eq4_product``, which take only their defaults; each flag's
    dest is its field's name and its default the field's default."""
    d = TrainConfig()
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), help="ablation variant (default: the full model)")
    p.add_argument("--lr-start", type=float, default=d.lr_start)
    p.add_argument("--lr-end", type=float, default=d.lr_end)
    p.add_argument("--batch-size", type=int, default=d.batch_size)
    p.add_argument("--l2", dest="l2_weight", metavar="L2", type=float, default=d.l2_weight)
    p.add_argument("--dropout", type=float, default=d.dropout)
    p.add_argument("--dim", type=int, default=d.dim)
    p.add_argument("--k", dest="co_retrieval_k", metavar="K", type=int, default=d.co_retrieval_k,
                   help="co-retrieval cap per side")
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--optimizer", choices=("sgd", "adam"), default=d.optimizer)
    p.add_argument("--svdpp-head", action="store_true",
                   help="score with the dot-product baseline head instead of the MLP")


def _config_from_args(args) -> TrainConfig:
    unflagged = ("variant", "threads", "literal_eq4_product")  # the variant's flag takes its own spelling
    values = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if f.name not in unflagged}
    return _with_variant(TrainConfig(**values), args.variant)


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


def cmd_train(args) -> int:
    config = _config_from_args(args)
    catalog, pairs = ingest_logs(args.catalog, args.pairs)
    train_split, val_split, _ = split_dataset(pairs, seed=args.split_seed)
    params, rows = train(catalog, train_split, config, val_pairs=val_split or None)
    save_checkpoint(params, config, args.out_checkpoint)
    write_metrics_csv(rows, args.metrics_csv, include_timing=args.timing_in_csv)
    print(f"checkpoint -> {args.out_checkpoint}")
    print(f"metrics    -> {args.metrics_csv}")
    if val_split:  # train() scored it after the last epoch, with these parameters
        print("validation split:")
        print(rows[-1].val.table())
    return 0


def cmd_eval(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    config = _with_variant(config, args.variant)
    catalog, pairs = ingest_logs(args.catalog, args.pairs)
    _, _, test_split = split_dataset(pairs, seed=args.split_seed)
    report = evaluate_pairs(catalog, params, config, test_split)
    print(report.table())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_score(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    if args.explain and config.co_retrieval_k < 1:
        raise ValueError(f"score --explain: the checkpoint's co_retrieval_k must be at least 1, "
                         f"got {config.co_retrieval_k}")
    catalog, _ = ingest_logs(args.catalog, os.devnull)
    yhat = forward_pair(catalog, params, config, args.user, args.anchor)
    print(repr(yhat))
    if args.explain:
        user_index, anchor_index = catalog.kkv_indices()
        retrieved = co_retrieve(user_index, anchor_index, args.user, args.anchor, config.co_retrieval_k)
        cats = ",".join(str(c) for c in sorted(retrieved.common_categories))
        print(f"pair_budget={pair_budget(retrieved)}")
        print(f"common_categories={cats}")
    return 0


def cmd_sweep(args) -> int:
    # every run's config is built, and so checked, before any output
    base = _config_from_args(args)
    runs = [(flag, replace(base, variant=_VARIANT_FLAGS[flag], seed=seed))
            for flag in args.variants for seed in range(args.seeds)]
    catalog, pairs = ingest_logs(args.catalog, args.pairs)
    train_split, _, test_split = split_dataset(pairs, seed=args.split_seed)
    check_training(catalog, train_split, base)  # the runs differ from base only in variant and seed
    print("variant,seed,test_auc,test_acc,test_logloss")
    aucs = {}
    for flag, config in runs:
        params, _ = train(catalog, train_split, config)
        report = evaluate_pairs(catalog, params, config, test_split)
        auc = float("nan") if report.auc is None else report.auc
        aucs.setdefault(flag, []).append(auc)
        print(f"{flag},{config.seed},{auc:.6f},{report.acc:.6f},{report.logloss:.6f}")
    for flag, values in aucs.items():
        print(f"# mean {flag}: {float(np.mean(values)):.6f}")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(prog="liverec",
                                     description="two-side live-broadcast recommender")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag, on the command line or as a config key, is spelled in full
    common = {"parents": [_config_parser()], "allow_abbrev": False}

    # generate's defaults are SyntheticSpec's own
    spec = {f.name: f.default for f in fields(SyntheticSpec)}
    p = sub.add_parser("generate", help="write synthetic catalog and pairs JSONL files", **common)
    p.add_argument("--out-catalog", required=True)
    p.add_argument("--out-pairs", required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--anchors", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--pairs", type=int, default=spec["num_pairs"])
    p.add_argument("--hist-min", type=int, default=spec["history_len_range"][0])
    p.add_argument("--hist-max", type=int, default=spec["history_len_range"][1])
    p.add_argument("--signal", type=float, default=spec["signal_strength"])
    p.add_argument("--base-rate", type=float, default=spec["base_rate"])
    p.add_argument("--id-features", action="store_true", default=spec["id_features"])
    p.add_argument("--seed", type=int, default=spec["seed"])
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train a model and write checkpoint + metrics CSV", **common)
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--metrics-csv", required=True)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--timing-in-csv", action="store_true",
                   help="write real wall_seconds (breaks byte-for-byte reproducibility)")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split", **common)
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), help="override the checkpoint's variant")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("score", help="score a single (user, anchor) pair", **common)
    p.add_argument("--catalog", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--anchor", type=int, required=True)
    p.add_argument("--explain", action="store_true",
                   help="also print the co-retrieval pair budget and common categories")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("sweep", help="train ablation variants across seeds, print AUC table", **common)
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--variants", type=_variant_list, default="full,no-item,no-anchor,co-retrieval")
    p.add_argument("--seeds", type=_seed_count, default=3, help="train seeds 0 .. SEEDS-1 of each variant")
    p.add_argument("--split-seed", type=int, default=0)
    _add_train_flags(p)
    p.set_defaults(fn=cmd_sweep)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        if argv and argv[0] in commands:
            path = _config_parser(f"liverec {argv[0]}").parse_known_args(argv[1:])[0].config
            if path is not None:
                argv = argv[:1] + _config_tokens(commands[argv[0]], path) + argv[1:]
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (UnknownIdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
