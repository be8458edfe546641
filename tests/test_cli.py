"""CLI commands: exit codes, determinism, config files, wiring."""
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from liverec import cli
from liverec.cli import _build_parser, _config_from_args, main
from liverec.data import ingest_logs, split_dataset
from liverec.model import TrainConfig, forward_pair, load_checkpoint
from liverec.retrieval import co_retrieve, pair_budget


def _gen(tmp_path, seed=7, signal=0.8, n_pairs=120, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cat = tmp_path / f"cat{seed}{signal}.jsonl"
    prs = tmp_path / f"pairs{seed}{signal}.jsonl"
    rc = main([
        "generate", "--out-catalog", str(cat), "--out-pairs", str(prs),
        "--users", "30", "--anchors", "8", "--items", "60", "--categories", "6",
        "--pairs", str(n_pairs), "--signal", str(signal), "--seed", str(seed), *extra,
    ])
    assert rc == 0
    return cat, prs


def test_generate_rerun_is_byte_identical(tmp_path):
    cat1, prs1 = _gen(tmp_path / "a", seed=7)
    cat2, prs2 = _gen(tmp_path / "b", seed=7)
    assert cat1.read_bytes() == cat2.read_bytes()
    assert prs1.read_bytes() == prs2.read_bytes()


def test_generate_missing_flag_exits_2(tmp_path, capsys):
    rc = main(["generate", "--out-catalog", str(tmp_path / "c.jsonl")])
    assert rc == 2


@pytest.mark.parametrize("flag, value, field", [("--base-rate", "nan", "base_rate"), ("--base-rate", "inf", "base_rate"),
                                                ("--signal", "nan", "signal_strength"), ("--pairs", "-3", "num_pairs")])
def test_generate_bad_spec_value_exits_2(tmp_path, capsys, flag, value, field):
    cat, prs = tmp_path / "c.jsonl", tmp_path / "p.jsonl"
    rc = main(["generate", "--out-catalog", str(cat), "--out-pairs", str(prs),
               "--users", "6", "--anchors", "3", "--items", "12", flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not cat.exists() and not prs.exists()


def test_generate_signal_strength_controls_correlation(tmp_path):
    from liverec.data import category_jaccard

    for signal, check in ((0.0, lambda c: abs(c) <= 0.05), (0.9, lambda c: c > 0.15)):
        cat_path, prs_path = _gen(tmp_path, seed=3, signal=signal, n_pairs=4000)
        catalog, pairs = ingest_logs(cat_path, prs_path)
        jac = np.array([category_jaccard(catalog, p.user_id, p.anchor_id) for p in pairs])
        labels = np.array([p.label for p in pairs], dtype=float)
        assert check(float(np.corrcoef(jac, labels)[0, 1]))


def test_generate_defaults_are_synthetic_spec_defaults(tmp_path, monkeypatch):
    # a generate run with only the required flags builds the library's default spec
    from liverec import cli
    from liverec.data import SyntheticSpec

    specs = []
    real = cli.generate_synthetic
    monkeypatch.setattr(cli, "generate_synthetic", lambda spec: specs.append(spec) or real(spec))
    assert main(["generate", "--out-catalog", str(tmp_path / "c.jsonl"), "--out-pairs", str(tmp_path / "p.jsonl"),
                 "--users", "6", "--anchors", "3", "--items", "12"]) == 0
    assert specs == [SyntheticSpec(num_users=6, num_anchors=3, num_items=12, num_categories=10)]


def test_module_docstring_names_every_subcommand_and_no_other():
    listed = re.findall(r"``([a-z-]+)``", cli.__doc__.split("Subcommands:")[1].split("\n\n")[0])
    _, commands = _build_parser()
    assert sorted(listed) == sorted(commands)


def _train(tmp_path, cat, prs, name, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    ckpt = tmp_path / f"{name}.ckpt"
    csv = tmp_path / f"{name}.csv"
    rc = main([
        "train", "--catalog", str(cat), "--pairs", str(prs),
        "--out-checkpoint", str(ckpt), "--metrics-csv", str(csv),
        "--dim", "6", "--epochs", "2", "--batch-size", "32", "--dropout", "0.2",
        "--seed", "5", *extra,
    ])
    assert rc == 0
    return ckpt, csv


def test_train_variant_recorded_in_checkpoint(tmp_path):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "ni", extra=("--variant", "no-item"))
    _, config = load_checkpoint(ckpt)
    assert config.variant == "no_item_aspect"


@pytest.mark.parametrize("flag, value", [("dim", "0"), ("dim", "-2"), ("batch-size", "0"),
                                         ("epochs", "0"), ("epochs", "-1"), ("k", "0"), ("k", "-1")])
def test_train_rejects_a_size_below_one(tmp_path, capsys, flag, value):
    cat, prs = _gen(tmp_path)
    ckpt, csv = tmp_path / "x.ckpt", tmp_path / "x.csv"
    capsys.readouterr()
    rc = main(["train", "--catalog", str(cat), "--pairs", str(prs), "--out-checkpoint", str(ckpt),
               "--metrics-csv", str(csv), f"--{flag}", value])
    assert rc == 2
    field = "co_retrieval_k" if flag == "k" else flag.replace("-", "_")
    assert capsys.readouterr().err == f"error: train: {field} must be at least 1, got {value}\n"
    assert not ckpt.exists() and not csv.exists()


def _huge_feature_catalog(tmp_path):
    """A catalog whose one item has a feature of 2**40, and ten pairs."""
    cat, prs = tmp_path / "huge.jsonl", tmp_path / "huge-pairs.jsonl"
    cat.write_text(
        '{"kind": "user", "id": 0, "features": [1], "browsed_items": [0], "browsed_anchors": [0]}\n'
        '{"kind": "anchor", "id": 0, "features": [2], "broadcast_items": [0]}\n'
        f'{{"kind": "item", "id": 0, "features": [{2**40}]}}\n'
    )
    prs.write_text("".join(f'{{"user": 0, "anchor": 0, "label": {i % 2}}}\n' for i in range(10)))
    return cat, prs


def test_train_and_sweep_reject_an_oversized_embedding_table(tmp_path, capsys):
    # the table would be 2**40 + 1 rows; nothing that large is allocated,
    # so the test needs no memory limit
    cat, prs = _huge_feature_catalog(tmp_path)
    ckpt, csv = tmp_path / "x.ckpt", tmp_path / "x.csv"
    want = (f"error: train: the item embedding table would have {2**40 + 1} rows, "
            f"more than {2**24}; a feature value indexes a table row\n")
    capsys.readouterr()
    rc = main(["train", "--catalog", str(cat), "--pairs", str(prs), "--out-checkpoint", str(ckpt),
               "--metrics-csv", str(csv), "--dim", "4"])
    assert rc == 2 and capsys.readouterr().err == want
    assert not ckpt.exists() and not csv.exists()
    rc = main(["sweep", "--catalog", str(cat), "--pairs", str(prs), "--variants", "full", "--seeds", "1",
               "--dim", "4"])
    assert rc == 2 and capsys.readouterr().err == want


@pytest.mark.parametrize("n_pairs", [pytest.param(0, marks=pytest.mark.filterwarnings("ignore:only 0 pairs")), 3])
def test_eval_with_no_test_pairs_exits_2(tmp_path, capsys, n_pairs):
    # the 0.6/0.2/0.2 split leaves no test pair out of 3, and split_dataset
    # puts all of fewer than 3 pairs in the training split
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "e")
    few = tmp_path / "few.jsonl"
    few.write_text("".join(prs.read_text().splitlines(keepends=True)[:n_pairs]))
    capsys.readouterr()
    rc = main(["eval", "--catalog", str(cat), "--pairs", str(few), "--checkpoint", str(ckpt)])
    assert rc == 2
    assert capsys.readouterr().err == "error: evaluate_pairs: no pairs to score\n"


def test_train_identical_invocations_identical_csv(tmp_path):
    cat, prs = _gen(tmp_path)
    _, csv1 = _train(tmp_path / "r1", cat, prs, "a")
    _, csv2 = _train(tmp_path / "r2", cat, prs, "a")
    assert csv1.read_bytes() == csv2.read_bytes()


def test_eval_is_deterministic_and_prints_table(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "e")
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        rc = main(["eval", "--catalog", str(cat), "--pairs", str(prs),
                   "--checkpoint", str(ckpt), "--split-seed", "0"])
        assert rc == 0
        # drop the wall-clock line; every metric line must be identical
        outputs.append([l for l in capsys.readouterr().out.splitlines()
                        if not l.startswith("wall_seconds")])
    assert outputs[0] == outputs[1]
    assert any(l.startswith("auc") for l in outputs[0])
    assert any(l.startswith("logloss") for l in outputs[0])


def test_eval_malformed_checkpoint_header_exits_2(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "bad")
    _, _, body = ckpt.read_bytes().partition(b"\n")
    ckpt.write_bytes(b'["not", "an", "object"]\n' + body)
    capsys.readouterr()
    rc = main(["eval", "--catalog", str(cat), "--pairs", str(prs), "--checkpoint", str(ckpt)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: header is not a JSON object")


def test_eval_zero_mlp_checkpoint_acc_is_majority_rate(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "zm")
    params, config = load_checkpoint(ckpt)
    for arr in (params.mlp.w1, params.mlp.b1, params.mlp.w2):
        arr[:] = 0.0
    np.asarray(params.mlp.b2)[()] = 0.0
    from liverec.model import save_checkpoint

    zeroed = tmp_path / "zeroed.ckpt"
    save_checkpoint(params, config, zeroed)
    json_path = tmp_path / "rep.json"
    rc = main(["eval", "--catalog", str(cat), "--pairs", str(prs), "--checkpoint", str(zeroed),
               "--split-seed", "0", "--json", str(json_path)])
    assert rc == 0
    report = json.loads(json_path.read_text())
    catalog, pairs = ingest_logs(cat, prs)
    _, _, test_split = split_dataset(pairs, seed=0)
    # constant score 0.5 predicts positive under the >= convention
    want_acc = float(np.mean([p.label == 1 for p in test_split]))
    assert report["acc"] == pytest.approx(want_acc)
    assert report["auc"] == 0.5


def test_eval_variant_override_identity_condition(tmp_path, capsys):
    # single category and short shared histories: co-retrieval is the identity
    cat = tmp_path / "c1.jsonl"
    prs = tmp_path / "p1.jsonl"
    assert main(["generate", "--out-catalog", str(cat), "--out-pairs", str(prs),
                 "--users", "20", "--anchors", "6", "--items", "40", "--categories", "1",
                 "--pairs", "80", "--hist-min", "1", "--hist-max", "5", "--seed", "9"]) == 0
    ckpt, _ = _train(tmp_path, cat, prs, "ov")
    capsys.readouterr()
    reports = []
    for variant in (None, "co-retrieval"):
        args = ["eval", "--catalog", str(cat), "--pairs", str(prs),
                "--checkpoint", str(ckpt), "--split-seed", "0"]
        if variant:
            args += ["--variant", variant]
        assert main(args) == 0
        reports.append(capsys.readouterr().out)
    # same metrics apart from the pair budget and timing lines
    pick = lambda text: [l for l in text.splitlines() if l.startswith(("auc", "acc", "logloss"))]
    assert pick(reports[0]) == pick(reports[1])


def test_score_matches_forward_pair(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "s")
    capsys.readouterr()
    rc = main(["score", "--catalog", str(cat), "--checkpoint", str(ckpt),
               "--user", "3", "--anchor", "2"])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    catalog, _ = ingest_logs(cat, prs)
    params, config = load_checkpoint(ckpt)
    assert printed == forward_pair(catalog, params, config, 3, 2)


def test_score_unknown_id_exits_2(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "u")
    capsys.readouterr()
    rc = main(["score", "--catalog", str(cat), "--checkpoint", str(ckpt),
               "--user", "999", "--anchor", "2"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown user id 999\n"


def test_score_explain_prints_budget_and_categories(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "x")
    capsys.readouterr()
    rc = main(["score", "--catalog", str(cat), "--checkpoint", str(ckpt),
               "--user", "3", "--anchor", "2", "--explain"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    catalog, _ = ingest_logs(cat, prs)
    params, config = load_checkpoint(ckpt)
    retrieved = co_retrieve(*catalog.kkv_indices(), 3, 2, config.co_retrieval_k)
    assert out[1] == f"pair_budget={pair_budget(retrieved)}"
    assert out[2] == "common_categories=" + ",".join(str(c) for c in sorted(retrieved.common_categories))


def test_score_explain_with_a_k_below_one_exits_2_before_scoring(tmp_path, capsys):
    # a checkpoint recorded with k < 1 (train no longer writes one) still
    # loads and scores; only --explain, which co-retrieves with k, refuses it
    from dataclasses import replace

    from liverec.model import save_checkpoint

    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "k")
    params, config = load_checkpoint(ckpt)
    k0 = tmp_path / "k0.ckpt"
    save_checkpoint(params, replace(config, co_retrieval_k=0), k0)
    capsys.readouterr()
    score = ["score", "--catalog", str(cat), "--checkpoint", str(k0), "--user", "3", "--anchor", "2"]
    assert main(score) == 0
    catalog, _ = ingest_logs(cat, prs)
    assert float(capsys.readouterr().out) == forward_pair(catalog, params, config, 3, 2)
    assert main(score + ["--explain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: score --explain: the checkpoint's co_retrieval_k must be at least 1, got 0\n"


def test_config_file_supplies_flags_and_flags_override(tmp_path):
    cat, prs = _gen(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "dim=6\nepochs=2\nbatch-size=32\nseed=5\ndropout=0.2\nvariant=no-anchor\n",
        encoding="utf-8",
    )
    ckpt = tmp_path / "cfg.ckpt"
    csv = tmp_path / "cfg.csv"
    rc = main(["train", "--config", str(cfg), "--catalog", str(cat), "--pairs", str(prs),
               "--out-checkpoint", str(ckpt), "--metrics-csv", str(csv), "--epochs", "1"])
    assert rc == 0
    _, config = load_checkpoint(ckpt)
    assert config.variant == "no_anchor_aspect"  # from the file
    assert config.dim == 6  # from the file
    assert config.epochs == 1  # flag wins
    # every accepted train flag round-trips through the file format
    roundtrip = tmp_path / "all.cfg"
    roundtrip.write_text(
        "variant=full\nlr-start=0.01\nlr-end=0.001\nbatch-size=16\nl2=0.0004\n"
        "dropout=0.1\ndim=6\nk=4\nepochs=1\nseed=3\nliteral-eq4-product=false\n"
        "optimizer=sgd\nsvdpp-head=false\nsplit-seed=0\ntiming-in-csv=false\n",
        encoding="utf-8",
    )
    rc = main(["train", "--config", str(roundtrip), "--catalog", str(cat), "--pairs", str(prs),
               "--out-checkpoint", str(ckpt), "--metrics-csv", str(csv)])
    assert rc == 0
    _, config = load_checkpoint(ckpt)
    assert config == TrainConfig(variant="full", lr_start=0.01, lr_end=0.001, batch_size=16,
                                 l2_weight=0.0004, dropout=0.1, dim=6, co_retrieval_k=4,
                                 epochs=1, seed=3)


def test_checkpoint_from_a_smaller_catalog_exits_2(tmp_path, capsys):
    small_cat, small_prs = _gen(tmp_path / "small", extra=("--categories", "3"))
    big_cat, big_prs = _gen(tmp_path / "big", extra=("--categories", "9"))
    ckpt, _ = _train(tmp_path, small_cat, small_prs, "small")
    capsys.readouterr()
    for argv in (["eval", "--catalog", str(big_cat), "--pairs", str(big_prs), "--checkpoint", str(ckpt)],
                 ["score", "--catalog", str(big_cat), "--checkpoint", str(ckpt), "--user", "1", "--anchor", "2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "feature slot 0 has vocabulary 9" in err


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--catalog", str(cat), "--pairs", str(prs),
               "--out-checkpoint", str(tmp_path / "x.ckpt"), "--metrics-csv", str(tmp_path / "x.csv")])
    assert rc == 2


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["train", "--catalog", str(tmp_path / "nope.jsonl"), "--pairs", str(tmp_path / "nope2.jsonl"),
               "--out-checkpoint", str(tmp_path / "x.ckpt"), "--metrics-csv", str(tmp_path / "x.csv")])
    assert rc == 2


def test_sweep_prints_per_seed_table(tmp_path, capsys):
    cat, prs = _gen(tmp_path, n_pairs=60)
    capsys.readouterr()
    rc = main(["sweep", "--catalog", str(cat), "--pairs", str(prs),
               "--variants", "full,no-item", "--seeds", "2",
               "--dim", "6", "--epochs", "1", "--batch-size", "32"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "variant,seed,test_auc,test_acc,test_logloss"
    data_rows = [l for l in out if l.startswith(("full,", "no-item,"))]
    assert len(data_rows) == 4


def test_eval_non_finite_checkpoint_exits_2(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "nan")
    params, config = load_checkpoint(ckpt)
    params.mlp.w2[0] = np.nan
    from liverec.model import save_checkpoint

    poisoned = tmp_path / "poisoned.ckpt"
    save_checkpoint(params, config, poisoned)
    capsys.readouterr()
    rc = main(["eval", "--catalog", str(cat), "--pairs", str(prs), "--checkpoint", str(poisoned)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: non-finite score nan for pair (user ")


def test_score_non_finite_checkpoint_exits_2(tmp_path, capsys):
    cat, prs = _gen(tmp_path)
    ckpt, _ = _train(tmp_path, cat, prs, "nan")
    params, config = load_checkpoint(ckpt)
    params.mlp.w2[0] = np.nan
    from liverec.model import save_checkpoint

    poisoned = tmp_path / "poisoned.ckpt"
    save_checkpoint(params, config, poisoned)
    capsys.readouterr()
    rc = main(["score", "--catalog", str(cat), "--checkpoint", str(poisoned), "--user", "3", "--anchor", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: non-finite score nan for pair (user 3, anchor 2)\n"


_REQUIRED_TRAIN_FLAGS = ["--catalog", "c.jsonl", "--pairs", "p.jsonl",
                         "--out-checkpoint", "x.ckpt", "--metrics-csv", "x.csv"]


@pytest.mark.parametrize("setting, message", [
    ("variant=bogus", "argument --variant: invalid choice: 'bogus'"),
    ("dim=abc", "argument --dim: invalid int value: 'abc'"),
    (None, "--config: [Errno 2] No such file or directory"),
    ("dim", "expected key=value, got 'dim'"),
    ("svdpp-head=maybe", "switch svdpp-head takes true or false, got 'maybe'"),
    ("nonsense=1", "unrecognized arguments: --nonsense=1"),
    ("var=no-item", "unrecognized arguments: --var=no-item"),
], ids=["bad-choice", "bad-type", "missing-file", "no-equals", "bad-switch", "unknown-key", "abbreviated-key"])
def test_config_file_bad_setting_is_a_usage_error(tmp_path, capsys, setting, message):
    cfg = tmp_path / "bad.cfg"
    if setting is not None:
        cfg.write_text(setting + "\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg), *_REQUIRED_TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: liverec")
    assert message in err.splitlines()[-1]
    assert "Traceback" not in err


def test_config_file_supplies_required_flags_in_either_form(tmp_path):
    cat, prs = _gen(tmp_path)
    ckpt = tmp_path / "req.ckpt"
    cfg = tmp_path / "req.cfg"
    cfg.write_text(
        f"catalog={cat}\npairs={prs}\nout-checkpoint={ckpt}\nmetrics-csv={tmp_path / 'req.csv'}\n"
        "variant=no-item\ndim=6\nepochs=2\nbatch-size=32\nsvdpp-head=no\nliteral-eq4-product=yes\n",
        encoding="utf-8",
    )
    for argv, epochs in ((["--config", str(cfg)], 2), ([f"--config={cfg}", "--epochs", "1"], 1)):
        assert main(["train", *argv]) == 0
        _, config = load_checkpoint(ckpt)
        assert (config.variant, config.dim, config.epochs) == ("no_item_aspect", 6, epochs)
        assert config.literal_eq4_product and not config.svdpp_head


def test_train_flag_defaults_are_train_config_defaults():
    parser, _ = _build_parser()
    args = parser.parse_args(["train", *_REQUIRED_TRAIN_FLAGS])
    defaults = TrainConfig()
    for field in fields(TrainConfig):
        if field.name not in ("variant", "threads"):
            assert getattr(args, field.name) == getattr(defaults, field.name), field.name
    assert _config_from_args(args) == defaults


def test_sweep_unknown_variant_exits_2(capsys):
    assert main(["sweep", "--catalog", "c.jsonl", "--pairs", "p.jsonl", "--variants", "full,bogus"]) == 2
    assert "argument --variants: variants must be among" in capsys.readouterr().err


def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys):
    rc = main(["train", "--catalog", str(tmp_path), "--pairs", str(tmp_path / "nope.jsonl"),
               "--out-checkpoint", str(tmp_path / "x.ckpt"), "--metrics-csv", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno 21] Is a directory: '{tmp_path}'")
