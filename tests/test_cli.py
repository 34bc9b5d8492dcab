"""End-to-end tests of the command-line interface via main()."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relcnn.cli as cli
import relcnn.model as model
from relcnn.cli import MANIFEST_FORMAT, build_parser, main
from relcnn.corpus import read_instances
from relcnn.encoding import EncoderConfig, encode_instances, load_vocab
from relcnn.model import HyperParams
from relcnn.relations import RELATION_TYPES
from relcnn.synthgen import LabelRule, SynthSpec, placement_task_spec
from relcnn.trainer import TrainConfig

from conftest import rewrite_checkpoint_arrays, rewrite_checkpoint_meta, write_raw_corpus


def run(*argv: str) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(autouse=True)
def _no_staged_file_left(tmp_path):
    """Every command, failed or not, leaves no staging file behind."""
    yield
    leftover = sorted(tmp_path.rglob("*.tmp"))
    assert not leftover, f"staged files left behind: {leftover}"


def _synth(out_dir: Path, n=10, seed=0, noise=None) -> Path:
    corpus = out_dir / "corpus.jsonl"
    args = ["synth", "--preset", "placement", "--out", corpus,
            "--sentences-per-type", n, "--seed", seed,
            "--ledger", out_dir / "ledger.json"]
    if noise is not None:
        args += ["--noise-rate", noise]
    assert run(*args) == 0
    return corpus


def _train_tiny(tmp: Path, corpus: Path, vocab: Path, **flags) -> Path:
    ckpt = tmp / "model.npz"
    args = ["train", "--train", corpus, "--vocab", vocab,
            "--checkpoint", ckpt, "--metrics", tmp / "metrics.json",
            "--d-w", 8, "--d-p", 2, "--d-ct", 2, "--d-c", 6,
            "--dropout", 0.0, "--beta", 0.0, "--lr", 0.05,
            "--epochs", 2, "--seed", 0]
    for k, v in flags.items():
        args += [f"--{k.replace('_', '-')}", v]
    assert run(*args) == 0
    return ckpt


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_corpus_ledger_and_manifest(tmp_path, capsys):
    corpus = _synth(tmp_path)
    assert corpus.exists()
    assert (tmp_path / "ledger.json").exists()
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["format"] == MANIFEST_FORMAT
    assert manifest["command"] == "synth"
    assert manifest["seeds"] == {"seed": 0}
    assert str(corpus) in manifest["outputs"]
    assert manifest["config"]["spec"]["sentences_per_type"] == 10
    insts = read_instances(corpus)
    assert len(insts) == 20
    out = capsys.readouterr().out
    assert "accuracy" in out.lower()


def test_synth_rerun_is_byte_identical(tmp_path):
    a = _synth(tmp_path / "a")
    b = _synth(tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a/ledger.json").read_bytes() == (tmp_path / "b/ledger.json").read_bytes()


def test_synth_vocab_output_feeds_train(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    vocab_path = tmp_path / "vocab.txt"
    assert run("synth", "--preset", "placement", "--sentences-per-type", 6,
               "--seed", 1, "--out", corpus, "--vocab", vocab_path,
               "--max-distance", 30) == 0
    vocab = load_vocab(vocab_path)
    assert vocab.max_distance == 30
    insts = read_instances(corpus)
    assert all(tok in vocab.word_ids
               for inst in insts for tok in inst.concept1.tokens)
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert str(vocab_path) in manifest["outputs"]
    assert manifest["config"]["encoder"]["max_distance"] == 30
    # the emitted vocabulary is directly usable for training
    _train_tiny(tmp_path, corpus, vocab_path, max_distance=30)
    assert (tmp_path / "model.npz").exists()


def test_synth_spec_file_round_trip(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(asdict(placement_task_spec(sentences_per_type=3))))
    out = tmp_path / "c.jsonl"
    assert run("synth", "--spec", spec_path, "--out", out) == 0
    assert len(read_instances(out)) == 6


@pytest.mark.parametrize("spec", [
    {"sentences_per_type": "many"},
    {**asdict(placement_task_spec()), "sentences_per_type": "3"},
], ids=["no-rules", "string-count"])
def test_synth_rejects_a_bad_spec_naming_the_file(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    work = tmp_path / "work"
    work.mkdir()
    assert run("synth", "--spec", spec_path, "--out", work / "c.jsonl") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}: bad synth spec: ") and err.count("\n") == 1
    assert list(work.iterdir()) == []


def _spec_json(**overrides) -> dict:
    """The placement spec as a spec file holds it."""
    return json.loads(json.dumps(asdict(placement_task_spec(**overrides))))


@pytest.mark.parametrize("overrides", [
    {"sentences_per_type": 3},
    {"sentences_per_type": 3, "distractor_placement": None, "noise_rate": 0.2},
], ids=["placement", "no-distractor-noisy"])
def test_synth_spec_from_asdict_round_trips(tmp_path, overrides):
    spec = _spec_json(**overrides)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "c.jsonl"
    assert run("synth", "--spec", spec_path, "--out", out) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["config"]["spec"] == spec
    assert json.loads(Path(f"{out}.ledger.json").read_text())["spec"] == spec


def test_synth_spec_file_matches_the_preset_with_the_same_overrides(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_json()))
    flags = ["--sentences-per-type", 4, "--seed", 5, "--noise-rate", 0.2]
    outputs = {}
    for source in (["--spec", spec_path], ["--preset", "placement"]):
        out = tmp_path / source[0].strip("-") / "c.jsonl"
        assert run("synth", *source, "--out", out, *flags) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        outputs[source[0]] = (out.read_bytes(), Path(f"{out}.ledger.json").read_bytes(),
                              manifest["config"])
    assert outputs["--spec"] == outputs["--preset"]


@pytest.mark.parametrize("edit,key", [
    (lambda spec: spec.update(seed=1.5), "seed"),
    (lambda spec: spec.update(concept_tokens=True), "concept_tokens"),
    (lambda spec: spec["rules"][0].update(signal="siga"), "rules"),
    (lambda spec: spec.update(len_lo=18.5), "len_lo"),
    (lambda spec: spec.update(window=4.0), "window"),
    (lambda spec: spec["rules"][0].update(label="TeXP"), "rules"),
], ids=["float-seed", "bool-count", "string-signal", "float-length", "float-window",
        "unknown-label"])
def test_malformed_synth_spec_names_the_key(tmp_path, capsys, edit, key):
    spec = _spec_json(sentences_per_type=3)
    edit(spec)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    work = tmp_path / "work"
    work.mkdir()
    assert run("synth", "--spec", spec_path, "--out", work / "c.jsonl") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {spec_path}: bad synth spec: {key}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(work.iterdir()) == []


# Each spec key, as a path into the spec file, and whether it may be left out.
_SPEC_KEYS = [((f.name,), f.default is not MISSING) for f in fields(SynthSpec)] + [
    (("rules", 0, f.name), f.default is not MISSING) for f in fields(LabelRule)
]
# Each is of the wrong type, or out of range, for every key.
_WRONG_VALUES = [True, 1.5, "x", [], [1], {}]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(_SPEC_KEYS), action=st.sampled_from(["set", "delete", "add"]),
       value=st.sampled_from(_WRONG_VALUES))
def test_synth_spec_fuzz_exits_cleanly(key, action, value):
    (*parents, name), optional = key
    spec = _spec_json(sentences_per_type=2)
    node = spec
    for p in parents:
        node = node[p]
    if action == "set":
        node[name] = value
    elif action == "delete":
        del node[name]
    else:
        node[f"{name}_extra"] = value
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run("synth", "--spec", spec_path, "--out", Path(tmp) / "out" / "c.jsonl")
        files = sorted(p.name for p in Path(tmp).rglob("*") if p.is_file())
    if action == "delete" and optional:
        assert rc == 0
    else:
        assert rc == 1
        assert err.getvalue().startswith(f"error: {spec_path}: bad synth spec: ")
        assert err.getvalue().count("\n") == 1
        assert files == ["spec.json"]


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_adjacent_layout(tmp_path, raw_corpus, capsys):
    out = tmp_path / "out"
    out.mkdir()
    rc = run("preprocess", "--input", raw_corpus, "--out", out / "insts.jsonl",
             "--vocab", out / "vocab.txt", "--stats", out / "stats.json")
    assert rc == 0
    insts = read_instances(out / "insts.jsonl")
    assert len(insts) >= 8  # positives plus generated negatives
    stats = json.loads((out / "stats.json").read_text())
    assert stats["n_instances"] == len(insts)
    assert (out / "insts.jsonl.manifest.json").exists()
    assert "instances" in capsys.readouterr().out


def test_preprocess_parallel_layout_matches_adjacent(tmp_path):
    adj = write_raw_corpus(tmp_path / "adj", layout="adjacent")
    par = write_raw_corpus(tmp_path / "par", layout="parallel")
    out_a, out_p = tmp_path / "a.jsonl", tmp_path / "p.jsonl"
    assert run("preprocess", "--input", adj, "--out", out_a) == 0
    assert run("preprocess", "--input", par, "--out", out_p) == 0
    assert out_a.read_bytes() == out_p.read_bytes()


def test_preprocess_rerun_byte_identical(tmp_path, raw_corpus):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        out.mkdir()
        assert run("preprocess", "--input", raw_corpus, "--out", out / "i.jsonl",
                   "--vocab", out / "v.txt", "--stats", out / "s.json") == 0
    for name in ("i.jsonl", "v.txt", "s.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_preprocess_empty_input_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run("preprocess", "--input", empty, "--out", tmp_path / "x.jsonl") == 1
    assert "error" in capsys.readouterr().err.lower()


def test_preprocess_parse_error_names_file(tmp_path, capsys):
    bad = write_raw_corpus(tmp_path / "bad")
    (bad / "record-01.con").write_text("garbage line\n")
    assert run("preprocess", "--input", bad, "--out", tmp_path / "x.jsonl") == 1
    err = capsys.readouterr().err
    assert "record-01.con" in err


# ---------------------------------------------------------------------------
# train / predict / eval chain
# ---------------------------------------------------------------------------


def _mk_vocab(corpus: Path, vocab: Path, max_distance=30, concept_len=3) -> None:
    from relcnn.encoding import EncoderConfig, build_vocab, save_vocab

    insts = read_instances(corpus)
    save_vocab(build_vocab(insts, EncoderConfig(max_distance, concept_len)), vocab)


def test_train_predict_eval_chain(tmp_path, capsys):
    corpus = _synth(tmp_path, n=10)
    vocab = tmp_path / "vocab.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab)
    assert ckpt.exists()
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert "best_epoch" in metrics
    assert "wall_time_s" not in json.dumps(metrics)

    preds = tmp_path / "preds.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab,
               "--input", corpus, "--out", preds) == 0
    lines = [json.loads(l) for l in preds.read_text().splitlines()]
    assert len(lines) == 20
    valid = {t.value for t in RELATION_TYPES}
    for rec in lines:
        assert rec["pred"] in valid
        assert rec["gold"] in valid
        probs = rec["probs"]
        assert set(probs) == valid
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    report = tmp_path / "report.json"
    assert run("eval", "--gold", corpus, "--pred", preds, "--out", report) == 0
    rep = json.loads(report.read_text())
    assert {"micro", "per_type", "confusion"} <= set(rep)
    out = capsys.readouterr().out
    assert "micro" in out.lower()


def test_train_rejects_unreadable_dev_and_missing_vocab(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    assert run("train", "--train", corpus, "--vocab", tmp_path / "nope.txt",
               "--checkpoint", tmp_path / "m.npz") == 1
    assert capsys.readouterr().err


def test_predict_rejects_vocab_checkpoint_mismatch(tmp_path, capsys):
    corpus = _synth(tmp_path, n=6)
    vocab_a = tmp_path / "va.txt"
    vocab_b = tmp_path / "vb.txt"
    _mk_vocab(corpus, vocab_a)
    _mk_vocab(corpus, vocab_b, max_distance=29)  # different content
    ckpt = _train_tiny(tmp_path, corpus, vocab_a)
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab_b,
               "--input", corpus, "--out", tmp_path / "p.jsonl") == 1
    assert "vocab" in capsys.readouterr().err.lower()


def test_predict_on_empty_instance_file(tmp_path):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "po.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab,
               "--input", empty, "--out", out) == 0
    assert out.read_text() == ""


def test_eval_rejects_misaligned_predictions(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab)
    preds = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab,
               "--input", corpus, "--out", preds) == 0
    # drop one prediction line -> misaligned
    lines = preds.read_text().splitlines()
    preds.write_text("\n".join(lines[:-1]) + "\n")
    assert run("eval", "--gold", corpus, "--pred", preds) == 1
    assert capsys.readouterr().err


def test_eval_with_bootstrap_ci(tmp_path, capsys):
    corpus = _synth(tmp_path, n=8)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab)
    preds = tmp_path / "p.jsonl"
    run("predict", "--checkpoint", ckpt, "--vocab", vocab, "--input", corpus,
        "--out", preds)
    report = tmp_path / "rep.json"
    assert run("eval", "--gold", corpus, "--pred", preds, "--out", report,
               "--bootstrap", 120, "--seed", 3) == 0
    rep = json.loads(report.read_text())
    assert "ci" in rep and "micro_f1" in rep["ci"]
    lo, hi = rep["ci"]["micro_f1"]
    assert lo <= hi


def test_train_rejects_empty_dev_set_without_output(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    assert run("train", "--train", corpus, "--dev", empty, "--vocab", vocab,
               "--checkpoint", tmp_path / "m.npz", "--epochs", 1) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: empty dev set") and err.count("\n") == 1
    assert not (tmp_path / "m.npz").exists()
    assert not (tmp_path / "m.npz.metrics.json").exists()
    assert not (tmp_path / "m.npz.manifest.json").exists()


def test_checkpoint_path_without_suffix_is_used_as_given(tmp_path):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = tmp_path / "mdl"
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", ckpt,
               "--d-w", 8, "--d-p", 2, "--d-ct", 2, "--d-c", 6, "--epochs", 1) == 0
    preds = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab,
               "--input", corpus, "--out", preds) == 0
    assert not (tmp_path / "mdl.npz").exists()
    for manifest in (Path(str(ckpt) + ".manifest.json"), Path(str(preds) + ".manifest.json")):
        outputs = json.loads(manifest.read_text())["outputs"]
        assert outputs and all(Path(p).exists() for p in outputs)


@pytest.mark.parametrize("kind,content,key", [
    ("config", {"hyperparams": 5}, "hyperparams"),
    ("config", {"hyperparams": {"d_w": "abc"}}, "d_w"),
    ("config", {"train": {"epochs": 1.5}}, "epochs"),
    ("grid", {"d_p": 5}, "d_p"),
    ("checkpoint", None, "hidden"),
], ids=["section-not-object", "string-for-int", "float-for-int", "axis-not-list",
        "checkpoint-unknown-key"])
def test_wrongly_typed_input_exits_1_without_output(tmp_path, capsys, kind, content, key):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    if kind == "checkpoint":
        bad = tmp_path / "bad.npz"
        rewrite_checkpoint_meta(_train_tiny(tmp_path, corpus, vocab), bad,
                                lambda meta: meta["hyperparams"].update(hidden=3))
        argv = ["predict", "--checkpoint", bad, "--vocab", vocab, "--input", corpus,
                "--out", work / "p.jsonl"]
    else:
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(content))
        out = ["--checkpoint", work / "m.npz"] if kind == "config" else ["--out", work / "g.csv"]
        argv = ["train" if kind == "config" else "gridsearch", "--train", corpus,
                "--vocab", vocab, f"--{kind}", bad, *out, "--epochs", 1]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and key in err and err.count("\n") == 1
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("flag", ["config", "grid", "spec"])
def test_invalid_json_file_is_named(tmp_path, capsys, flag):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    bad = tmp_path / f"{flag}.json"
    bad.write_text('{"d_w": 8,\n')
    argv = {
        "config": ["train", "--train", corpus, "--vocab", vocab, "--checkpoint", work / "m.npz"],
        "grid": ["gridsearch", "--train", corpus, "--vocab", vocab, "--out", work / "g.csv"],
        "spec": ["synth", "--out", work / "c.jsonl"],
    }[flag]
    capsys.readouterr()
    assert run(*argv, f"--{flag}", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid JSON: ") and err.count("\n") == 1
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("edit,array", [
    (lambda a: a.update(w_classes=a["w_classes"] * np.nan), "w_classes"),
    (lambda a: a.update(w_pos=a["w_pos"].astype(np.float32)), "w_pos"),
    (lambda a: a.update(w_conv_7=a["w_conv_0"]), "w_conv_7"),
    (lambda a: a.pop("w_ctype"), "w_ctype"),
    (lambda a: a.update(w_classes=a["w_classes"][:, :-1]), "w_classes"),
    (lambda a: a.update(w_word=a["w_word"][:-1]), "w_word"),
    (lambda a: a.update(w_pos=a["w_pos"][1:]), "w_pos"),
], ids=["nan", "float32", "extra-array", "missing-array", "narrowed", "word-rows", "position-rows"])
def test_predict_rejects_a_broken_checkpoint_array(tmp_path, capsys, edit, array):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    bad = tmp_path / "bad.npz"
    rewrite_checkpoint_arrays(_train_tiny(tmp_path, corpus, vocab), bad, edit)
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("predict", "--checkpoint", bad, "--vocab", vocab, "--input", corpus,
               "--out", work / "p.jsonl") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and array in err and err.count("\n") == 1
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command,schemas", [
    ("train", (HyperParams, TrainConfig, EncoderConfig)),
    ("gridsearch", (HyperParams, TrainConfig, EncoderConfig)),
    ("preprocess", (EncoderConfig,)),
    ("synth", (EncoderConfig,)),
])
def test_every_config_field_has_a_flag(command, schemas):
    required = {
        "train": ["--train", "t", "--vocab", "v", "--checkpoint", "c"],
        "gridsearch": ["--train", "t", "--vocab", "v", "--out", "o"],
        "preprocess": ["--input", "i", "--out", "o"],
        "synth": ["--out", "o"],
    }[command]
    dests = vars(build_parser().parse_args([command, *required]))
    for cls in schemas:
        missing = [f.name for f in fields(cls) if f.name not in dests]
        assert not missing, f"{command}: no flag for {cls.__name__} fields {missing}"


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_metrics_dev_block_matches_rescored_checkpoint(tmp_path, epochs):
    from relcnn.encoding import encode_instances
    from relcnn.evaluator import evaluate
    from relcnn.model import load_checkpoint, predict

    corpus = _synth(tmp_path, n=10, noise=0.3)
    dev = _synth(tmp_path / "dev", n=6, seed=1, noise=0.3)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab, dev=dev, epochs=epochs)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    model = load_checkpoint(ckpt)
    encs = encode_instances(read_instances(dev), load_vocab(vocab), model.encoder)
    rescored = evaluate([e.gold for e in encs],
                        [predict(e, model.params, model.hp)[0] for e in encs])
    assert metrics["dev"] == json.loads(json.dumps(rescored.to_dict()))
    if epochs:
        assert metrics["dev"]["micro"]["f1"] == metrics["record"]["dev_f1"][metrics["best_epoch"]]


def _write_preds(path: Path, corpus: Path, edit=None) -> None:
    """One gold-copying prediction per instance; `edit(i, line)` may replace line i."""
    from relcnn.cli import _instance_key

    lines = [json.dumps({"key": _instance_key(inst), "pred": inst.gold.value})
             for inst in read_instances(corpus)]
    if edit is not None:
        lines = [edit(i, line) for i, line in enumerate(lines)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("bad_line,message", [
    ('{"pred_label": "TeRP"}', "'pred'"),
    ('{"pred": "TrXP"}', "'TrXP' is not a valid RelationType"),
    ('{"pred": [1]}', "[1] is not a valid RelationType"),
    ('{"pred": "TeRP",', "Expecting"),
    ('["TeRP"]', "list indices"),
    ("5", "not subscriptable"),
], ids=["missing-pred", "unknown-label", "unhashable-label", "invalid-json",
        "list-line", "number-line"])
def test_eval_rejects_malformed_prediction_line(tmp_path, capsys, bad_line, message):
    corpus = _synth(tmp_path, n=4)
    preds = tmp_path / "p.jsonl"
    _write_preds(preds, corpus, lambda i, line: bad_line if i == 2 else line)
    capsys.readouterr()
    assert run("eval", "--gold", corpus, "--pred", preds) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds}:3: bad prediction record: ") and message in err
    assert err.count("\n") == 1
    assert not Path(str(preds) + ".report.json").exists()


def test_eval_key_mismatch_names_the_file_line_after_blank_lines(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    preds = tmp_path / "p.jsonl"
    _write_preds(preds, corpus, lambda i, line: (
        "\n" + line.replace('"key": "', '"key": "other') if i == 1 else line))
    capsys.readouterr()
    assert run("eval", "--gold", corpus, "--pred", preds) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds}:3: prediction key 'other")


def test_stats_rejects_wrong_shape_record(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("[1, 2]\n")
    assert run("stats", "--input", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1: bad instance record") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# gridsearch
# ---------------------------------------------------------------------------


def test_gridsearch_csv_ranked(tmp_path):
    corpus = _synth(tmp_path, n=6)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {"d_p": [2], "d_c": [6], "lr": [0.05, 0.01], "beta": [0.0]}
    ))
    out_csv = tmp_path / "grid.csv"
    assert run("gridsearch", "--train", corpus, "--vocab", vocab,
               "--grid", grid, "--out", out_csv, "--json", tmp_path / "grid_full.json",
               "--d-w", 8, "--d-ct", 2, "--dropout", 0.0,
               "--epochs", 1, "--seed", 0) == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0].startswith("rank,")
    assert len(rows) == 3  # header + 2 cells
    full = json.loads((tmp_path / "grid_full.json").read_text())
    assert len(full["results"]) == 2
    assert [c["rank"] for c in full["results"]] == [1, 2]
    f1s = [c["dev_f1"] for c in full["results"]]
    assert f1s == sorted(f1s, reverse=True)


def test_gridsearch_rejects_unknown_axis(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"learning_rate": [0.1]}))
    assert run("gridsearch", "--train", corpus, "--vocab", vocab,
               "--grid", grid, "--out", tmp_path / "g.csv") == 1
    assert "axes" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# stats / config / misc
# ---------------------------------------------------------------------------


def test_stats_command(tmp_path, capsys):
    corpus = _synth(tmp_path, n=5)
    assert run("stats", "--input", corpus, "--out", tmp_path / "st.json") == 0
    st = json.loads((tmp_path / "st.json").read_text())
    assert st["n_instances"] == 10
    assert "TeRP" in json.dumps(st)


def test_config_file_with_flag_override(tmp_path):
    corpus = _synth(tmp_path, n=6)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "hyperparams": {"d_w": 8, "d_p": 2, "d_ct": 2, "d_c": 6, "dropout_p": 0.0,
                        "beta": 0.0, "lr": 0.05},
        "train": {"epochs": 1, "seed": 0},
        "encoder": {"max_distance": 30, "concept_len": 3},
    }))
    ck1 = tmp_path / "m1.npz"
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", ck1,
               "--config", config) == 0
    from relcnn.model import load_checkpoint

    assert load_checkpoint(ck1).hp.lr == 0.05
    assert load_checkpoint(ck1).encoder.max_distance == 30  # encoder via config
    ck2 = tmp_path / "m2.npz"
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", ck2,
               "--config", config, "--lr", 0.02) == 0
    assert load_checkpoint(ck2).hp.lr == 0.02  # flag beats config


def test_config_rejects_unknown_keys(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"hyperparams": {"hidden_size": 10}}))
    assert run("train", "--train", corpus, "--vocab", vocab,
               "--checkpoint", tmp_path / "m.npz", "--config", config) == 1
    assert "hidden_size" in capsys.readouterr().err


def test_config_rejects_unknown_sections(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": {"d_w": 8}}))  # typo'd section
    assert run("train", "--train", corpus, "--vocab", vocab,
               "--checkpoint", tmp_path / "m.npz", "--config", config) == 1
    err = capsys.readouterr().err
    assert "model" in err and "section" in err


def test_unknown_subcommand_and_version(capsys):
    with pytest.raises(SystemExit):
        run("frobnicate")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "relcnn" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# position radius
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("with_config", [False, True])
def test_train_records_the_vocabulary_radius(tmp_path, with_config):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab, max_distance=30)
    flags = {}
    if with_config:  # a config file without an encoder radius
        flags["config"] = tmp_path / "cfg.json"
        flags["config"].write_text(json.dumps({"encoder": {"concept_len": 3}}))
    ckpt = _train_tiny(tmp_path, corpus, vocab, **flags)  # no --max-distance: the default is 60
    from relcnn.model import load_checkpoint

    model = load_checkpoint(ckpt)
    assert model.encoder.max_distance == 30
    assert len(model.params.w_pos) == 2 * 30 + 1
    manifest = json.loads(Path(f"{ckpt}.manifest.json").read_text())
    assert manifest["config"]["encoder"]["max_distance"] == 30


@pytest.mark.parametrize("command,via", [
    ("train", "flag"), ("train", "config"), ("gridsearch", "flag"), ("gridsearch", "config"),
])
def test_explicit_radius_that_disagrees_with_the_vocabulary_exits_1(tmp_path, capsys, command, via):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab, max_distance=30)
    work = tmp_path / "work"
    work.mkdir()
    if via == "flag":
        radius = ["--max-distance", 60]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"encoder": {"max_distance": 60}}))
        radius = ["--config", config]
    out = ["--checkpoint", work / "m.npz"] if command == "train" else ["--out", work / "g.csv"]
    capsys.readouterr()
    assert run(command, "--train", corpus, "--vocab", vocab, *out, *radius, "--epochs", 1) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max_distance 60 disagrees with ") and err.count("\n") == 1
    assert str(vocab) in err and "max_distance 30" in err
    assert list(work.iterdir()) == []


def _break_utf8(src: Path, dst: Path, line: int) -> Path:
    """`src` copied to `dst` with a 0xff byte, which is never UTF-8, opening line `line`."""
    lines = src.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    dst.write_bytes(b"\n".join(lines))
    return dst


@pytest.mark.parametrize("kind", [
    "eval-pred", "train-config", "train-embeddings", "train-vocab", "gridsearch-grid",
    "preprocess-txt", "stats-input", "synth-spec",
])
def test_input_that_is_not_utf8_is_named(tmp_path, raw_corpus, capsys, kind):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    text = tmp_path / "text"
    text.write_text(json.dumps({"d_p": [2], "epochs": 1}, indent=1) + "\n")
    train = ["train", "--train", corpus, "--vocab", vocab, "--checkpoint", work / "m.npz"]
    if kind == "eval-pred":
        preds = tmp_path / "p.jsonl"
        assert run("predict", "--checkpoint", _train_tiny(tmp_path, corpus, vocab),
                   "--vocab", vocab, "--input", corpus, "--out", preds) == 0
        bad, line = _break_utf8(preds, tmp_path / "bad.jsonl", 2), 2
        argv = ["eval", "--gold", corpus, "--pred", bad, "--out", work / "r.json"]
    elif kind == "train-vocab":
        bad, line = _break_utf8(vocab, tmp_path / "bad.txt", 5), 5
        argv = [*train[:3], "--vocab", bad, *train[5:]]
    elif kind == "preprocess-txt":
        bad, line = _break_utf8(*[next(raw_corpus.glob("*.txt"))] * 2, 1), 1
        argv = ["preprocess", "--input", raw_corpus, "--out", work / "i.jsonl"]
    elif kind == "stats-input":
        bad, line = _break_utf8(corpus, tmp_path / "bad.jsonl", 2), 2
        argv = ["stats", "--input", bad, "--out", work / "s.json"]
    else:
        bad, line = _break_utf8(text, tmp_path / "bad", 2), 2
        argv = {
            "train-config": [*train, "--config", bad],
            "train-embeddings": [*train, "--embeddings", bad],
            "gridsearch-grid": ["gridsearch", *train[1:5], "--out", work / "g.csv", "--grid", bad],
            "synth-spec": ["synth", "--spec", bad, "--out", work / "c.jsonl"],
        }[kind]
    capsys.readouterr()
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}:{line}: not UTF-8 text: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(work.iterdir()) == []


# ---------------------------------------------------------------------------
# unreadable vocabularies and checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("edit,lineno", [
    (lambda lines: lines[:1], 2),
    (lambda lines: [lines[0], "max_distance\tx", *lines[2:]], 2),
    (lambda lines: [*lines[:5], "no-tab-here", *lines[5:]], 6),
    (lambda lines: [lines[0], lines[1], "ctypes\tproblem", *lines[3:]], 3),
], ids=["header-only", "radius-not-int", "token-without-id", "wrong-concept-types"])
def test_malformed_vocabulary_line_is_named(tmp_path, capsys, edit, lineno):
    corpus = _synth(tmp_path, n=4)
    good = tmp_path / "good.txt"
    _mk_vocab(corpus, good)
    vocab = tmp_path / "v.txt"
    vocab.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", work / "m.npz") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vocab}:{lineno}: ") and err.count("\n") == 1
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("values,message", [
    ("x x", "could not convert string to float: 'x'"),
    ("1.0", "expected 2 values"),
    ("0.5 nan", "non-finite value for {word!r}"),
    ("-inf 0.5", "non-finite value for {word!r}"),
], ids=["non-numeric", "wrong-count", "nan", "inf"])
def test_malformed_word_vector_line_is_named(tmp_path, capsys, values, message):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ids = load_vocab(vocab).word_ids
    word = max(ids, key=ids.get)
    emb = tmp_path / "emb.txt"
    emb.write_text(f"2 2\nnot-in-the-vocabulary 0.5 0.5\n{word} {values}\n")
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", work / "m.npz",
               "--d-w", 2, "--epochs", 1, "--embeddings", emb) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {emb}:3: ") and message.format(word=word) in err
    assert err.count("\n") == 1
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "gridsearch", "eval"])
def test_negative_seed_exits_1_naming_the_seed(tmp_path, capsys, command):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    if command == "eval":
        preds = tmp_path / "p.jsonl"
        _write_preds(preds, corpus)
        argv = ["eval", "--gold", corpus, "--pred", preds, "--out", work / "r.json",
                "--bootstrap", 100]
    else:
        out = ["--checkpoint", work / "m.npz"] if command == "train" else ["--out", work / "g.csv"]
        argv = [command, "--train", corpus, "--vocab", vocab, *out, "--epochs", 1]
    capsys.readouterr()
    assert run(*argv, "--seed", -1) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and "-1" in err and err.count("\n") == 1
    assert list(work.iterdir()) == []


def _npy_bytes(data: bytes) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


@pytest.mark.parametrize("damage", [
    lambda data: data[: len(data) // 2],
    lambda data: b"",
    lambda data: b"relcnn-checkpoint v1\n",
    _npy_bytes,
], ids=["truncated", "empty", "not-a-zip", "single-array"])
def test_predict_rejects_an_unreadable_checkpoint(tmp_path, capsys, damage):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    bad = tmp_path / "bad.npz"
    bad.write_bytes(damage(_train_tiny(tmp_path, corpus, vocab).read_bytes()))
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("predict", "--checkpoint", bad, "--vocab", vocab, "--input", corpus,
               "--out", work / "p.jsonl") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not a relcnn-checkpoint v1 file: ")
    assert err.count("\n") == 1
    assert list(work.iterdir()) == []


# ---------------------------------------------------------------------------
# one output path: staged writes, committed together with the manifest
# ---------------------------------------------------------------------------


def _snapshot(paths) -> dict[Path, bytes]:
    return {Path(p): Path(p).read_bytes() for p in paths}


def test_failed_checkpoint_write_leaves_the_previous_run_intact(tmp_path, capsys, monkeypatch):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab)
    before = _snapshot([ckpt, tmp_path / "metrics.json", f"{ckpt}.manifest.json"])

    def savez_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04 half a checkpoint")
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    capsys.readouterr()
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", ckpt,
               "--metrics", tmp_path / "metrics.json", "--d-w", 8, "--d-p", 2, "--d-ct", 2,
               "--d-c", 6, "--epochs", 1, "--seed", 5) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert _snapshot(before) == before


def test_interrupted_predict_keeps_the_old_predictions(tmp_path, monkeypatch):
    corpus = _synth(tmp_path, n=12)  # 24 instances: more than one scoring chunk
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab)
    preds = tmp_path / "p.jsonl"
    argv = ["predict", "--checkpoint", ckpt, "--vocab", vocab, "--input", corpus, "--out", preds]
    assert run(*argv) == 0
    before = _snapshot([preds, f"{preds}.manifest.json"])
    staging_files = []

    def interrupted(encs, *args):
        if staging_files:  # the second chunk: the first chunk's records are written
            raise KeyboardInterrupt
        staging_files.extend(tmp_path.glob(".p.jsonl.*.tmp"))
        return score_chunk(encs, *args)

    score_chunk = model.score_chunk
    monkeypatch.setattr(model, "score_chunk", interrupted)
    assert len(read_instances(corpus)) > model.PREDICT_CHUNK
    with pytest.raises(KeyboardInterrupt):
        run(*argv)
    assert len(staging_files) == 1 and _snapshot(before) == before


def test_predict_labels_equal_per_instance_predict(tmp_path):
    corpus = _synth(tmp_path, n=12)  # 24 instances: more than one scoring chunk
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab, windows="2,3")
    preds = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab,
               "--input", corpus, "--out", preds) == 0
    records = [json.loads(line) for line in preds.read_text().splitlines()]
    loaded = model.load_checkpoint(ckpt)
    encs = encode_instances(read_instances(corpus), load_vocab(vocab), loaded.encoder)
    assert len(records) == len(encs) > model.PREDICT_CHUNK
    for rec, enc in zip(records, encs):
        label, probs = model.predict(enc, loaded.params, loaded.hp)
        assert rec["pred"] == label.value
        np.testing.assert_allclose([rec["probs"][t.value] for t in RELATION_TYPES], probs,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("command", ["synth", "preprocess"])
def test_side_outputs_into_missing_directories(tmp_path, raw_corpus, command):
    out = tmp_path / "out" / "c.jsonl"
    vocab = tmp_path / "vocab-dir" / "v.txt"
    side = tmp_path / "side-dir" / "s.json"
    if command == "synth":
        argv = ["synth", "--preset", "placement", "--sentences-per-type", 3,
                "--out", out, "--vocab", vocab, "--ledger", side]
        outputs = [out, side, vocab]
    else:
        argv = ["preprocess", "--input", raw_corpus, "--out", out, "--vocab", vocab, "--stats", side]
        outputs = [out, vocab, side]
    assert run(*argv) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["outputs"] == [str(p) for p in outputs]
    assert all(p.is_file() for p in outputs)


def _command_argv(command: str, src: Path, raw: Path, out: Path) -> list:
    """argv for `command` reading the artifacts under `src`, writing under `out`."""
    corpus, vocab, ckpt, preds = src / "corpus.jsonl", src / "v.txt", src / "model.npz", src / "p.jsonl"
    tiny = ["--d-w", 8, "--d-p", 2, "--d-ct", 2, "--d-c", 6, "--epochs", 1]
    return {
        "preprocess": ["preprocess", "--input", raw, "--out", out / "i.jsonl"],
        "synth": ["synth", "--preset", "placement", "--sentences-per-type", 3,
                  "--out", out / "c.jsonl", "--vocab", out / "v.txt"],
        "train": ["train", "--train", corpus, "--vocab", vocab, "--checkpoint", out / "m.npz",
                  "--record", out / "r.json", *tiny],
        "gridsearch": ["gridsearch", "--train", corpus, "--vocab", vocab,
                       "--out", out / "g.csv", "--json", out / "g.json", "--lr", 0.05, *tiny],
        "predict": ["predict", "--checkpoint", ckpt, "--vocab", vocab, "--input", corpus,
                    "--out", out / "p.jsonl"],
        "eval": ["eval", "--gold", corpus, "--pred", preds, "--out", out / "r.json",
                 "--bootstrap", 100],
        "stats": ["stats", "--input", corpus, "--out", out / "s.json"],
    }[command]


@pytest.mark.parametrize("command", [
    "preprocess", "synth", "train", "gridsearch", "predict", "eval", "stats",
])
def test_manifest_outputs_are_exactly_the_files_created(tmp_path, raw_corpus, command):
    src = tmp_path / "src"
    corpus = _synth(src, n=4)
    _mk_vocab(corpus, src / "v.txt")
    ckpt = _train_tiny(src, corpus, src / "v.txt")
    assert run("predict", "--checkpoint", ckpt, "--vocab", src / "v.txt",
               "--input", corpus, "--out", src / "p.jsonl") == 0
    before = set(tmp_path.rglob("*"))
    out = tmp_path / "out" / "nested"
    assert run(*_command_argv(command, src, raw_corpus, out)) == 0
    created = {p for p in set(tmp_path.rglob("*")) - before if p.is_file()}
    manifests = [p for p in created if p.name.endswith(".manifest.json")]
    assert len(manifests) == 1
    outputs = json.loads(manifests[0].read_text())["outputs"]
    assert len(outputs) == len(set(outputs))
    assert {Path(p) for p in outputs} == created - set(manifests)
