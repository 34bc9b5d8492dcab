"""End-to-end tests of the command-line interface via main()."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
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
from relcnn.encoding import EncoderConfig, build_vocab, encode_instances, load_vocab, save_vocab
from relcnn.model import HyperParams
from relcnn.relations import CATEGORY_OF, RELATION_TYPES, RelationType
from relcnn.synthgen import LabelRule, SynthSpec, generate, placement_task_spec
from relcnn.trainer import GridSpec, TrainConfig

from conftest import (
    THREE_CATEGORY_RULES,
    rewrite_checkpoint_arrays,
    rewrite_checkpoint_meta,
    three_category_corpus,
    write_instances_reference,
    write_ledger_reference,
    write_predictions_reference,
    write_raw_corpus,
)


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
               for inst in insts
               for tok in inst.tokens[inst.concept1.start - 1 : inst.concept1.end])
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert str(vocab_path) in manifest["outputs"]
    assert manifest["config"]["encoder"]["max_distance"] == 30
    # the emitted vocabulary is directly usable for training, and sets its radius
    ckpt = _train_tiny(tmp_path, corpus, vocab_path)
    assert model.load_checkpoint(ckpt).encoder.max_distance == 30


def test_synth_spec_file_round_trip(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(asdict(placement_task_spec(sentences_per_type=3))))
    out = tmp_path / "c.jsonl"
    assert run("synth", "--spec", spec_path, "--out", out) == 0
    assert len(read_instances(out)) == 6


_CROWDED_RULES = [
    {"label": label, "placement": placement, "signal": ["siga", "sigb", "sigc", "sigd"]}
    for label, placement in (("TeRP", "before_c1"), ("TeCP", "after_c2"))
]


@pytest.mark.parametrize("spec, message", [
    ({"sentences_per_type": "many"}, "sentences_per_type: expected int, got 'many'"),
    ({**asdict(placement_task_spec()), "sentences_per_type": "3"},
     "sentences_per_type: expected int, got '3'"),
    ({"rules": _CROWDED_RULES, "distractor_placement": "between", "sentences_per_type": 5,
      "n_concepts": 11},
     "n_concepts=11 needs 9 free positions; len_lo=18 leaves 8 beside two placeholders "
     "and 8 signal tokens"),
    # A rule's label fixes its pair's concept types, so a spec may not set them.
    ({**asdict(placement_task_spec()), "concept_types": ["test", "problem"]},
     "unknown keys concept_types (expected rules, sentences_per_type, len_lo, len_hi, window, "
     "vocab_size, concept_vocab_size, n_concepts, concept_tokens, noise_rate, seed, "
     "distractor_placement)"),
    # Two labels of one category with one signal in one placement cannot be told apart.
    ({"rules": [{"label": "TeRP", "placement": "before_c1", "signal": ["siga", "sigb"]},
                {"label": "TeCP", "placement": "before_c1", "signal": ["siga", "sigb"]}],
      "sentences_per_type": 5},
     "labels TeRP and TeCP plant the same signal before_c1 in category TeP: "
     "no reader can tell them apart"),
], ids=["no-rules", "string-count", "crowded", "concept-types", "indistinguishable"])
def test_synth_rejects_a_bad_spec_naming_the_file(tmp_path, capsys, spec, message):
    """One plain-text line: the file, then the reader's or the spec's own message."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    work = tmp_path / "work"
    work.mkdir()
    assert run("synth", "--spec", spec_path, "--out", work / "c.jsonl") == 1
    assert capsys.readouterr().err == f"error: {spec_path}: bad synth spec: {message}\n"
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("key", ["vocab_size", "concept_vocab_size"])
def test_synth_rejects_a_word_pool_beyond_three_letters(tmp_path, capsys, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**_spec_json(sentences_per_type=3), key: 20000}))
    work = tmp_path / "work"
    work.mkdir()
    assert run("synth", "--spec", spec_path, "--out", work / "c.jsonl") == 1
    assert capsys.readouterr().err == (
        f"error: {spec_path}: bad synth spec: "
        f"{key} must be <= 17576, the number of distinct three-letter words: 20000\n"
    )
    assert list(work.iterdir()) == []


def _spec_json(**overrides) -> dict:
    """The placement spec as a spec file holds it."""
    return json.loads(json.dumps(asdict(placement_task_spec(**overrides))))


@pytest.mark.parametrize("synth_spec", [
    placement_task_spec(sentences_per_type=3),
    placement_task_spec(sentences_per_type=3, distractor_placement=None, noise_rate=0.2),
    SynthSpec(rules=THREE_CATEGORY_RULES, sentences_per_type=3, noise_rate=0.2),
], ids=["placement", "no-distractor-noisy", "three-categories-noisy"])
def test_synth_spec_from_asdict_round_trips(tmp_path, synth_spec):
    spec = json.loads(json.dumps(asdict(synth_spec)))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "c.jsonl"
    assert run("synth", "--spec", spec_path, "--out", out) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["config"]["spec"] == spec
    assert json.loads(Path(f"{out}.ledger.json").read_text())["spec"] == spec


def test_synth_outputs_match_the_reference_writers(tmp_path):
    """A spec with a third concept, two-token concepts, label noise and no
    distractor: the corpus and the ledger, whose `distractor_start` is null,
    are the bytes the reference writers give for the generated corpus."""
    overrides = dict(sentences_per_type=5, n_concepts=3, concept_tokens=2, noise_rate=0.3,
                     distractor_placement=None)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_json(**overrides)))
    out = tmp_path / "c.jsonl"
    assert run("synth", "--spec", spec_path, "--out", out) == 0
    instances, ledger = generate(placement_task_spec(**overrides))
    write_instances_reference(tmp_path / "want.jsonl", instances)
    write_ledger_reference(tmp_path / "want.ledger.json", ledger)
    assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    ledger_bytes = Path(f"{out}.ledger.json").read_bytes()
    assert ledger_bytes == (tmp_path / "want.ledger.json").read_bytes()
    assert ledger_bytes.count(b'"distractor_start": null') == len(instances) == 10
    assert any(entry.flipped for entry in ledger.entries)


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


def test_predict_with_a_constrained_checkpoint_stays_in_the_pair_category(tmp_path):
    """A constrained model's `pred` is a class of the pair's category, and `probs` is the
    softmax over that category, with exact zeros for every other class."""
    corpus = tmp_path / "c.jsonl"
    write_instances_reference(corpus, three_category_corpus(4, seed=0))
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab, loss="constrained")
    preds = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab,
               "--input", corpus, "--out", preds) == 0
    for rec in map(json.loads, preds.read_text().splitlines()):
        category = CATEGORY_OF[RelationType(rec["gold"])]
        inside = {t.value for t in RELATION_TYPES if CATEGORY_OF[t] is category}
        assert rec["pred"] in inside
        assert _LABELS[int(np.argmax([rec["probs"][t] for t in _LABELS]))] == rec["pred"]
        assert all(p == 0.0 for t, p in rec["probs"].items() if t not in inside)
        assert all(rec["probs"][t] > 0.0 for t in inside)
        assert sum(rec["probs"].values()) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("resamples", [0, 99])
def test_eval_bootstrap_below_100_resamples_exits_1(tmp_path, capsys, resamples):
    corpus = _synth(tmp_path, n=4)
    preds = tmp_path / "p.jsonl"
    _write_preds(preds, corpus)
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("eval", "--gold", corpus, "--pred", preds, "--out", work / "r.json",
               "--bootstrap", resamples) == 1
    assert capsys.readouterr().err == f"error: need at least 100 resamples, got {resamples}\n"
    assert list(work.iterdir()) == []


# (command, training file, dev file, the file at fault, message)
_TOO_SMALL = {
    "train-one": ("train", "one", None, "one", "need at least 2 instances to split, got 1"),
    "train-none": ("train", "empty", None, "empty", "need at least 2 instances to split, got 0"),
    "gridsearch-one": ("gridsearch", "one", None, "one",
                       "need at least 2 instances to split, got 1"),
    "empty-dev": ("train", "corpus", "empty", "empty", "empty dev set"),
    "empty-train": ("train", "empty", "corpus", "empty", "empty training set"),
    "gridsearch-empty-dev": ("gridsearch", "corpus", "empty", "empty", "empty dev set"),
    "eval-empty": ("eval", None, None, "empty", "nothing to evaluate: no instances"),
}


@pytest.mark.parametrize("case", list(_TOO_SMALL))
def test_too_small_input_names_its_file(tmp_path, capsys, case):
    """A file with too few instances ends in exit 1 and one line naming that file;
    nothing is written."""
    command, train_file, dev, bad, message = _TOO_SMALL[case]
    files = {"corpus": _synth(tmp_path, n=4), "one": tmp_path / "one.jsonl",
             "empty": tmp_path / "empty.jsonl"}
    files["one"].write_text(files["corpus"].read_text().splitlines(keepends=True)[0])
    files["empty"].write_text("")
    vocab = tmp_path / "v.txt"
    _mk_vocab(files["corpus"], vocab)
    work = tmp_path / "work"
    work.mkdir()
    out = work / "out.npz"
    if command == "eval":
        argv = ["eval", "--gold", files["empty"], "--pred", files["empty"], "--out", out]
    else:
        argv = [command, "--train", files[train_file], "--vocab", vocab, "--epochs", 1]
        argv += ["--checkpoint", out] if command == "train" else ["--out", out]
        argv += [] if dev is None else ["--dev", files[dev]]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {files[bad]}: {message}\n"
    assert list(work.iterdir()) == []


def test_train_rejects_empty_dev_set_without_output(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    assert run("train", "--train", corpus, "--dev", empty, "--vocab", vocab,
               "--checkpoint", tmp_path / "m.npz", "--epochs", 1) == 1
    assert capsys.readouterr().err == f"error: {empty}: empty dev set\n"
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


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("kind", [
    "stats-input", "eval-pred", "synth-spec", "train-config", "gridsearch-grid",
    "predict-checkpoint",
])
def test_json_nested_too_deeply_is_named(tmp_path, capsys, kind):
    """JSON nested past the interpreter's recursion limit ends in one error line
    naming the file, and its line for a JSON-lines input."""
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    bad = tmp_path / "deep"
    if kind == "predict-checkpoint":
        with open(bad, "wb") as fh:
            np.savez(fh, __meta__=np.array(_DEEP_JSON))
    else:
        bad.write_text(_DEEP_JSON + "\n")
    gold = tmp_path / "gold.jsonl"
    gold.write_text(corpus.read_text().splitlines(keepends=True)[0])
    train = ["train", "--train", corpus, "--vocab", vocab, "--checkpoint", work / "m.npz"]
    argv = {
        "stats-input": ["stats", "--input", bad, "--out", work / "s.json"],
        "eval-pred": ["eval", "--gold", gold, "--pred", bad, "--out", work / "r.json"],
        "synth-spec": ["synth", "--spec", bad, "--out", work / "c.jsonl"],
        "train-config": [*train, "--config", bad],
        "gridsearch-grid": ["gridsearch", *train[1:5], "--out", work / "g.csv", "--grid", bad],
        "predict-checkpoint": ["predict", "--checkpoint", bad, "--vocab", vocab,
                               "--input", corpus, "--out", work / "p.jsonl"],
    }[kind]
    where = f"{bad}:1: " if kind in ("stats-input", "eval-pred") else f"{bad}: "
    capsys.readouterr()
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out
    assert list(work.iterdir()) == []


def _predict_rewritten_checkpoint(tmp_path, capsys, rewrite, edit) -> tuple[Path, str]:
    """Run `predict` on a trained checkpoint copied by `rewrite(src, dst, edit)`; assert
    exit 1 and no output; return the copy's path and stderr."""
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    bad = tmp_path / "bad.npz"
    rewrite(_train_tiny(tmp_path, corpus, vocab), bad, edit)
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("predict", "--checkpoint", bad, "--vocab", vocab, "--input", corpus,
               "--out", work / "p.jsonl") == 1
    assert list(work.iterdir()) == []
    return bad, capsys.readouterr().err


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
    bad, err = _predict_rewritten_checkpoint(tmp_path, capsys, rewrite_checkpoint_arrays, edit)
    assert err.startswith(f"error: {bad}: ") and array in err and err.count("\n") == 1


@pytest.mark.parametrize("edit,key", [
    (lambda meta: meta["hyperparams"].update(windows=[4.0]), "windows"),
    (lambda meta: meta["encoder"].update(concept_len=5.0), "concept_len"),
    (lambda meta: meta.update(vocab_sha256=123), "vocab_sha256"),
], ids=["float-window", "float-concept-len", "numeric-hash"])
def test_predict_rejects_a_mistyped_checkpoint_meta(tmp_path, capsys, edit, key):
    bad, err = _predict_rewritten_checkpoint(tmp_path, capsys, rewrite_checkpoint_meta, edit)
    assert err.startswith(f"error: {bad}: ") and f"{key}: expected" in err and err.count("\n") == 1
    assert "Traceback" not in err


# Per command: the config fields it does not read (so has no flag for), its flags that
# are not config fields, and its flag count.
_VOCAB_ONLY = {"max_distance", "min_word_freq"}  # read by build_vocab alone
_FLAG_TABLE = {
    "train": (_VOCAB_ONLY, {"train", "dev", "vocab", "checkpoint", "metrics", "record",
                            "embeddings", "config"}, 23),
    "gridsearch": (_VOCAB_ONLY | {f.name for f in fields(GridSpec)},
                   {"train", "dev", "vocab", "grid", "out", "json", "config"}, 17),
    "preprocess": ({"concept_len"}, {"input", "out", "vocab", "stats"}, 6),
    "synth": ({"concept_len"}, {"spec", "preset", "out", "ledger", "vocab",
                                "sentences_per_type", "seed", "noise_rate"}, 10),
    "predict": (set(), {"checkpoint", "vocab", "input", "out"}, 4),
    "eval": (set(), {"gold", "pred", "out", "bootstrap", "seed"}, 5),
    "stats": (set(), {"input", "out"}, 2),
}


@pytest.mark.parametrize("command,schemas", [
    ("train", (HyperParams, TrainConfig, EncoderConfig)),
    ("gridsearch", (HyperParams, TrainConfig, EncoderConfig)),
    ("preprocess", (EncoderConfig,)),
    ("synth", (EncoderConfig,)),
    ("predict", ()),
    ("eval", ()),
    ("stats", ()),
])
def test_every_config_field_has_a_flag(command, schemas):
    """A command's flags are exactly the config fields it reads plus its other options:
    a missing flag and an extra one both fail."""
    required = {
        "train": ["--train", "t", "--vocab", "v", "--checkpoint", "c"],
        "gridsearch": ["--train", "t", "--vocab", "v", "--out", "o"],
        "preprocess": ["--input", "i", "--out", "o"],
        "synth": ["--preset", "placement", "--out", "o"],
        "predict": ["--checkpoint", "c", "--vocab", "v", "--input", "i", "--out", "o"],
        "eval": ["--gold", "g", "--pred", "p"],
        "stats": ["--input", "i"],
    }[command]
    not_read, others, n_flags = _FLAG_TABLE[command]
    settings = {f.name for cls in schemas for f in fields(cls)} - not_read
    dests = set(vars(build_parser().parse_args([command, *required]))) - {"command"}
    assert dests - others == settings, f"{command}: flags {dests - others} for {settings}"
    assert others <= dests and len(dests) == n_flags


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


_LABELS = [t.value for t in RELATION_TYPES]
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                          st.floats(allow_nan=False, allow_infinity=False))
# Each fault, as (kind, value): the value replaces or edits one prediction line.
_PRED_FAULTS = st.one_of(
    st.tuples(st.just("non-object"), st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))),
    st.tuples(st.just("missing-pred"), st.none()),
    st.tuples(st.just("unknown-pred"), st.one_of(
        _JSON_SCALARS.filter(lambda v: v not in _LABELS),
        st.lists(st.sampled_from(_LABELS), max_size=2),
        st.dictionaries(st.sampled_from(_LABELS), st.integers(), max_size=1))),
    st.tuples(st.just("wrong-key"), _JSON_SCALARS),
    st.tuples(st.just("not-utf8"), st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])),
    st.tuples(st.just("deep"), st.none()),
    st.tuples(st.just("count"), st.sampled_from(["drop", "extra"])),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fault=_PRED_FAULTS, index=st.integers(0, 3), blank_lines=st.integers(0, 2))
def test_eval_prediction_fuzz_names_file_and_line(fault, index, blank_lines):
    """A malformed prediction file ends in one error line naming the file, and the
    line where there is one; no traceback and no report or manifest."""
    kind, value = fault
    gold_insts, _ = generate(placement_task_spec(sentences_per_type=2))
    recs = [{"key": cli._instance_key(inst), "pred": inst.gold.value} for inst in gold_insts]
    lines = [json.dumps(rec).encode() for rec in recs]
    rec = dict(recs[index])
    if kind == "non-object":
        lines[index] = json.dumps(value).encode()
    elif kind == "missing-pred":
        del rec["pred"]
        lines[index] = json.dumps(rec).encode()
    elif kind == "unknown-pred":
        lines[index] = json.dumps({**rec, "pred": value}).encode()
    elif kind == "wrong-key":
        lines[index] = json.dumps({**rec, "key": value}).encode()
    elif kind == "not-utf8":
        lines[index] = lines[index].replace(b'"pred"', b'"pr' + value + b'ed"')
    elif kind == "deep":
        lines[index] = _DEEP_JSON.encode()
    elif value == "drop":
        del lines[index]
    else:
        lines.insert(index, lines[index])
    lines[index:index] = [b""] * blank_lines
    with tempfile.TemporaryDirectory() as tmp:
        gold, pred = Path(tmp) / "gold.jsonl", Path(tmp) / "pred.jsonl"
        write_instances_reference(gold, gold_insts)
        pred.write_bytes(b"\n".join(lines) + b"\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run("eval", "--gold", gold, "--pred", pred, "--bootstrap", 100)
        files = sorted(p.name for p in Path(tmp).iterdir())
    where = f"{pred}: " if kind == "count" else f"{pred}:{index + 1 + blank_lines}: "
    assert rc == 1
    assert err.getvalue().startswith(f"error: {where}") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""
    assert files == ["gold.jsonl", "pred.jsonl"]


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
        "encoder": {"concept_len": 3},
    }))
    ck1 = tmp_path / "m1.npz"
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", ck1,
               "--config", config) == 0
    from relcnn.model import load_checkpoint

    assert load_checkpoint(ck1).hp.lr == 0.05
    assert load_checkpoint(ck1).encoder.concept_len == 3  # encoder via config (default 5)
    ck2 = tmp_path / "m2.npz"
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", ck2,
               "--config", config, "--lr", 0.02) == 0
    assert load_checkpoint(ck2).hp.lr == 0.02  # flag beats config


def test_a_float_setting_read_as_an_integer_is_the_same_setting(tmp_path):
    """`"lr": 1` in a config file and `--lr 1` train one model: byte-identical
    checkpoints and one recorded config, its rates floats."""
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"hyperparams": {"lr": 1, "beta": 0}}))
    tiny = ["train", "--train", corpus, "--vocab", vocab,
            "--d-w", 8, "--d-p", 2, "--d-ct", 2, "--d-c", 6, "--epochs", 1]
    assert run(*tiny, "--checkpoint", tmp_path / "a.npz", "--config", config) == 0
    assert run(*tiny, "--checkpoint", tmp_path / "b.npz", "--lr", 1, "--beta", 0) == 0
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    a, b = (json.loads((tmp_path / f"{name}.npz.manifest.json").read_text())["config"]
            for name in "ab")
    assert a == b
    assert {type(a["hyperparams"][k]) for k in ("lr", "beta", "dropout_p")} == {float}


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


_SECTIONS = {"hyperparams": HyperParams, "train": TrainConfig, "encoder": EncoderConfig}
_CONFIG_VALUES = st.one_of(
    st.integers(-2, 4),
    st.floats(-2, 4) | st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["max", "multi", "softmax", "constrained", "3,4"]) | st.text(max_size=4),
    st.lists(st.integers(-2, 4), max_size=3),
    st.dictionaries(st.sampled_from(["d_w", "x"]), st.integers(-2, 4), max_size=2),
)
# A section holds keys of its own fields (of every one, read by the command or not) and junk.
_SECTIONS_OBJECTS = st.fixed_dictionaries({}, optional={
    name: st.dictionaries(
        st.sampled_from([*(f.name for f in fields(cls)), "hidden_size", "config", "epochs"]),
        _CONFIG_VALUES, max_size=3)
    for name, cls in _SECTIONS.items()
})
# Three in five draws are objects of real sections, so most reach the values.  (`one_of`
# would flatten `_CONFIG_VALUES` into one branch per kind, nearly all of them non-objects.)
_CONFIGS = st.sampled_from([0, 0, 0, 1, 2]).flatmap(lambda branch: [
    _SECTIONS_OBJECTS,
    st.dictionaries(st.sampled_from([*_SECTIONS, "model", ""]), _CONFIG_VALUES, max_size=2),
    _CONFIG_VALUES,  # not an object
][branch])


@pytest.mark.parametrize("command", ["train", "gridsearch"])
@settings(max_examples=30, deadline=None)
@given(config=_CONFIGS)
def test_config_file_fuzz_exits_cleanly(command, config):
    """Any --config object ends in exit 0, or in exit 1 with one error line, no traceback
    and no new file; gridsearch writes its ranking when every cell failed."""
    insts, _ = generate(placement_task_spec(sentences_per_type=2))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, vocab, cfg, grid = (tmp / n for n in ("c.jsonl", "v.txt", "cfg.json", "grid.json"))
        write_instances_reference(corpus, insts)
        save_vocab(build_vocab(insts, EncoderConfig(max_distance=30)), vocab)
        cfg.write_text(json.dumps(config))
        grid.write_text(json.dumps({"d_p": [2], "d_c": [4], "lr": [0.05], "beta": [0.0]}))
        inputs = sorted(p.name for p in tmp.iterdir())
        out = (["--checkpoint", tmp / "m.npz"] if command == "train"
               else ["--grid", grid, "--out", tmp / "g.csv"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run(command, "--train", corpus, "--vocab", vocab, *out, "--config", cfg)
        created = sorted(set(p.name for p in tmp.iterdir()) - set(inputs))
    err = err.getvalue()
    assert rc in (0, 1) and "Traceback" not in err
    if rc == 0:
        assert created == (["m.npz", "m.npz.manifest.json", "m.npz.metrics.json"]
                           if command == "train" else ["g.csv", "g.csv.manifest.json"])
    elif err == "all grid cells failed\n":
        assert command == "gridsearch" and created == ["g.csv", "g.csv.manifest.json"]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert created == []


def test_unknown_subcommand_and_version(capsys):
    with pytest.raises(SystemExit):
        run("frobnicate")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "relcnn" in capsys.readouterr().out


def test_a_command_replaced_after_import_is_the_one_run(tmp_path, monkeypatch):
    """`main` builds its parser once and looks up `cmd_<name>` on the module when
    it runs a command, so a wrapper set after the first call is run (perfbench's
    tracer wraps the commands this way)."""
    corpus = _synth(tmp_path, n=2)
    parser = build_parser()
    calls = []
    stats = cli.cmd_stats

    def wrapper(args, run):
        calls.append(args.input)
        return stats(args, run)

    monkeypatch.setattr(cli, "cmd_stats", wrapper)
    assert run("stats", "--input", corpus) == 0
    assert calls == [str(corpus)]
    assert build_parser() is parser


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
    ckpt = _train_tiny(tmp_path, corpus, vocab, **flags)  # EncoderConfig's default radius is 60
    from relcnn.model import load_checkpoint

    model = load_checkpoint(ckpt)
    assert model.encoder.max_distance == 30
    assert len(model.params.w_pos) == 2 * 30 + 1
    manifest = json.loads(Path(f"{ckpt}.manifest.json").read_text())
    assert manifest["config"]["encoder"]["max_distance"] == 30


_REMOVED_FLAGS = [
    ("preprocess", "--concept-len"), ("synth", "--concept-len"),
    ("train", "--max-distance"), ("train", "--min-word-freq"),
    *(("gridsearch", flag) for flag in ("--d-p", "--d-c", "--windows", "--lr", "--beta",
                                        "--max-distance", "--min-word-freq")),
]


@pytest.mark.parametrize("command,flag", _REMOVED_FLAGS)
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    """A setting the command would ignore is not a flag of it, nor a prefix of one."""
    work = tmp_path / "work"
    work.mkdir()
    argv = {
        "preprocess": ["--input", tmp_path, "--out", work / "i.jsonl"],
        "synth": ["--preset", "placement", "--out", work / "c.jsonl"],
        "train": ["--train", "t.jsonl", "--vocab", "v.txt", "--checkpoint", work / "m.npz"],
        "gridsearch": ["--train", "t.jsonl", "--vocab", "v.txt", "--out", work / "g.csv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run(command, *argv, flag, "3")
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert list(work.iterdir()) == []


_IGNORED_KEYS = [
    ("train", "encoder", "max_distance", 30), ("train", "encoder", "min_word_freq", 1),
    ("gridsearch", "hyperparams", "d_p", 2), ("gridsearch", "hyperparams", "d_c", 6),
    ("gridsearch", "hyperparams", "windows", [3]), ("gridsearch", "hyperparams", "lr", 0.05),
    ("gridsearch", "hyperparams", "beta", 0.0), ("gridsearch", "encoder", "max_distance", 30),
    ("gridsearch", "encoder", "min_word_freq", 1),
]


@pytest.mark.parametrize("command,section,key,value", _IGNORED_KEYS,
                         ids=[f"{c}-{s}-{k}" for c, s, k, _ in _IGNORED_KEYS])
def test_config_key_a_command_does_not_read_exits_1(tmp_path, capsys, command, section, key,
                                                     value):
    """A config key is a flag dest of the command: the vocabulary's settings, and the grid's
    axes in gridsearch, are rejected naming the file, section and key, even at the value the
    command would use."""
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab, max_distance=30)
    work = tmp_path / "work"
    work.mkdir()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({section: {key: value}}))
    out = ["--checkpoint", work / "m.npz"] if command == "train" else ["--out", work / "g.csv"]
    capsys.readouterr()
    assert run(command, "--train", corpus, "--vocab", vocab, *out, "--config", config,
               "--epochs", 1) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {section}: {key}: {command} reads only ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("flag", ["--max-distance", "--min-word-freq"])
def test_synth_vocabulary_setting_without_vocab_exits_1(tmp_path, capsys, flag):
    work = tmp_path / "work"
    work.mkdir()
    assert run("synth", "--preset", "placement", "--sentences-per-type", 2,
               "--out", work / "c.jsonl", flag, 3) == 1
    err = capsys.readouterr().err
    assert err == "error: --max-distance and --min-word-freq set the vocabulary; they need --vocab\n"
    assert list(work.iterdir()) == []


def test_synth_takes_exactly_one_of_spec_and_preset(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec_json(sentences_per_type=2)))
    for source in ([], ["--spec", spec, "--preset", "placement"]):
        with pytest.raises(SystemExit) as exc:
            run("synth", *source, "--out", tmp_path / "c.jsonl")
        assert exc.value.code == 2
        assert "--spec" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


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


@pytest.mark.parametrize("via,field,value", [
    ("flag", "beta", "nan"),
    ("flag", "lr", "inf"),
    ("config", "beta", float("nan")),
    ("config", "lr", float("inf")),
], ids=["flag-beta-nan", "flag-lr-inf", "config-beta-nan", "config-lr-inf"])
def test_non_finite_rate_exits_1_naming_the_field(tmp_path, capsys, via, field, value):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    argv = ["train", "--train", corpus, "--vocab", vocab, "--checkpoint", work / "m.npz",
            "--epochs", 1]
    prefix = "error: "
    if via == "flag":
        argv += [f"--{field}", value]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"hyperparams": {field: value}}))  # NaN / Infinity
        argv += ["--config", config]
        prefix += f"{config}: hyperparams: "
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}{field} must be a finite number") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("content,flags,prefix,message", [
    ({"hyperparams": {"d_w": 0}}, [], "hyperparams", "embedding/filter sizes must be >= 1"),
    ({"train": {"epochs": -1}}, [], "train", "epochs must be >= 0: -1"),
    ({"encoder": {"concept_len": 0}}, [], "encoder", "all EncoderConfig fields must be >= 1"),
    ({"hyperparams": {"d_w": 8}}, ["--epochs", -1], None, "epochs must be >= 0: -1"),
], ids=["file-d_w", "file-epochs", "file-concept_len", "flag-epochs"])
def test_rejected_config_value_names_its_source(tmp_path, capsys, content, flags, prefix,
                                                message):
    """A value its dataclass rejects names the config file and section when the file
    gave it; a rejected flag is reported as before."""
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(content))
    capsys.readouterr()
    assert run("train", "--train", corpus, "--vocab", vocab, "--checkpoint", work / "m.npz",
               "--config", config, *flags) == 1
    err = capsys.readouterr().err
    source = f"{config}: {prefix}: " if prefix else ""
    assert err.startswith(f"error: {source}{message}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(work.iterdir()) == []


def test_flag_overrides_a_rejected_config_value(tmp_path):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"epochs": -1}}))
    _train_tiny(tmp_path, corpus, vocab, config=config)  # passes --epochs 2


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
        if staging_files:  # the second chunk: the staged output file is open
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


def test_predict_output_matches_the_reference_writer(tmp_path):
    corpus = _synth(tmp_path, n=10)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    ckpt = _train_tiny(tmp_path, corpus, vocab)
    preds = tmp_path / "p.jsonl"
    assert run("predict", "--checkpoint", ckpt, "--vocab", vocab,
               "--input", corpus, "--out", preds) == 0
    loaded = model.load_checkpoint(ckpt)
    insts = read_instances(corpus)
    encs = encode_instances(insts, load_vocab(vocab), loaded.encoder)
    labels, probs = model.predict_batch(encs, loaded.params, loaded.hp)
    want = tmp_path / "want.jsonl"
    write_predictions_reference(want, insts, labels, probs)
    assert preds.read_bytes() == want.read_bytes()


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


@pytest.mark.parametrize("command,outputs", [
    ("synth", ["--out", "c.jsonl", "--ledger", "c.jsonl"]),
    ("synth", ["--out", "c.jsonl", "--ledger", "./c.jsonl"]),
    ("synth", ["--out", "c.jsonl", "--vocab", "WORK/c.jsonl"]),
    ("train", ["--checkpoint", "m.npz", "--metrics", "m.json", "--record", "m.json"]),
], ids=["synth-same", "synth-dot-slash", "synth-absolute", "train-metrics-record"])
def test_two_outputs_naming_one_file_exit_1(tmp_path, capsys, monkeypatch, command, outputs):
    """Two outputs of one run may not name the same file, however it is spelled."""
    src = tmp_path / "src"
    corpus = _synth(src, n=4)
    _mk_vocab(corpus, src / "v.txt")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    outputs = [str(a).replace("WORK", str(work)) for a in outputs]
    argv = {
        "synth": ["synth", "--preset", "placement", "--sentences-per-type", 2],
        "train": ["train", "--train", corpus, "--vocab", src / "v.txt", "--d-w", 8, "--d-c", 6,
                  "--epochs", 1],
    }[command]
    capsys.readouterr()
    assert run(*argv, *outputs) == 1
    err = capsys.readouterr().err
    assert err == f"error: {Path(outputs[-1])}: named by two outputs of one {command} run\n"
    assert list(work.iterdir()) == []


def _command_sources(src: Path) -> Path:
    """The corpus, vocabulary, checkpoint, predictions, one-cell grid and config file
    `_command_argv` and `_MANIFEST_TABLE` read."""
    corpus = _synth(src, n=4)
    _mk_vocab(corpus, src / "v.txt")
    ckpt = _train_tiny(src, corpus, src / "v.txt")
    assert run("predict", "--checkpoint", ckpt, "--vocab", src / "v.txt",
               "--input", corpus, "--out", src / "p.jsonl") == 0
    (src / "grid.json").write_text(json.dumps({"d_p": [2], "d_c": [6], "lr": [0.05], "beta": [0.0005]}))
    (src / "cfg.json").write_text(json.dumps({"hyperparams": {"dropout_p": 0.5}, "train": {"batch_size": 2}}))
    return src


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
        "gridsearch": ["gridsearch", "--train", corpus, "--vocab", vocab, "--grid", src / "grid.json",
                       "--out", out / "g.csv", "--json", out / "g.json",
                       "--d-w", 8, "--d-ct", 2, "--epochs", 1],
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
    src = _command_sources(tmp_path / "src")
    before = set(tmp_path.rglob("*"))
    out = tmp_path / "out" / "nested"
    assert run(*_command_argv(command, src, raw_corpus, out)) == 0
    created = {p for p in set(tmp_path.rglob("*")) - before if p.is_file()}
    manifests = [p for p in created if p.name.endswith(".manifest.json")]
    assert len(manifests) == 1
    outputs = json.loads(manifests[0].read_text())["outputs"]
    assert len(outputs) == len(set(outputs))
    assert {Path(p) for p in outputs} == created - set(manifests)


_HP_KEYS, _TRAIN_KEYS, _GRID_KEYS, _SPEC_FIELDS = (
    {f.name for f in fields(cls)} for cls in (HyperParams, TrainConfig, GridSpec, SynthSpec))
_VOCAB_KEYS = {"max_distance", "min_word_freq"}  # build_vocab's settings
_ENCODE_KEYS = {"concept_len", "max_distance"}  # encode's, the radius from the vocabulary
# Per case: the command, flags added to its `_command_argv` (a flag given as `-F` drops F
# and its value; `--dev` reads the corpus, `--config` cfg.json), the keys of each `config`
# section (None for a scalar setting) and `seeds`.
_ADDED_FILES = {"dev": "corpus.jsonl", "config": "cfg.json"}
_MANIFEST_TABLE = {
    "preprocess": ("preprocess", [], {"encoder": _VOCAB_KEYS}, {}),
    "synth": ("synth", [], {"spec": _SPEC_FIELDS, "encoder": _VOCAB_KEYS}, {"seed": 0}),
    "synth-without-vocab": ("synth", ["-vocab"], {"spec": _SPEC_FIELDS}, {"seed": 0}),
    "train": ("train", [], {"hyperparams": _HP_KEYS, "train": _TRAIN_KEYS,
                            "encoder": _ENCODE_KEYS}, {"seed": 0}),
    "train-with-dev": ("train", ["dev"], {"hyperparams": _HP_KEYS,
                                          "train": _TRAIN_KEYS - {"dev_fraction"},
                                          "encoder": _ENCODE_KEYS}, {"seed": 0}),
    "train-with-config": ("train", ["config"], {"hyperparams": _HP_KEYS, "train": _TRAIN_KEYS,
                                                "encoder": _ENCODE_KEYS}, {"seed": 0}),
    "gridsearch": ("gridsearch", [], {"hyperparams": _HP_KEYS - _GRID_KEYS, "train": _TRAIN_KEYS,
                                      "encoder": _ENCODE_KEYS, "grid": _GRID_KEYS}, {"seed": 0}),
    "gridsearch-with-config": ("gridsearch", ["config"], {"hyperparams": _HP_KEYS - _GRID_KEYS,
                                                          "train": _TRAIN_KEYS,
                                                          "encoder": _ENCODE_KEYS,
                                                          "grid": _GRID_KEYS}, {"seed": 0}),
    "gridsearch-with-dev": ("gridsearch", ["dev"], {"hyperparams": _HP_KEYS - _GRID_KEYS,
                                                    "train": _TRAIN_KEYS - {"dev_fraction"},
                                                    "encoder": _ENCODE_KEYS, "grid": _GRID_KEYS},
                            {"seed": 0}),
    "predict": ("predict", [], {}, {}),
    "eval": ("eval", [], {"bootstrap": None}, {"seed": 0}),
    "eval-without-bootstrap": ("eval", ["-bootstrap"], {"bootstrap": None}, {}),
    "stats": ("stats", [], {}, {}),
}


@pytest.mark.parametrize("case", list(_MANIFEST_TABLE))
def test_manifest_config_records_exactly_the_settings_read(tmp_path, raw_corpus, case):
    """Every `config` key is a setting the command read, and every setting it read is
    recorded: its config-field flags, the values it derived from its inputs (the
    vocabulary's radius), its spec, its grid and its bootstrap count.  A file a flag
    adds, the config file too, is an input with its sha256."""
    command, edits, table, seeds = _MANIFEST_TABLE[case]
    src = _command_sources(tmp_path / "src")
    out = tmp_path / "out"
    argv = _command_argv(command, src, raw_corpus, out)
    for edit in edits:
        if edit.startswith("-"):
            i = argv.index(f"-{edit}")
            del argv[i : i + 2]
        else:
            argv += [f"--{edit}", src / _ADDED_FILES[edit]]
    assert run(*argv) == 0
    (path,) = out.glob("*.manifest.json")
    manifest = json.loads(path.read_text())
    config = {k: set(v) if isinstance(v, dict) else None for k, v in manifest["config"].items()}
    assert config == table
    assert manifest["seeds"] == seeds
    for edit in edits:
        if not edit.startswith("-"):
            added = src / _ADDED_FILES[edit]
            assert manifest["inputs"][str(added)] == hashlib.sha256(added.read_bytes()).hexdigest()
    if "config" in edits:
        assert manifest["config"]["hyperparams"]["dropout_p"] == 0.5
        assert manifest["config"]["train"]["batch_size"] == 2
    if command == "train":  # the recorded values are the ones the checkpoint was built with
        ckpt = model.load_checkpoint(out / "m.npz")
        recorded = manifest["config"]
        assert recorded["hyperparams"] == json.loads(json.dumps(asdict(ckpt.hp)))
        assert recorded["encoder"] == {k: getattr(ckpt.encoder, k) for k in _ENCODE_KEYS}
        assert recorded["train"]["epochs"] == 1


@pytest.mark.parametrize("command", ["train", "gridsearch"])
def test_dev_file_with_dev_fraction_exits_2(tmp_path, capsys, command):
    """A dev file replaces the split, so the two flags exclude each other."""
    work = tmp_path / "work"
    work.mkdir()
    out = ["--checkpoint", work / "m.npz"] if command == "train" else ["--out", work / "g.csv"]
    with pytest.raises(SystemExit) as exc:
        run(command, "--train", "t.jsonl", "--vocab", "v.txt", *out,
            "--dev", "d.jsonl", "--dev-fraction", 0.3)
    assert exc.value.code == 2
    assert "argument --dev-fraction: not allowed with argument --dev" in capsys.readouterr().err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "gridsearch"])
def test_config_dev_fraction_with_a_dev_file_exits_1(tmp_path, capsys, command):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"dev_fraction": 0.3}}))
    out = ["--checkpoint", work / "m.npz"] if command == "train" else ["--out", work / "g.csv"]
    capsys.readouterr()
    assert run(command, "--train", corpus, "--dev", corpus, "--vocab", vocab, *out,
               "--config", config, "--epochs", 1) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: train: dev_fraction: {command} reads only epochs, batch_size, seed\n")
    assert list(work.iterdir()) == []


def test_eval_seed_without_bootstrap_exits_1(tmp_path, capsys):
    corpus = _synth(tmp_path, n=4)
    preds = tmp_path / "p.jsonl"
    _write_preds(preds, corpus)
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("eval", "--gold", corpus, "--pred", preds, "--out", work / "r.json",
               "--seed", 3) == 1
    assert capsys.readouterr().err == "error: --seed seeds the bootstrap resamples; it needs --bootstrap\n"
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command,content,keys", [
    ("gridsearch", {"encoder": 3}, "concept_len"),
    ("gridsearch", {"hyperparams": []}, "d_w, d_ct, dropout_p, pooling, loss"),
    ("train", {"train": "x"}, "epochs, batch_size, seed"),  # with --dev
])
def test_config_section_that_is_not_an_object_names_the_keys_read(tmp_path, capsys, command,
                                                                   content, keys):
    corpus = _synth(tmp_path, n=4)
    vocab = tmp_path / "v.txt"
    _mk_vocab(corpus, vocab)
    work = tmp_path / "work"
    work.mkdir()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(content))
    out = ["--checkpoint", work / "m.npz"] if command == "train" else ["--out", work / "g.csv"]
    (section, value), = content.items()
    capsys.readouterr()
    assert run(command, "--train", corpus, "--dev", corpus, "--vocab", vocab, *out,
               "--config", config) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: {section}: expected an object with keys {keys}, got {value!r}\n")
    assert list(work.iterdir()) == []
