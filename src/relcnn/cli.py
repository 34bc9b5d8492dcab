"""Command-line pipeline: preprocess, synth, train, gridsearch, predict, eval, stats.

Conventions shared by every subcommand:

* JSON-lines instance files are the universal inter-stage format;
* a run manifest (`<primary output>.manifest.json`) is written after the
  outputs, so a failed command leaves none: command, config snapshot,
  seeds, sha256 of each input, output paths, tool version — enough to
  reproduce the run bit-exactly;
* configuration precedence is flags > --config file > defaults;
* stdout carries human-readable summaries, stderr diagnostics; machine
  data goes to files only.  Exit code 0 iff no errors.
* outputs never embed timestamps or wall times, so rerunning a command on
  identical inputs yields byte-identical files (timings go to stderr).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, fields
from dataclasses import replace as dc_replace
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .corpus import (
    AnnotationError,
    RelationInstance,
    corpus_stats,
    document_instances,
    parse_document,
    read_instances,
    write_instances,
)
from .encoding import (
    EncoderConfig,
    build_vocab,
    encode_instances,
    load_vocab,
    save_vocab,
    vocab_hash,
)
from .evaluator import bootstrap_ci, evaluate, format_report
from .model import (
    HyperParams,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .numeric import ShapeError
from .relations import RELATION_TYPES, RelationType
from .synthgen import SynthSpec, SynthCheckError, generate, placement_task_spec, self_check
from .trainer import (
    GridSpec,
    TrainConfig,
    TrainingDiverged,
    grid_search,
    load_word_vectors,
    split_dev,
    train,
)

MANIFEST_FORMAT = "relcnn-manifest v1"


class CliError(RuntimeError):
    """User-facing command error (bad arguments, missing/mismatched files)."""


# ---------------------------------------------------------------------------
# Small IO helpers
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON: {exc}") from None


def write_manifest(
    primary_output: Path,
    command: str,
    config: dict,
    seeds: dict,
    inputs: Sequence[Path],
    outputs: Sequence[Path],
) -> Path:
    """Record the run next to its primary output, once the outputs are written."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": {str(p): _sha256(Path(p)) for p in sorted(inputs, key=str)},
        "outputs": [str(p) for p in outputs],
    }
    path = Path(str(primary_output) + ".manifest.json")
    _write_json(path, manifest)
    return path


# ---------------------------------------------------------------------------
# Config merging (flags > config file > defaults)
#
# The config dataclasses declare the schema: a config-file key, a grid-file
# axis and a flag's argparse dest are each exactly a field name.
# ---------------------------------------------------------------------------


def _typed(value, tp, where: str):
    """`value` as the field type `tp` (int, float, str or a tuple of those).

    An int is a valid float; a bool is neither.  A string stands for a tuple
    of ints as comma-separated sizes, as in `--windows 3,4,5`.
    """
    if get_origin(tp) is tuple:
        elem = get_args(tp)[0]
        if isinstance(value, str) and elem is int:
            try:
                value = [int(p) for p in value.split(",") if p]
            except ValueError:
                raise CliError(f"{where}: bad sizes {value!r}; expected e.g. '3,4,5'") from None
        if not isinstance(value, (list, tuple)):
            raise CliError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(v, elem, where) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
        raise CliError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value


def _typed_fields(cls, values, source: str) -> dict:
    """`values` checked key by key against the fields of dataclass `cls`."""
    hints = get_type_hints(cls)
    if not isinstance(values, dict):
        raise CliError(f"{source}: expected an object with keys {', '.join(hints)}, got {values!r}")
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise CliError(f"{source}: unknown keys {', '.join(unknown)} (expected {', '.join(hints)})")
    return {k: _typed(v, hints[k], f"{source}: {k}") for k, v in values.items()}


def _flags(args, cls) -> dict:
    """The flags given for the fields of `cls`; each flag's dest is its field's name."""
    given = {f.name: getattr(args, f.name) for f in fields(cls)}
    return {k: v for k, v in given.items() if v is not None}


def _resolve(cls, args, config: dict | None = None, section: str = ""):
    """A `cls` from its flags, over the config file's `section`, over its defaults."""
    values = {}
    if config:
        values = _typed_fields(cls, config.get(section, {}), f"{args.config}: {section}")
    values.update(_typed_fields(cls, _flags(args, cls), "command line"))
    return cls(**values)


_CONFIG_SECTIONS = {"hyperparams": HyperParams, "train": TrainConfig, "encoder": EncoderConfig}


def _resolve_train_setup(args) -> tuple[HyperParams, TrainConfig, EncoderConfig, dict]:
    """Merge defaults, --config file and flags into (hp, cfg, enc, snapshot)."""
    config = _read_json(Path(args.config)) if args.config else {}
    if not isinstance(config, dict):
        raise CliError(f"{args.config}: expected an object of config sections, got {config!r}")
    unknown = sorted(set(config) - set(_CONFIG_SECTIONS))
    if unknown:
        raise CliError(
            f"{args.config}: unknown config sections {', '.join(unknown)} "
            f"(expected {', '.join(_CONFIG_SECTIONS)})"
        )
    hp, cfg, enc_cfg = (_resolve(cls, args, config, name) for name, cls in _CONFIG_SECTIONS.items())
    snapshot = {"hyperparams": asdict(hp), "train": asdict(cfg), "encoder": asdict(enc_cfg)}
    return hp, cfg, enc_cfg, snapshot


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def _annotation_paths(txt: Path) -> tuple[Path, Path]:
    """Locate the concept/relation files for a .txt document.

    Two layouts are accepted: annotations beside the text (X.txt, X.con,
    X.rel in one directory) or the parallel txt/concept/rel directory
    layout common for this annotation scheme.
    """
    found: list[Path] = []
    for ext, subdir in ((".con", "concept"), (".rel", "rel")):
        beside = txt.with_suffix(ext)
        parallel = txt.parent.parent / subdir / (txt.stem + ext)
        if beside.is_file():
            found.append(beside)
        elif txt.parent.name == "txt" and parallel.is_file():
            found.append(parallel)
        else:
            raise CliError(
                f"{txt}: missing {ext} annotations (tried {beside} and {parallel})"
            )
    return found[0], found[1]


def _discover_documents(dirs: Sequence[str]) -> list[tuple[str, Path, Path, Path]]:
    docs: list[tuple[str, Path, Path, Path]] = []
    seen: dict[str, Path] = {}
    for d in dirs:
        root = Path(d)
        if not root.is_dir():
            raise CliError(f"{root}: not a directory")
        for txt in sorted(root.rglob("*.txt")):
            con, rel = _annotation_paths(txt)
            doc_id = txt.stem
            if doc_id in seen:
                raise CliError(f"duplicate document id {doc_id!r}: {seen[doc_id]} and {txt}")
            seen[doc_id] = txt
            docs.append((doc_id, txt, con, rel))
    if not docs:
        raise CliError(f"no .txt documents found under: {', '.join(map(str, dirs))}")
    return sorted(docs)


def cmd_preprocess(args) -> int:
    enc_cfg = _resolve(EncoderConfig, args)
    docs = _discover_documents(args.input)
    out = Path(args.out)
    vocab_path = Path(args.vocab) if args.vocab else out.with_suffix(".vocab.txt")
    stats_path = Path(args.stats) if args.stats else Path(str(out) + ".stats.json")

    instances: list[RelationInstance] = []
    for doc_id, txt, con, rel in docs:
        doc = parse_document(
            doc_id,
            txt.read_text(encoding="utf-8"),
            con.read_text(encoding="utf-8"),
            rel.read_text(encoding="utf-8"),
            concept_source=str(con),
            relation_source=str(rel),
        )
        instances.extend(document_instances(doc))

    out.parent.mkdir(parents=True, exist_ok=True)
    write_instances(out, instances)
    save_vocab(build_vocab(instances, enc_cfg), vocab_path)
    stats = corpus_stats(instances)
    _write_json(stats_path, stats.to_dict())
    write_manifest(
        out,
        "preprocess",
        {"encoder": asdict(enc_cfg)},
        {},
        [p for _, txt, con, rel in docs for p in (txt, con, rel)],
        [out, vocab_path, stats_path],
    )

    print(f"documents: {len(docs)}")
    print(f"instances: {stats.n_instances}")
    for name, count in stats.relation_counts.items():
        if count:
            print(f"  {name:<6} {count}")
    print(f"mean concept tokens: {stats.mean_concept_tokens_all:.2f}")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.spec:
        try:
            spec = SynthSpec.from_dict(_read_json(Path(args.spec)))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{args.spec}: bad synth spec: {exc!r}") from None
    elif args.preset == "placement":
        spec = placement_task_spec()
    else:
        raise CliError("provide --spec FILE or --preset placement")
    overrides = {}
    if args.sentences_per_type is not None:
        overrides["sentences_per_type"] = args.sentences_per_type
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.noise_rate is not None:
        overrides["noise_rate"] = args.noise_rate
    if overrides:
        try:
            spec = dc_replace(spec, **overrides)
        except ValueError as exc:
            raise CliError(str(exc))

    out = Path(args.out)
    ledger_path = Path(args.ledger) if args.ledger else Path(str(out) + ".ledger.json")
    vocab_path = Path(args.vocab) if args.vocab else None
    config_snapshot: dict = {"spec": spec.to_dict()}
    outputs = [out, ledger_path]
    if vocab_path is not None:
        enc_cfg = _resolve(EncoderConfig, args)
        config_snapshot["encoder"] = asdict(enc_cfg)
        outputs.append(vocab_path)
    instances, ledger = generate(spec)
    report = self_check(instances, ledger)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_instances(out, instances)
    _write_json(ledger_path, ledger.to_dict())
    if vocab_path is not None:
        save_vocab(build_vocab(instances, enc_cfg), vocab_path)
    write_manifest(
        out,
        "synth",
        config_snapshot,
        {"seed": spec.seed},
        [Path(args.spec)] if args.spec else [],
        outputs,
    )
    print(f"instances: {report.n}")
    print(f"rule-reader accuracy: {100.0 * report.rule_accuracy:.1f}")
    return 0


# ---------------------------------------------------------------------------
# train / gridsearch
# ---------------------------------------------------------------------------


def _load_split(args, cfg: TrainConfig) -> tuple[list, list, list[Path]]:
    """Training and dev instance lists plus the input files used."""
    train_path = Path(args.train)
    train_insts = read_instances(train_path)
    inputs = [train_path]
    if args.dev:
        dev_path = Path(args.dev)
        dev_insts = read_instances(dev_path)
        inputs.append(dev_path)
    else:
        train_insts, dev_insts = split_dev(train_insts, cfg.dev_fraction, cfg.seed)
    return train_insts, dev_insts, inputs


def cmd_train(args) -> int:
    hp, cfg, enc_cfg, snapshot = _resolve_train_setup(args)
    vocab_path = Path(args.vocab)
    vocab = load_vocab(vocab_path)
    train_raw, dev_raw, inputs = _load_split(args, cfg)
    inputs.append(vocab_path)

    ckpt_path = Path(args.checkpoint)
    metrics_path = Path(args.metrics) if args.metrics else Path(str(ckpt_path) + ".metrics.json")
    outputs = [ckpt_path, metrics_path]
    record_path = Path(args.record) if args.record else None
    if record_path:
        outputs.append(record_path)
    if args.embeddings:
        inputs.append(Path(args.embeddings))

    train_enc = encode_instances(train_raw, vocab, enc_cfg)
    dev_enc = encode_instances(dev_raw, vocab, enc_cfg)

    init = None
    if args.embeddings:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
        init = init_params(
            hp, vocab.n_words, vocab.n_positions, enc_cfg.concept_len, rng
        )
        n_loaded = load_word_vectors(args.embeddings, vocab, init.w_word)
        print(f"loaded {n_loaded} pre-trained word vectors", file=sys.stderr)

    result = train(train_enc, dev_enc, hp, cfg, vocab, enc_cfg, init=init)
    record = result.record

    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt_path, result.params, hp, enc_cfg, vocab_hash(vocab_path))
    _write_json(
        metrics_path,
        {
            "best_epoch": record.best_epoch,
            "record": record.to_dict(include_wall_time=False),
            "dev": result.dev_report.to_dict(),
        },
    )
    if record_path:
        _write_json(record_path, record.to_dict(include_wall_time=True))
    write_manifest(ckpt_path, "train", snapshot, {"seed": cfg.seed}, inputs, outputs)
    print(
        f"epochs: {record.n_epochs}  best epoch: {record.best_epoch}  "
        f"dev micro-F1: {result.dev_report.micro.f1:.1f}"
    )
    print(f"wall time: {record.wall_time_s:.1f}s", file=sys.stderr)
    return 0


def _cell_text(value) -> str:
    return ",".join(str(k) for k in value) if isinstance(value, tuple) else str(value)


def cmd_gridsearch(args) -> int:
    hp, cfg, enc_cfg, snapshot = _resolve_train_setup(args)
    grid = GridSpec()
    if args.grid:
        axes = _typed_fields(GridSpec, _read_json(Path(args.grid)), f"{args.grid}: grid axes")
        grid = GridSpec(**axes)

    vocab_path = Path(args.vocab)
    vocab = load_vocab(vocab_path)
    train_raw, dev_raw, inputs = _load_split(args, cfg)
    inputs.append(vocab_path)
    if args.grid:
        inputs.append(Path(args.grid))
    out = Path(args.out)
    outputs = [out] + ([Path(args.json)] if args.json else [])

    train_enc = encode_instances(train_raw, vocab, enc_cfg)
    dev_enc = encode_instances(dev_raw, vocab, enc_cfg)
    results = grid_search(train_enc, dev_enc, hp, grid, cfg, vocab, enc_cfg)

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", *(f.name for f in fields(GridSpec)), "dev_f1", "best_epoch", "failed", "error"])
        for rank, res in enumerate(results, start=1):
            writer.writerow(
                [
                    rank,
                    *map(_cell_text, res.cell.values()),
                    "" if res.failed else repr(res.dev_f1),
                    res.best_epoch,
                    int(res.failed),
                    res.error,
                ]
            )
    if args.json:
        _write_json(
            Path(args.json),
            {
                "results": [
                    {
                        "rank": rank,
                        "cell": res.cell,
                        "dev_f1": None if res.failed else res.dev_f1,
                        "best_epoch": res.best_epoch,
                        "failed": res.failed,
                        "error": res.error,
                    }
                    for rank, res in enumerate(results, start=1)
                ]
            },
        )
    snapshot["grid"] = asdict(grid)
    write_manifest(out, "gridsearch", snapshot, {"seed": cfg.seed}, inputs, outputs)
    best = results[0]
    if best.failed:
        print("all grid cells failed", file=sys.stderr)
        return 1
    cell = " ".join(f"{name}={_cell_text(value)}" for name, value in best.cell.items())
    print(f"best cell: {cell}  dev micro-F1: {best.dev_f1:.1f}")
    return 0


# ---------------------------------------------------------------------------
# predict / eval / stats
# ---------------------------------------------------------------------------


def _instance_key(inst: RelationInstance) -> str:
    c1, c2 = inst.concept1, inst.concept2
    return (
        f"{inst.doc_id}|{inst.sent_index}|{c1.start}-{c1.end}|{c2.start}-{c2.end}"
    )


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(Path(args.checkpoint))
    vocab_path = Path(args.vocab)
    actual = vocab_hash(vocab_path)
    if actual != ckpt.vocab_sha256:
        raise CliError(
            f"vocabulary mismatch: checkpoint was trained with vocab {ckpt.vocab_sha256[:12]}..., "
            f"{vocab_path} hashes to {actual[:12]}..."
        )
    vocab = load_vocab(vocab_path)
    for name, rows in (("w_word", vocab.n_words), ("w_pos", vocab.n_positions)):
        got = len(ckpt.params.arrays()[name])
        if got != rows:
            raise CliError(f"{args.checkpoint}: array {name} has {got} rows, {vocab_path} needs {rows}")
    in_path = Path(args.input)
    instances = read_instances(in_path)
    out = Path(args.out)
    encoded = encode_instances(instances, vocab, ckpt.encoder)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for inst, enc in zip(instances, encoded):
            label, probs = predict(enc, ckpt.params, ckpt.hp)
            rec = {
                "key": _instance_key(inst),
                "doc": inst.doc_id,
                "sent": inst.sent_index,
                "gold": inst.gold.value,
                "pred": label.value,
                "probs": {t.value: float(p) for t, p in zip(RELATION_TYPES, probs)},
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    write_manifest(
        out,
        "predict",
        {"checkpoint": str(args.checkpoint)},
        {},
        [Path(args.checkpoint), vocab_path, in_path],
        [out],
    )
    print(f"predicted {len(instances)} instances")
    return 0


def cmd_eval(args) -> int:
    gold_path = Path(args.gold)
    pred_path = Path(args.pred)
    gold_insts = read_instances(gold_path)
    with open(pred_path, "r", encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    if len(gold_insts) != len(lines):
        raise CliError(
            f"gold/prediction length mismatch: {len(gold_insts)} vs {len(lines)}"
        )
    gold_labels = [inst.gold for inst in gold_insts]
    pred_labels = []
    for inst, (lineno, line) in zip(gold_insts, lines):
        try:
            rec = json.loads(line)
            pred_labels.append(RelationType(rec["pred"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(f"{pred_path}:{lineno}: bad prediction record: {exc}")
        key = _instance_key(inst)
        if "key" in rec and rec["key"] != key:
            raise CliError(f"{pred_path}:{lineno}: prediction key {rec['key']!r} != gold {key!r}")

    out = Path(args.out) if args.out else Path(str(pred_path) + ".report.json")
    report = evaluate(gold_labels, pred_labels)
    if args.bootstrap:
        report.ci = bootstrap_ci(gold_labels, pred_labels, args.bootstrap, args.seed)
    _write_json(out, report.to_dict())
    write_manifest(
        out,
        "eval",
        {"bootstrap": args.bootstrap},
        {"seed": args.seed},
        [gold_path, pred_path],
        [out],
    )
    print(format_report(report))
    return 0


def cmd_stats(args) -> int:
    in_path = Path(args.input)
    instances = read_instances(in_path)
    stats = corpus_stats(instances)
    if args.out:
        out = Path(args.out)
        _write_json(out, stats.to_dict())
        write_manifest(out, "stats", {}, {}, [in_path], [out])
    print(f"instances: {stats.n_instances}")
    for name, count in stats.relation_counts.items():
        print(f"  {name:<6} {count}")
    print(f"mean concept tokens: {stats.mean_concept_tokens_all:.2f}")
    print("concept length histogram:")
    for length, count in stats.concept_length_hist.items():
        print(f"  {length:>3} {count}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_encoder_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-distance", type=int, default=None, help="position clip radius")
    p.add_argument("--concept-len", type=int, default=None, help="concept content length")
    p.add_argument("--min-word-freq", type=int, default=None, help="rarer words become <unk>")


def _add_hp_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-w", type=int, default=None, help="word embedding size")
    p.add_argument("--d-p", type=int, default=None, help="position embedding size")
    p.add_argument("--d-ct", type=int, default=None, help="concept-type embedding size")
    p.add_argument("--d-c", type=int, default=None, help="filters per window size")
    p.add_argument("--windows", default=None, help="window sizes, e.g. '4' or '3,4,5'")
    p.add_argument("--pooling", choices=["max", "multi"], default=None)
    p.add_argument("--loss", choices=["softmax", "constrained"], default=None)
    p.add_argument("--dropout", dest="dropout_p", type=float, default=None,
                   help="dropout probability on rc")
    p.add_argument("--beta", type=float, default=None, help="L2 coefficient")
    p.add_argument("--lr", type=float, default=None, help="SGD learning rate")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dev-fraction", type=float, default=None)
    p.add_argument("--config", default=None, help="JSON config file (flags win)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcnn",
        description="CNN relation classifier for clinical concept pairs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="parse raw corpus into canonical instances")
    p.add_argument("--input", nargs="+", required=True, help="corpus directories")
    p.add_argument("--out", required=True, help="instances JSON-lines output")
    p.add_argument("--vocab", default=None, help="vocabulary output path")
    p.add_argument("--stats", default=None, help="corpus stats JSON output")
    _add_encoder_args(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ledger")
    p.add_argument("--spec", default=None, help="SynthSpec JSON file")
    p.add_argument("--preset", choices=["placement"], default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--ledger", default=None)
    p.add_argument("--vocab", default=None, help="also write a vocabulary built from the output")
    p.add_argument("--sentences-per-type", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise-rate", type=float, default=None)
    _add_encoder_args(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True, help="training instances JSON-lines")
    p.add_argument("--dev", default=None, help="dev instances (default: split from train)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True, help="model output (.npz)")
    p.add_argument("--metrics", default=None, help="metrics JSON output")
    p.add_argument("--record", default=None, help="training record JSON (includes wall time)")
    p.add_argument("--embeddings", default=None, help="pre-trained word vectors (text)")
    _add_hp_args(p)
    _add_train_args(p)
    _add_encoder_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="hyperparameter sweep")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--grid", default=None, help="JSON with axes d_p, d_c, lr, beta, windows")
    p.add_argument("--out", required=True, help="ranked results CSV")
    p.add_argument("--json", default=None, help="full results JSON")
    _add_hp_args(p)
    _add_train_args(p)
    _add_encoder_args(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("predict", help="label instances with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold instances")
    p.add_argument("--gold", required=True, help="gold instances JSON-lines")
    p.add_argument("--pred", required=True, help="predictions JSON-lines")
    p.add_argument("--out", default=None, help="report JSON output")
    p.add_argument("--bootstrap", type=int, default=None, help="bootstrap resamples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        AnnotationError,
        SynthCheckError,
        TrainingDiverged,
        ShapeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
