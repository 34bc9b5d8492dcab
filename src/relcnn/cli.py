"""Command-line pipeline: preprocess, synth, train, gridsearch, predict, eval, stats.

Conventions shared by every subcommand:

* the subcommand `<name>` runs the module function `cmd_<name>(args, run)`,
  looked up when `main` runs it, so a function replaced on the module
  after import is the one called; the parser is built once per process;
* JSON-lines instance files are the universal inter-stage format;
* every output is written to a staging file beside its target and moved
  onto it with `os.replace` only once the command has finished its work
  (`Run`), so an existing file is either replaced whole or left untouched,
  and a command that fails or is interrupted leaves no output behind;
  `gridsearch` writes its ranking and then exits 1 when every cell diverged;
* a run manifest (`<primary output>.manifest.json`) records the command,
  the settings it read, seeds, sha256 of each input read and the outputs
  written, and tool version — enough to reproduce the run bit-exactly;
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
import os
import sys
from dataclasses import asdict, fields
from dataclasses import replace as dc_replace
from functools import cache, partial
from pathlib import Path
from typing import Sequence

from . import __version__
from .corpus import (
    RelationInstance,
    corpus_stats,
    document_instances,
    parse_document,
    read_instances,
    read_text,
    write_instances,
)
from .encoding import (
    EncoderConfig,
    build_vocab,
    encode_instances,
    load_vocab,
    save_vocab,
)
from .evaluator import bootstrap_ci, evaluate, format_report
from .model import (
    HyperParams,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
)
from .relations import RELATION_TYPES, RelationType, by_value
from .schema import SchemaError, read_json, typed, typed_fields
from .synthgen import SynthSpec, SynthCheckError, generate, placement_task_spec, self_check
from .trainer import (
    GridSpec,
    TrainConfig,
    TrainingDiverged,
    grid_search,
    initial_params,
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


def _write_json(path: Path, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)  # one write, not one per token
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_manifest(
    path: Path,
    command: str,
    config: dict,
    seeds: dict,
    inputs: dict[Path, str],
    outputs: Sequence[Path],
) -> None:
    """Write the record of one run to `path`; `inputs` maps each file read to its sha256."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": {str(p): inputs[p] for p in sorted(inputs, key=str)},
        "outputs": [str(p) for p in outputs],
    }
    _write_json(path, manifest)


class Run:
    """How one command touches files.

    `input` records a file the command reads and its sha256 in `inputs`;
    `config` holds the settings the command read.  `output` creates the
    target's directory and returns a staging file beside the target, which
    the command writes in place of it.  `commit` writes the manifest from
    what was recorded, then moves each staged file onto its target with
    `os.replace`, in staging order and the manifest last.  `discard`
    removes whatever is staged and not committed, so a command that fails
    changes no target.  Two outputs may not name the same file.
    """

    def __init__(self, command: str) -> None:
        self.command = command
        self.config: dict = {}
        self.inputs: dict[Path, str] = {}
        self.staged: list[tuple[Path, Path]] = []  # (staging file, target)

    def input(self, path: str | Path) -> Path:
        path = Path(path)
        self.inputs[path] = hashlib.sha256(path.read_bytes()).hexdigest()
        return path

    def output(self, path: str | Path) -> Path:
        target = Path(path)
        if any(os.path.realpath(target) == os.path.realpath(t) for _, t in self.staged):
            raise CliError(f"{target}: named by two outputs of one {self.command} run")
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = target.with_name(f".{target.name}.{os.getpid()}-{len(self.staged)}.tmp")
        self.staged.append((staging, target))
        return staging

    def commit(self, primary: Path, seeds: dict) -> None:
        outputs = [target for _, target in self.staged]
        manifest = self.output(str(primary) + ".manifest.json")
        write_manifest(manifest, self.command, self.config, seeds, self.inputs, outputs)
        for staging, target in self.staged:
            os.replace(staging, target)
        self.staged.clear()

    def discard(self) -> None:
        for staging, _ in self.staged:
            staging.unlink(missing_ok=True)
        self.staged.clear()


# ---------------------------------------------------------------------------
# Config merging (flags > config file > defaults)
#
# The config dataclasses declare the schema: a config-file key, a grid-file
# axis and a flag's argparse dest are each exactly a field name.  The parser
# declares what each command reads, so a config-file key is also a flag dest,
# and a manifest records exactly those settings (`_resolve`).
# ---------------------------------------------------------------------------


def _flags(args, cls) -> dict:
    """The flags given for the fields of `cls`; each flag's dest is its field's name."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {k: v for k, v in given.items() if v is not None}


_CONFIG_SECTIONS = {"hyperparams": HyperParams, "train": TrainConfig, "encoder": EncoderConfig}


def _resolve(run: Run, args, section: str, config: dict | None = None, **defaults):
    """The `section` dataclass from its flags, over the config file's `section`,
    over `defaults`, over the dataclass defaults; records in `run.config` the
    values the command read: its flags' fields and `defaults`.

    A value the dataclass rejects is named with the config file and section
    when the flags and defaults alone are accepted, so the file supplied it.
    """
    cls = _CONFIG_SECTIONS[section]
    settings = [f.name for f in fields(cls) if f.name in vars(args)]
    from_file = {}
    if config:
        where = f"{args.config}: {section}"
        values = config.get(section, {})
        if not isinstance(values, dict):
            raise CliError(f"{where}: expected an object with keys {', '.join(settings)}, got {values!r}")
        ignored = sorted(set(values) - set(settings))
        if ignored:  # a field the command has no flag for is a setting it ignores
            raise CliError(f"{where}: {', '.join(ignored)}: {args.command} reads only {', '.join(settings)}")
        from_file = typed_fields(cls, values, where)
    flags = typed_fields(cls, _flags(args, cls), "command line")
    try:
        resolved = cls(**{**defaults, **from_file, **flags})
    except ValueError as exc:
        if not from_file:
            raise
        cls(**{**defaults, **flags})  # raises unchanged when the flags are at fault
        raise CliError(f"{where}: {exc}") from None
    run.config[section] = {name: getattr(resolved, name) for name in [*settings, *defaults]}
    return resolved


def _train_setup(args, run: Run):
    """What `train` and `gridsearch` read: the vocabulary, the settings
    merged from defaults, the --config file and flags into (hp, cfg, enc),
    and the training and dev instances, encoded.

    The vocabulary sets the position table, so its radius is the encoder's
    `max_distance`.  Without a dev file, dev is split from the training
    instances by `cfg`'s fraction and seed.
    """
    vocab = load_vocab(run.input(args.vocab))
    if args.dev:  # a dev file replaces the split, so `dev_fraction` is no setting of the run
        del args.dev_fraction
    config = read_json(run.input(args.config)) if args.config else {}
    if not isinstance(config, dict):
        raise CliError(f"{args.config}: expected an object of config sections, got {config!r}")
    unknown = sorted(set(config) - set(_CONFIG_SECTIONS))
    if unknown:
        raise CliError(
            f"{args.config}: unknown config sections {', '.join(unknown)} "
            f"(expected {', '.join(_CONFIG_SECTIONS)})"
        )
    hp = _resolve(run, args, "hyperparams", config)
    cfg = _resolve(run, args, "train", config)
    enc_cfg = _resolve(run, args, "encoder", config, max_distance=vocab.max_distance)

    train_insts = read_instances(run.input(args.train))
    if args.dev:
        dev_insts = read_instances(run.input(args.dev))
        for path, insts, what in (args.train, train_insts, "training"), (args.dev, dev_insts, "dev"):
            if not insts:
                raise CliError(f"{path}: empty {what} set")
    else:
        try:
            train_insts, dev_insts = split_dev(train_insts, cfg.dev_fraction, cfg.seed)
        except ValueError as exc:
            raise CliError(f"{args.train}: {exc}") from None
    train_enc = encode_instances(train_insts, vocab, enc_cfg)
    return vocab, hp, cfg, enc_cfg, train_enc, encode_instances(dev_insts, vocab, enc_cfg)


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


def cmd_preprocess(args, run: Run) -> int:
    enc_cfg = _resolve(run, args, "encoder")
    docs = _discover_documents(args.input)
    out = Path(args.out)

    instances: list[RelationInstance] = []
    for doc_id, txt, con, rel in docs:
        doc = parse_document(
            doc_id,
            read_text(run.input(txt)),
            read_text(run.input(con)),
            read_text(run.input(rel)),
            concept_source=str(con),
            relation_source=str(rel),
        )
        instances.extend(document_instances(doc))

    write_instances(run.output(out), instances)
    save_vocab(build_vocab(instances, enc_cfg), run.output(args.vocab or out.with_suffix(".vocab.txt")))
    stats = corpus_stats(instances)
    _write_json(run.output(args.stats or f"{out}.stats.json"), stats.to_dict())
    run.commit(out, {})

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


def cmd_synth(args, run: Run) -> int:
    if args.spec is not None:
        where = f"{args.spec}: bad synth spec"
        data = read_json(run.input(args.spec))
        try:
            spec = typed(data, SynthSpec, where)
        except SchemaError:
            raise  # it names the file and the key already
        except (TypeError, ValueError) as exc:
            raise CliError(f"{where}: {exc}") from None
    else:
        spec = placement_task_spec()
    spec = dc_replace(spec, **_flags(args, SynthSpec))
    run.config["spec"] = asdict(spec)

    out = Path(args.out)
    if args.vocab:
        enc_cfg = _resolve(run, args, "encoder")
    elif _flags(args, EncoderConfig):
        raise CliError("--max-distance and --min-word-freq set the vocabulary; they need --vocab")
    instances, ledger = generate(spec)
    report = self_check(instances, ledger)
    write_instances(run.output(out), instances)
    # `asdict` would deep-copy every field of every entry; an entry is flat
    # (strings, ints, bools, enums and a tuple of strings), so its own
    # `__dict__` encodes to the same JSON.
    ledger_dict = {"spec": asdict(ledger.spec), "entries": [vars(e) for e in ledger.entries]}
    _write_json(run.output(args.ledger or f"{out}.ledger.json"), ledger_dict)
    if args.vocab:
        save_vocab(build_vocab(instances, enc_cfg), run.output(args.vocab))
    run.commit(out, {"seed": spec.seed})
    print(f"instances: {report.n}")
    print(f"rule-reader accuracy: {100.0 * report.rule_accuracy:.1f}")
    return 0


# ---------------------------------------------------------------------------
# train / gridsearch
# ---------------------------------------------------------------------------


def cmd_train(args, run: Run) -> int:
    vocab, hp, cfg, enc_cfg, train_enc, dev_enc = _train_setup(args, run)

    init = None
    if args.embeddings:
        init = initial_params(hp, cfg, vocab, enc_cfg)
        n_loaded = load_word_vectors(run.input(args.embeddings), vocab, init.w_word)
        print(f"loaded {n_loaded} pre-trained word vectors", file=sys.stderr)

    result = train(train_enc, dev_enc, hp, cfg, vocab, enc_cfg, init=init)
    record = result.record

    ckpt_path = Path(args.checkpoint)
    save_checkpoint(run.output(ckpt_path), result.params, hp, enc_cfg, run.inputs[Path(args.vocab)])
    _write_json(
        run.output(args.metrics or f"{ckpt_path}.metrics.json"),
        {
            "best_epoch": record.best_epoch,
            "record": record.to_dict(include_wall_time=False),
            "dev": result.dev_report.to_dict(),
        },
    )
    if args.record:
        _write_json(run.output(args.record), record.to_dict(include_wall_time=True))
    run.commit(ckpt_path, {"seed": cfg.seed})
    print(
        f"epochs: {record.n_epochs}  best epoch: {record.best_epoch}  "
        f"dev micro-F1: {result.dev_report.micro.f1:.1f}"
    )
    print(f"wall time: {record.wall_time_s:.1f}s", file=sys.stderr)
    return 0


def _cell_text(value) -> str:
    return ",".join(str(k) for k in value) if isinstance(value, tuple) else str(value)


def _csv_row(row: dict) -> dict:
    """A results row as CSV columns: one per grid axis, a flag as 0 or 1 (csv
    writes None as an empty field)."""
    columns = {}
    for key, value in row.items():
        if key == "cell":
            columns.update((name, _cell_text(v)) for name, v in value.items())
        else:
            columns[key] = int(value) if isinstance(value, bool) else value
    return columns


def cmd_gridsearch(args, run: Run) -> int:
    grid = GridSpec()
    if args.grid:
        grid = typed(read_json(run.input(args.grid)), GridSpec, f"{args.grid}: grid axes")
    run.config["grid"] = asdict(grid)
    vocab, hp, cfg, enc_cfg, train_enc, dev_enc = _train_setup(args, run)
    results = grid_search(train_enc, dev_enc, hp, grid, cfg, vocab, enc_cfg)
    rows = [  # the results table, as --json writes it and the CSV's columns
        {"rank": rank, "cell": res.cell, "dev_f1": None if res.failed else res.dev_f1,
         "best_epoch": res.best_epoch, "failed": res.failed, "error": res.error}
        for rank, res in enumerate(results, start=1)
    ]

    out = Path(args.out)
    with open(run.output(out), "w", encoding="utf-8", newline="") as fh:
        table = [_csv_row(row) for row in rows]
        writer = csv.writer(fh)
        writer.writerow(table[0])
        writer.writerows(row.values() for row in table)
    if args.json:
        _write_json(run.output(args.json), {"results": rows})
    run.commit(out, {"seed": cfg.seed})
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
    doc, sent, start1, end1, start2, end2 = inst.key
    return f"{doc}|{sent}|{start1}-{end1}|{start2}-{end2}"


def cmd_predict(args, run: Run) -> int:
    ckpt = load_checkpoint(run.input(args.checkpoint))
    vocab_path = run.input(args.vocab)
    actual = run.inputs[vocab_path]
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
    instances = read_instances(run.input(args.input))
    encoded = encode_instances(instances, vocab, ckpt.encoder)
    out = Path(args.out)
    encode = json.JSONEncoder(sort_keys=True).encode  # one encoder per file
    names = [t.value for t in RELATION_TYPES]
    with open(run.output(out), "w", encoding="utf-8") as fh:
        labels, probs = predict_batch(encoded, ckpt.params, ckpt.hp)
        for inst, label, row in zip(instances, labels, probs.tolist()):
            rec = {
                "key": _instance_key(inst),
                "doc": inst.doc_id,
                "sent": inst.sent_index,
                "gold": inst.gold.value,
                "pred": label.value,
                "probs": dict(zip(names, row)),
            }
            fh.write(encode(rec) + "\n")
    run.commit(out, {})
    print(f"predicted {len(instances)} instances")
    return 0


def cmd_eval(args, run: Run) -> int:
    if args.bootstrap is None and args.seed is not None:
        raise CliError("--seed seeds the bootstrap resamples; it needs --bootstrap")
    seeds = {} if args.bootstrap is None else {"seed": args.seed or 0}
    if seeds.get("seed", 0) < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    pred_path = run.input(args.pred)
    gold_insts = read_instances(run.input(args.gold))
    lines = [
        (lineno, line)
        for lineno, line in enumerate(read_text(pred_path).split("\n"), start=1)
        if line.strip()
    ]
    if len(gold_insts) != len(lines):
        raise CliError(
            f"{pred_path}: {len(lines)} prediction records for the "
            f"{len(gold_insts)} instances of {args.gold}"
        )
    if not gold_insts:
        raise CliError(f"{args.gold}: nothing to evaluate: no instances")
    gold_labels = [inst.gold for inst in gold_insts]
    pred_labels = []
    for inst, (lineno, line) in zip(gold_insts, lines):
        try:
            rec = json.loads(line)
            pred_labels.append(by_value(RelationType, rec["pred"]))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CliError(f"{pred_path}:{lineno}: bad prediction record: {exc}")
        key = _instance_key(inst)
        if "key" in rec and rec["key"] != key:
            raise CliError(f"{pred_path}:{lineno}: prediction key {rec['key']!r} != gold {key!r}")

    out = Path(args.out or f"{pred_path}.report.json")
    report = evaluate(gold_labels, pred_labels)
    if args.bootstrap is not None:
        report.ci = bootstrap_ci(gold_labels, pred_labels, args.bootstrap, seeds["seed"])
    _write_json(run.output(out), report.to_dict())
    run.config["bootstrap"] = args.bootstrap
    run.commit(out, seeds)
    print(format_report(report))
    return 0


def cmd_stats(args, run: Run) -> int:
    stats = corpus_stats(read_instances(run.input(args.input)))
    if args.out:
        _write_json(run.output(args.out), stats.to_dict())
        run.commit(Path(args.out), {})
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


def _add_vocab_args(p: argparse.ArgumentParser) -> None:
    """The `EncoderConfig` fields `build_vocab` reads."""
    p.add_argument("--max-distance", type=int, default=None, help="position clip radius")
    p.add_argument("--min-word-freq", type=int, default=None, help="rarer words become <unk>")


def _add_hp_args(p: argparse.ArgumentParser, grid_axes: bool = True) -> None:
    """`HyperParams` flags; without `grid_axes`, those a `GridSpec` sets."""
    p.add_argument("--d-w", type=int, default=None, help="word embedding size")
    p.add_argument("--d-ct", type=int, default=None, help="concept-type embedding size")
    p.add_argument("--pooling", choices=["max", "multi"], default=None)
    p.add_argument("--loss", choices=["softmax", "constrained"], default=None)
    p.add_argument("--dropout", dest="dropout_p", type=float, default=None,
                   help="dropout probability on rc")
    if grid_axes:
        p.add_argument("--d-p", type=int, default=None, help="position embedding size")
        p.add_argument("--d-c", type=int, default=None, help="filters per window size")
        p.add_argument("--windows", default=None, help="window sizes, e.g. '4' or '3,4,5'")
        p.add_argument("--beta", type=float, default=None, help="L2 coefficient")
        p.add_argument("--lr", type=float, default=None, help="SGD learning rate")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    dev = p.add_mutually_exclusive_group()
    dev.add_argument("--dev", default=None, help="dev instances (default: split from train)")
    dev.add_argument("--dev-fraction", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--concept-len", type=int, default=None, help="concept content length")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcnn",
        description="CNN relation classifier for clinical concept pairs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)  # no prefixes: `--d-c` is not `--d-ct`

    p = add("preprocess", help="parse raw corpus into canonical instances")
    p.add_argument("--input", nargs="+", required=True, help="corpus directories")
    p.add_argument("--out", required=True, help="instances JSON-lines output")
    p.add_argument("--vocab", default=None, help="vocabulary output path")
    p.add_argument("--stats", default=None, help="corpus stats JSON output")
    _add_vocab_args(p)

    p = add("synth", help="generate a synthetic corpus with ledger")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", default=None, help="SynthSpec JSON file")
    source.add_argument("--preset", choices=["placement"], default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--ledger", default=None)
    p.add_argument("--vocab", default=None, help="also write a vocabulary built from the output")
    p.add_argument("--sentences-per-type", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise-rate", type=float, default=None)
    _add_vocab_args(p)

    p = add("train", help="train a model")
    p.add_argument("--train", required=True, help="training instances JSON-lines")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True, help="model output (.npz)")
    p.add_argument("--metrics", default=None, help="metrics JSON output")
    p.add_argument("--record", default=None, help="training record JSON (includes wall time)")
    p.add_argument("--embeddings", default=None, help="pre-trained word vectors (text)")
    _add_hp_args(p)
    _add_train_args(p)

    p = add("gridsearch", help="hyperparameter sweep")
    p.add_argument("--train", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--grid", default=None, help="JSON with axes d_p, d_c, lr, beta, windows")
    p.add_argument("--out", required=True, help="ranked results CSV")
    p.add_argument("--json", default=None, help="full results JSON")
    _add_hp_args(p, grid_axes=False)  # the grid sets d_p, d_c, windows, lr and beta
    _add_train_args(p)

    p = add("predict", help="label instances with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", help="score predictions against gold instances")
    p.add_argument("--gold", required=True, help="gold instances JSON-lines")
    p.add_argument("--pred", required=True, help="predictions JSON-lines")
    p.add_argument("--out", default=None, help="report JSON output")
    p.add_argument("--bootstrap", type=int, default=None, help="bootstrap resamples")
    p.add_argument("--seed", type=int, default=None, help="bootstrap seed (default 0)")

    p = add("stats", help="corpus statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = Run(args.command)
    try:
        return globals()[f"cmd_{args.command}"](args, run)
    except (CliError, SynthCheckError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.discard()


if __name__ == "__main__":
    sys.exit(main())
