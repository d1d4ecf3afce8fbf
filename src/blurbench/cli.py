"""Command-line workflow: blur generation, planning, scoring, reporting.

Commands::

    blurbench blur <input file|dir> [--levels MB0,MB2] [--out DIR]
    blurbench plan <keys.txt> --technique ObjDet-Cap-Aug [--seed N] [--out DIR]
    blurbench score <dataset.json> <predictions.json> [--technique NAME]
                    [--flags flags.csv] [--out DIR]
    blurbench report <scores.csv> <features.csv> [--flags flags.csv]
                     [--bin-width N] [--out DIR]

Each setting (seed, technique, out, bin_width, format, sigma, max_n,
scale) is one ``_SETTINGS`` entry, its converter and default; its flag is
``--name`` with ``-`` for ``_``. Precedence is flag > config file
(--config, flat ``name = value`` lines) > BLURBENCH_SEED (seed only) >
default, and all text goes through the converter, whichever one wins: a
bad flag is a usage error (exit 2), a bad config or environment value one
``error:`` line naming its setting and source (exit 1), as is an unknown
or repeated config key. Text out of range (a ``seed`` outside [0, 2**64),
an empty ``out``, a ``bin_width`` below 1, a metric setting
``CiderConfig`` rejects) is bad text. Every ``cmd_*`` reads the resolved
settings from ``args``; the seed is echoed in every output header; all
files are written atomically, each with the mode ``open(path, "w")`` gives
a new file (0666 less the umask), also where it replaces an existing file.

``plan`` of a keys file that holds no key (only blank lines, or only a
byte order mark) is one ``error:`` line, and nothing is written.

``blur`` on a directory skips subdirectories and files named like its own
outputs (``<stem>.MB0``..``<stem>.MB3`` plus the extension), so rerunning
it with ``--out`` set to the input directory writes the same files again.

``score`` writes one row per blur level, scored with idf from the whole
split, and with ``--flags`` one MB0 row per flag subset, scored with idf
recounted over that subset's own references (each subset row is the
corpus score of the subset as a split of its own). Predictions for images
outside the split are ignored, with one warning line giving their count:
the levels scored are those of predictions for split images. A split with
no images, predictions of which none names a split image, or a row that
lacks the prediction of one of its images (every row is checked before
any is scored) is one ``error:`` line, and nothing is written.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import suppress
from functools import cache
from pathlib import Path

from . import _error_text
from .cider import CiderConfig, build_idf, check_coverage, corpus_cider_d
from .imaging import BlurLevel, apply_blur, load_image, make_kernel, save_image
from .ingest import (
    BlurFlag,
    decode_text,
    filter_by_blur_flag,
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_level,
    parse_predictions,
    write_csv,
)
from .report import (
    FORMATS,
    SCORES_HEADER,
    build_histograms,
    check_bin_width,
    check_format,
    degradation_deltas,
    degradation_warnings,
    parse_scores_csv,
    render_deltas,
    render_histograms,
    render_score_table,
    render_subset_table,
)
from .schedule import (check_seed, parse_technique, plan_dataset,
                       technique_plan, write_manifest)

SEED_ENV_VAR = "BLURBENCH_SEED"
#: A config comment starts at a `#` that begins a line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def _out_directory(text: str) -> Path:
    if not text:
        raise ValueError("out must not be empty")
    return Path(text)


_METRIC = CiderConfig()  # its defaults are the metric settings' defaults
#: Setting name (its config key) -> (converter of its flag, config-file or
#: environment text, which raises ValueError; default).
_SETTINGS = {
    "seed": (lambda text: check_seed(int(text)), 0),
    "technique": (lambda text: parse_technique(text).value, "No-Aug"),
    "out": (_out_directory, Path(".")),
    "bin_width": (lambda text: check_bin_width(int(text)), 10),
    "format": (check_format, "markdown"),
    "sigma": (lambda text: CiderConfig(sigma=float(text)).sigma, _METRIC.sigma),
    "max_n": (lambda text: CiderConfig(max_n=int(text)).max_n, _METRIC.max_n),
    "scale": (lambda text: CiderConfig(scale=float(text)).scale, _METRIC.scale),
}


def _shown(path: Path) -> str:
    """`path` as the CLI prints it, on stdout and stderr alike: a byte that
    is not UTF-8 as a `\\xNN` escape, so that a strict UTF-8 stdout prints
    every path."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = None
    while fd is None:  # a new file beside the target, so the umask applies
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
        with suppress(FileExistsError):  # the name is taken: draw another
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in decode_text(path.read_bytes()).split("\n"):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {raw!r}; expected key = value")
        key = key.strip()
        if key in values:
            raise ValueError(f"config key {key!r} set twice in {_shown(path)}")
        values[key] = value.strip()
    return values


def _resolve_config(args: argparse.Namespace) -> None:
    """Set every setting on `args`: flag > config file > env > default."""
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_SETTINGS))
    if unknown:
        raise ValueError(f"unknown config key(s) in {_shown(args.config)}: "
                         f"{', '.join(unknown)}")
    texts = {name: [(f"{name} in {_shown(args.config)}", text)]
             for name, text in file_values.items()}
    if env_seed := os.environ.get(SEED_ENV_VAR):
        texts.setdefault("seed", []).append((SEED_ENV_VAR, env_seed))
    for name, (convert, default) in _SETTINGS.items():
        values = []
        for source, text in texts.get(name, ()):
            try:  # every text given is checked, also where a flag overrides it
                values.append(convert(text))
            except ValueError as exc:
                raise ValueError(f"{source}: {_error_text(exc)}") from None
        value = getattr(args, name, None)
        if value is None:
            value = values[0] if values else default
        setattr(args, name, value)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_blur(args: argparse.Namespace) -> int:
    if args.input.is_dir():
        # <stem>.MB<k>.<ext> files are this command's own outputs
        outputs = tuple(f".{level.name}" for level in BlurLevel)
        files = sorted(p for p in args.input.iterdir()
                       if p.suffix.lower() in (".pgm", ".ppm")
                       and not p.stem.endswith(outputs) and not p.is_dir())
    elif args.input.exists():
        files = [args.input]
    else:
        print(f"error: no such input {_shown(args.input)}", file=sys.stderr)
        return 1
    if not files:
        print(f"warning: no PGM/PPM files in {_shown(args.input)}",
              file=sys.stderr)
        return 0

    failures = 0
    for path in files:
        written = 0
        try:
            img = load_image(path.read_bytes())
        except (OSError, ValueError) as exc:
            print(f"error: {_shown(path)}: {_error_text(exc)}", file=sys.stderr)
            failures += 1
            continue
        for level in args.levels:
            try:
                variant = apply_blur(img, make_kernel(level))
            except ValueError as exc:
                print(f"error: {_shown(path)} at {level.name}: "
                      f"{_error_text(exc)}", file=sys.stderr)
                failures += 1
                continue
            target = args.out / f"{path.stem}.{level.name}{path.suffix}"
            _atomic_write(target, save_image(variant))
            del variant  # not held while the next level blurs
            written += 1
        del img  # not held while the next file decodes
        print(f"{_shown(path)}: wrote {written} variant(s) to "
              f"{_shown(args.out)}")
    return 1 if failures else 0


def cmd_plan(args: argparse.Namespace) -> int:
    lines = decode_text(args.keys.read_bytes()).split("\n")
    keys = list(filter(None, map(str.strip, lines)))
    if not keys:
        raise ValueError(f"no keys in {_shown(args.keys)}")
    if "\r" in "".join(keys):
        number = next(n for n, line in enumerate(lines, 1) if "\r" in line.strip())
        raise ValueError(f"{_shown(args.keys)} line {number}: key holds a "
                         "carriage return; lines must end in \\n or \\r\\n")
    plan = technique_plan(args.technique)
    manifest = plan_dataset(keys, plan, args.seed)
    target = args.out / "manifest.jsonl"
    _atomic_write(target, write_manifest(manifest).encode("utf-8"))
    print(f"wrote {_shown(target)}: technique={plan.name.value} "
          f"seed={args.seed} entries={len(manifest.levels)}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    dataset = parse_captions(args.dataset.read_bytes())
    if not dataset:
        raise ValueError(f"no images in {_shown(args.dataset)}")
    preds = parse_predictions(args.predictions.read_bytes())
    if not preds:
        raise ValueError(f"no predictions in {_shown(args.predictions)}")
    metric = CiderConfig(max_n=args.max_n, sigma=args.sigma, scale=args.scale)
    levels = [level for image_id, level in preds if image_id in dataset]
    if len(levels) < len(preds):
        print(f"warning: {len(preds) - len(levels)} prediction(s) for images "
              f"not in the split ignored", file=sys.stderr)
    if not levels:
        raise ValueError(f"no predictions for images in {_shown(args.predictions)}")
    levels = sorted(set(levels))
    subsets = {}
    if args.flags is not None:  # a bad flags file fails before any scoring
        flags = parse_blur_flags(args.flags.read_bytes())
        subsets = {flag: filter_by_blur_flag(dataset, flags, flag)
                   for flag in BlurFlag}
    for level in sorted({*levels, BlurLevel.MB0}) if subsets else levels:
        check_coverage(preds, dataset, level)  # every row's, before any scoring
    idf = build_idf(dataset, metric)

    rows = []
    for level in levels:
        score = corpus_cider_d(preds, level, idf)
        rows.append([args.technique, level.name, score])
        print(f"{args.technique} {level.name}: {score:.4f}")
    for flag, subset in subsets.items():
        if not subset:
            print(f"warning: no images flagged {flag.value}; "
                  f"subset row skipped", file=sys.stderr)
            continue
        score = corpus_cider_d(preds, BlurLevel.MB0, build_idf(subset, metric))
        rows.append([args.technique, flag.value, score])
        print(f"{args.technique} {flag.value} (MB0): {score:.4f}")

    target = args.out / "scores.csv"
    _atomic_write(target, (f"# seed={args.seed}\n"
                           + write_csv(SCORES_HEADER, rows)).encode("utf-8"))
    print(f"wrote {_shown(target)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    table = parse_scores_csv(decode_text(args.scores.read_bytes()))
    for warning in degradation_warnings(table):
        print(f"warning: {warning}", file=sys.stderr)
    deltas = degradation_deltas(table)

    outputs = {
        "score_table.md": render_score_table(table, "markdown"),
        "score_table.csv": render_score_table(table, "csv"),
        "degradation.md": render_deltas(deltas, "markdown"),
        "degradation.csv": render_deltas(deltas, "csv"),
    }
    features = parse_feature_counts(args.features.read_bytes())
    for level, bins in build_histograms(features, args.bin_width).items():
        outputs[f"histogram_{level.name}.csv"] = render_histograms(
            level, bins, args.bin_width)
    if args.flags is not None:
        flags = list(parse_blur_flags(args.flags.read_bytes()).values())
        print("flags: " + ", ".join(f"{flags.count(flag)} {flag.value}"
                                    for flag in BlurFlag))
        outputs["subset_table.md"] = render_subset_table(table, "markdown")
        outputs["subset_table.csv"] = render_subset_table(table, "csv")

    for name, text in outputs.items():
        if name.endswith(".csv"):
            text = f"# seed={args.seed}\n" + text
        _atomic_write(args.out / name, text.encode("utf-8"))
    print(f"wrote {len(outputs)} file(s) to {_shown(args.out)}")
    extension = "csv" if args.format == "csv" else "md"
    print(outputs[f"score_table.{extension}"] + outputs[f"degradation.{extension}"],
          end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _levels_argument(text: str) -> list[BlurLevel]:
    """The levels named in comma-separated `text`, each once, in order."""
    names = dict.fromkeys(filter(None, map(str.strip, text.split(","))))
    if not names:
        raise ValueError("no blur levels given")
    return list(map(parse_level, names))


def _usage_errors(convert):
    """`convert` as an argparse type: its ValueError is a usage error."""
    def flag_type(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(_error_text(exc)) from None
    return flag_type


def _add_setting(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
    """Add setting `name`'s flag; a ValueError of its converter is a usage
    error naming the flag."""
    parser.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                        type=_usage_errors(_SETTINGS[name][0]), **kwargs)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call in a process (so not at
    import) and shared by every later `main` call: parsing leaves it as
    it was, and each default is immutable."""
    parser = argparse.ArgumentParser(
        prog="blurbench",
        description="Motion-blur robustness toolkit: blur variants, "
                    "augmentation manifests, CIDEr-D scores, reports.")
    _add_setting(parser, "seed", help=f"sampling seed (default "
                 f"{_SETTINGS['seed'][1]}; also {SEED_ENV_VAR} env var)")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    _add_setting(parser, "out",
                 help=f"output directory (default {_SETTINGS['out'][1]})")
    _add_setting(parser, "format", metavar="{" + ",".join(FORMATS) + "}",
                 help="stdout rendering format for report")
    sub = parser.add_subparsers(dest="command", required=True)

    p_blur = sub.add_parser("blur", help="write blur variants of PGM/PPM images")
    p_blur.add_argument("input", type=Path, help="image file or directory")
    p_blur.add_argument("--levels", type=_usage_errors(_levels_argument),
                        default=tuple(BlurLevel),
                        help="comma-separated levels (default all)")
    p_blur.set_defaults(func=cmd_blur)

    p_plan = sub.add_parser("plan", help="write an augmentation manifest")
    p_plan.add_argument("keys", type=Path, help="file with one sample key per line")
    _add_setting(p_plan, "technique")
    p_plan.set_defaults(func=cmd_plan)

    p_score = sub.add_parser("score", help="corpus CIDEr-D per blur level")
    p_score.add_argument("dataset", type=Path, help="caption JSON")
    p_score.add_argument("predictions", type=Path, help="prediction JSON")
    _add_setting(p_score, "technique")
    p_score.add_argument("--flags", type=Path, default=None,
                         help="blur-flag CSV for MB0 subset scores")
    for name in ("sigma", "max_n", "scale"):
        _add_setting(p_score, name)
    p_score.set_defaults(func=cmd_score)

    p_report = sub.add_parser("report", help="degradation tables and histograms")
    p_report.add_argument("scores", type=Path, help="scores CSV")
    p_report.add_argument("features", type=Path, help="feature-count CSV")
    p_report.add_argument("--flags", type=Path, default=None,
                          help="blur-flag CSV; enables the subset table")
    _add_setting(p_report, "bin_width")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_config(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
