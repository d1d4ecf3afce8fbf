"""Command-line workflow: blur generation, planning, scoring, reporting.

Commands::

    blurbench blur <input file|dir> [--levels MB0,MB2] [--out DIR]
    blurbench plan <keys.txt> --technique ObjDet-Cap-Aug [--seed N] [--out DIR]
    blurbench score <dataset.json> <predictions.json> [--technique NAME]
                    [--flags flags.csv] [--out DIR]
    blurbench report <scores.csv> <features.csv> [--flags flags.csv]
                     [--bin-width N] [--out DIR]

Configuration precedence is flags > config file (--config, flat
``key = value`` lines) > the BLURBENCH_SEED environment variable (seed
only) > built-in defaults. Config-file and environment values go through
the same checks as the matching flags, and unknown config keys are
rejected. The effective seed is echoed in every output header. All files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .cider import CiderConfig, build_idf, corpus_cider_d
from .imaging import BlurLevel, apply_blur, load_image, make_kernel, save_image
from .ingest import (
    BlurFlag,
    filter_by_blur_flag,
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_predictions,
)
from .report import (
    FORMATS,
    build_histograms,
    check_format,
    degradation_deltas,
    degradation_warnings,
    parse_scores_csv,
    render_deltas,
    render_histograms,
    render_score_table,
    render_subset_table,
)
from .schedule import parse_technique, plan_dataset, technique_plan, write_manifest

DEFAULT_SEED = 0
SEED_ENV_VAR = "BLURBENCH_SEED"


@dataclass
class RunConfig:
    """Effective settings after flag/config/env resolution."""

    seed: int = DEFAULT_SEED
    technique: str = "No-Aug"
    out: Path = Path(".")
    bin_width: int = 10
    format: str = "markdown"
    sigma: float = 6.0
    max_n: int = 4
    scale: float = 10.0


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {raw!r}; expected key = value")
        values[key.strip()] = value.strip()
    return values


#: RunConfig field -> converter of its config-file or environment text, as
#: strict as the field's flag; each raises ValueError.
_CONVERTERS = {
    "seed": int,
    "technique": lambda text: parse_technique(text).value,
    "out": Path,
    "bin_width": int,
    "format": check_format,
    "sigma": float,
    "max_n": int,
    "scale": float,
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_CONVERTERS))
    if unknown:
        raise ValueError(f"unknown config key(s) in {args.config}: "
                         f"{', '.join(unknown)}")
    env_values = {"seed": os.environ.get(SEED_ENV_VAR) or None}
    values = {}
    for name, convert in _CONVERTERS.items():
        flag = getattr(args, name, None)
        text = file_values.get(name, env_values.get(name))
        if flag is not None:
            values[name] = flag
        elif text is not None:
            values[name] = convert(text)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_blur(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.input.is_dir():
        files = sorted(p for p in args.input.iterdir()
                       if p.suffix.lower() in (".pgm", ".ppm"))
    elif args.input.exists():
        files = [args.input]
    else:
        print(f"error: no such input {args.input}", file=sys.stderr)
        return 1
    if not files:
        print(f"warning: no PGM/PPM files in {args.input}", file=sys.stderr)
        return 0

    failures = 0
    for path in files:
        written = 0
        try:
            img = load_image(path.read_bytes())
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        for level in args.levels:
            try:
                variant = apply_blur(img, make_kernel(level))
            except ValueError as exc:
                print(f"error: {path} at {level.name}: {exc}", file=sys.stderr)
                failures += 1
                continue
            target = cfg.out / f"{path.stem}.{level.name}{path.suffix}"
            _atomic_write(target, save_image(variant))
            written += 1
        print(f"{path}: wrote {written} variant(s) to {cfg.out}")
    return 1 if failures else 0


def cmd_plan(args: argparse.Namespace, cfg: RunConfig) -> int:
    keys = [line.strip() for line in
            args.keys.read_text(encoding="utf-8").splitlines() if line.strip()]
    plan = technique_plan(cfg.technique)
    manifest = plan_dataset(keys, plan, cfg.seed)
    target = cfg.out / "manifest.jsonl"
    _atomic_write(target, write_manifest(manifest).encode("utf-8"))
    print(f"wrote {target}: technique={plan.name.value} seed={cfg.seed} "
          f"entries={len(manifest.entries)}")
    return 0


def cmd_score(args: argparse.Namespace, cfg: RunConfig) -> int:
    dataset = parse_captions(args.dataset.read_bytes())
    preds = parse_predictions(args.predictions.read_bytes())
    metric = CiderConfig(max_n=cfg.max_n, sigma=cfg.sigma, scale=cfg.scale)
    idf = build_idf(dataset, metric.max_n)

    lines = [f"# seed={cfg.seed}", "technique,level,score"]
    for level in preds.levels():
        score = corpus_cider_d(preds, dataset, level, metric, idf=idf)
        lines.append(f"{cfg.technique},{level.name},{score}")
        print(f"{cfg.technique} {level.name}: {score:.4f}")
    if args.flags is not None:
        annotation = parse_blur_flags(args.flags.read_bytes())
        for flag in BlurFlag:
            subset = filter_by_blur_flag(dataset, annotation, flag)
            if not subset.images:
                print(f"warning: no images flagged {flag.value}; "
                      f"subset row skipped", file=sys.stderr)
                continue
            score = corpus_cider_d(preds, subset, BlurLevel.MB0, metric)
            lines.append(f"{cfg.technique},{flag.value},{score}")
            print(f"{cfg.technique} {flag.value} (MB0): {score:.4f}")

    target = cfg.out / "scores.csv"
    _atomic_write(target, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {target}")
    return 0


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    table = parse_scores_csv(args.scores.read_text(encoding="utf-8"))
    for warning in degradation_warnings(table):
        print(f"warning: {warning}", file=sys.stderr)
    deltas = degradation_deltas(table)

    seed_line = f"# seed={cfg.seed}\n"
    outputs = {
        "score_table.md": render_score_table(table, "markdown"),
        "score_table.csv": seed_line + render_score_table(table, "csv"),
        "degradation.md": render_deltas(deltas, "markdown"),
        "degradation.csv": seed_line + render_deltas(deltas, "csv"),
    }
    records = parse_feature_counts(args.features.read_bytes())
    for hist in build_histograms(records, cfg.bin_width):
        outputs[f"histogram_{hist.level.name}.csv"] = (
            seed_line + render_histograms([hist], "csv"))
    if args.flags is not None:
        annotation = parse_blur_flags(args.flags.read_bytes())
        with_blur = sum(1 for f in annotation.flags.values()
                        if f is BlurFlag.WITH_BLUR)
        print(f"flags: {with_blur} with_blur, "
              f"{len(annotation.flags) - with_blur} no_blur")
        outputs["subset_table.md"] = render_subset_table(table, "markdown")
        outputs["subset_table.csv"] = seed_line + render_subset_table(table, "csv")

    for name, text in outputs.items():
        _atomic_write(cfg.out / name, text.encode("utf-8"))
    print(f"wrote {len(outputs)} file(s) to {cfg.out}")
    print(render_score_table(table, cfg.format), end="")
    print(render_deltas(deltas, cfg.format), end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _levels_argument(text: str) -> list[BlurLevel]:
    levels: list[BlurLevel] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            level = BlurLevel[token]
        except KeyError:
            raise argparse.ArgumentTypeError(
                f"unknown level {token!r}; expected MB0..MB3") from None
        if level not in levels:
            levels.append(level)
    if not levels:
        raise argparse.ArgumentTypeError("no blur levels given")
    return levels


def _technique_argument(text: str) -> str:
    try:
        return parse_technique(text).value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blurbench",
        description="Motion-blur robustness toolkit: blur variants, "
                    "augmentation manifests, CIDEr-D scores, reports.")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"sampling seed (default {DEFAULT_SEED}; also "
                             f"{SEED_ENV_VAR} env var)")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default .)")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="stdout rendering format for report")
    sub = parser.add_subparsers(dest="command", required=True)

    p_blur = sub.add_parser("blur", help="write blur variants of PGM/PPM images")
    p_blur.add_argument("input", type=Path, help="image file or directory")
    p_blur.add_argument("--levels", type=_levels_argument,
                        default=list(BlurLevel),
                        help="comma-separated levels (default all)")
    p_blur.set_defaults(func=cmd_blur)

    p_plan = sub.add_parser("plan", help="write an augmentation manifest")
    p_plan.add_argument("keys", type=Path, help="file with one sample key per line")
    p_plan.add_argument("--technique", type=_technique_argument, default=None)
    p_plan.set_defaults(func=cmd_plan)

    p_score = sub.add_parser("score", help="corpus CIDEr-D per blur level")
    p_score.add_argument("dataset", type=Path, help="caption JSON")
    p_score.add_argument("predictions", type=Path, help="prediction JSON")
    p_score.add_argument("--technique", type=_technique_argument, default=None)
    p_score.add_argument("--flags", type=Path, default=None,
                         help="blur-flag CSV for MB0 subset scores")
    p_score.add_argument("--sigma", type=float, default=None)
    p_score.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_score.add_argument("--scale", type=float, default=None)
    p_score.set_defaults(func=cmd_score)

    p_report = sub.add_parser("report", help="degradation tables and histograms")
    p_report.add_argument("scores", type=Path, help="scores CSV")
    p_report.add_argument("features", type=Path, help="feature-count CSV")
    p_report.add_argument("--flags", type=Path, default=None,
                          help="blur-flag CSV; enables the subset table")
    p_report.add_argument("--bin-width", dest="bin_width", type=int, default=None)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
