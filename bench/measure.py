"""The measured process: one client, a closed loop of blurbench CLI calls.

Runs `blurbench.cli.main` in-process on argv lists, stdout and stderr
captured, one call after another with no other threads. Only the call
itself is timed, and scaled to the reference host by the speed loops run
right before and after it (speed.py); its outputs are checked after the
clock stops. Checks too heavy for this process (they would raise its
peak RSS) are returned to the caller as ``deferred``.

Usage: python3 bench/measure.py <workload> <seed> <seconds> <trace 0|1>
                                <inputs dir> <result.json>
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import blurbench.cli  # noqa: E402
import blurbench.schedule  # noqa: E402

from checks import TAPS, check_blur, check_report, read_scores  # noqa: E402
from gen import TECHNIQUES  # noqa: E402
from speed import Ticks, loop_times, scaled, speed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

LEVELS = tuple(TAPS)
#: Probe call counts. Blur and report calls are sampled well beyond the
#: 100 that give p90 ten samples past it, since probes are short and
#: their tails noisy.
PROBE_BLUR_PASSES = 30  # x 4 probe rasters = 120 calls
PROBE_REPORT_CALLS = 120
PROBE_SCORE_CALLS = 10
PROBE_PLAN_ROUNDS = 4  # x 4 techniques
REPORTS_PER_PLAN = 28  # plan_report: 4 plans give 112 report calls
#: Reads of each planned manifest, as a loader reads it once per epoch.
MANIFEST_READS = 2


class Client:
    """Issues CLI calls, times them, checks their outputs, keeps tallies."""

    def __init__(self, inputs: Path, work: Path, seed: int):
        self.inputs = inputs
        self.work = work
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.tracer: Tracer | None = None
        #: scaled seconds per operation kind
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: host speed around each timed operation, per kind of work
        self.speeds: dict[str, list[float]] = defaultdict(list)
        self.pass_rates: list[float] = []  # megapixels per scaled second
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deferred: list[dict] = []
        self._first: dict[tuple, str] = {}
        self._pass: list[tuple[float, float | None]] = []

    # -- bookkeeping -------------------------------------------------------

    def _start_op(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.call_id = self.attempted

    def _finish(self, kind: str, seconds: float | None, problems: list[str]) -> bool:
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
            return False
        if seconds is not None:
            self.samples[kind].append(seconds)
        return True

    def _timed(self, operation: Callable[[], object],
               work: str) -> tuple[object, float]:
        """Run `operation` with the speed loops of its kind of `work`
        before, during (outside traced runs) and after it; (its result,
        its scaled seconds). A full collection first gives every call the
        fresh garbage-collector state of a new CLI process, whatever the
        calls before it left behind."""
        gc.collect()
        before = loop_times(work)
        ticks = Ticks(work)
        with ticks if self.tracer is None else nullcontext():
            start = time.perf_counter()
            value = operation()
            end = time.perf_counter()
        after = loop_times(work)
        self.speeds[work].append(speed(work, before, ticks.times, after))
        seconds = end - start - ticks.stolen(start, end)
        return value, scaled(seconds, work, before, ticks.times, after)

    def _same_as_first(self, key: tuple, content: bytes) -> list[str]:
        """Empty on the first sight of `key` or when content matches it."""
        digest = hashlib.sha256(content).hexdigest()
        first = self._first.setdefault(key, digest)
        return [] if first == digest else [f"{key}: output differs from first call"]

    def cli(self, argv: list[str], work: str = "interpreter"
            ) -> tuple[float | None, list[str]]:
        """Time one `blurbench.cli.main(argv)` call, scaled as `work`;
        (scaled seconds, problems)."""
        self._start_op()
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                return blurbench.cli.main(argv)
            except (Exception, SystemExit) as exc:
                return f"{type(exc).__name__}: {exc}"

        with redirect_stdout(out), redirect_stderr(err):
            code, seconds = self._timed(call, work)
        if code != 0:
            return None, [f"{argv[-1]}: exit {code}: {err.getvalue().strip()[:200]}"]
        return seconds, []

    # -- operations --------------------------------------------------------

    def blur(self, raster: Path, out: Path) -> None:
        """One `blur <file>` call, counted towards the current pass."""
        seconds, problems = self.cli(["--out", str(out), "blur", str(raster)],
                                     work="array")
        source = raster.read_bytes()
        outputs = {}
        for level in LEVELS:
            target = out / f"{raster.stem}.{level}{raster.suffix}"
            if target.exists():
                outputs[level] = target.read_bytes()
                target.unlink()
        if not problems:
            key = ("blur", str(raster))
            if key not in self._first:
                problems = [f"{raster.name} {p}"
                            for p in check_blur(source, outputs, self.rng)]
            problems += self._same_as_first(key, b"".join(outputs.values()))
        ok = self._finish("blur", seconds, problems)
        width, height = source.split(maxsplit=3)[1:3]
        self._pass.append((int(width) * int(height) / 1e6, seconds if ok else None))

    def end_pass(self) -> None:
        """Close a pass over a raster set; its throughput counts if every
        call in it succeeded."""
        calls, self._pass = self._pass, []
        if calls and all(seconds is not None for _, seconds in calls):
            self.pass_rates.append(sum(mp for mp, _ in calls)
                                   / sum(seconds for _, seconds in calls))

    def score(self, split: Path, out: Path, counted: bool = True,
              oracle: bool = True) -> None:
        """One `score` call. The oracle costs about as much as the call, so
        a split too large for it is only checked for plausibility here."""
        argv = ["--out", str(out), "score", str(split / "dataset.json"),
                str(split / "predictions.json"), "--flags", str(split / "flags.csv")]
        seconds, problems = self.cli(argv, work="bulk")
        if not problems:
            text = (out / "scores.csv").read_text()
            key = ("score", str(split))
            if key not in self._first:
                problems = score_sanity(text)
                if oracle:
                    self.deferred.append({"check": "score", "split": str(split),
                                          "scores": text})
            problems += self._same_as_first(key, text.encode())
        self._finish("score", seconds if counted else None, problems)

    def plan(self, keys: Path, technique: str, n_keys: int,
             roundtrip: bool = True) -> None:
        """`plan` for one technique, then the manifest reads a loader does,
        one per epoch.

        Every manifest is checked for its seed, technique and size, and
        against its first copy; with `roundtrip`, the caller also compares
        it with `plan_dataset`'s result.
        """
        out = self.work / "plan" / technique
        seconds, problems = self.cli(
            ["--seed", str(self.seed), "--out", str(out), "plan", str(keys),
             "--technique", technique], work="bulk")
        self._finish("plan", seconds, problems)
        if problems:
            return
        manifest = out / "manifest.jsonl"
        key = ("plan", str(keys), technique)
        if roundtrip and key not in self._first:
            self.deferred.append({"check": "plan", "keys": str(keys),
                                  "technique": technique, "seed": self.seed,
                                  "manifest": str(manifest)})
        for _ in range(MANIFEST_READS):
            self._read_manifest(manifest, key, technique, n_keys)

    def _read_manifest(self, manifest: Path, key: tuple, technique: str,
                       n_keys: int) -> None:
        """One timed manifest read, checked; it keeps nothing it read, so
        a later read does not add to the peak memory."""
        self._start_op()

        def read():
            text = manifest.read_text()
            try:
                return text, blurbench.schedule.read_manifest(text)
            except ValueError as exc:
                return text, exc

        (text, loaded), seconds = self._timed(read, "interpreter")
        problems = self._same_as_first(key, text.encode())
        if isinstance(loaded, ValueError):
            problems.append(f"plan {technique}: read_manifest: {loaded}")
        elif (len(loaded.entries) != 2 * n_keys or loaded.seed != self.seed
                or loaded.plan.name.value != technique):
            problems.append(f"plan {technique}: manifest header or size wrong")
        self._finish("manifest_read", seconds, problems)

    def report(self, inputs: Path, out: Path) -> None:
        seconds, problems = self.cli(
            ["--out", str(out), "report", str(inputs / "scores.csv"),
             str(inputs / "features.csv"), "--flags", str(inputs / "flags.csv")])
        if not problems:
            problems = check_report((inputs / "scores.csv").read_text(), out)
        self._finish("report", seconds, problems)


def score_sanity(text: str) -> list[str]:
    """Six finite rows in [0, 10], falling from MB0 to MB3."""
    try:
        rows = read_scores(text)
    except ValueError as exc:
        return [f"scores: {exc}"]
    levels = [rows.get(("No-Aug", level), math.nan) for level in LEVELS]
    values = list(rows.values())
    if (len(rows) != 6 or not all(0.0 <= v <= 10.0 for v in values)
            or not all(a > b for a, b in zip(levels, levels[1:]))):
        return [f"scores: implausible rows {rows}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def spread(*lists: list) -> list:
    """Merge lists so that each one's items are spaced evenly through the
    result."""
    keyed = [((i + 0.5) / len(items), k, item)
             for k, items in enumerate(lists) for i, item in enumerate(items)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


class Workload:
    """Primary steps stress one part of the program. Probes are a fixed
    number of small calls of the other subcommands, so that every
    end-to-end metric exists on every workload; they are interleaved with
    the primary steps, so their samples span the run as those do."""

    #: Primary rounds a run makes at least, and exactly in a traced run.
    min_rounds = 1
    trace_rounds = 1

    def __init__(self, client: Client):
        self.client = client
        self.inputs = client.inputs
        self.out = client.work / "out"
        self.rasters = [self.inputs / "rasters" / name for name in
                        json.loads((self.inputs / "rasters.json").read_text())]
        self.n_keys = len((self.inputs / "keys.txt").read_text().split())

    def steps(self, index: int) -> list[Callable[[], None]]:
        """The primary steps of round `index`."""
        raise NotImplementedError

    def probes(self) -> list[Callable[[], None]]:
        raise NotImplementedError

    def blur_pass(self) -> list[Callable[[], None]]:
        return [partial(self.client.blur, raster, self.out)
                for raster in self.rasters] + [self.client.end_pass]

    def scores(self, calls: int) -> list[Callable[[], None]]:
        return [partial(self.client.score, self.inputs / "split", self.out)] * calls

    def plans(self) -> list[Callable[[], None]]:
        return [partial(self.client.plan, self.inputs / "keys.txt", technique,
                        self.n_keys) for technique in TECHNIQUES] * PROBE_PLAN_ROUNDS

    def reports(self, calls: int) -> list[Callable[[], None]]:
        return [partial(self.client.report, self.inputs / "report", self.out)] * calls


class BlurRasters(Workload):
    """One `blur <file>` call per raster, all four levels, in seeded order.

    Mostly 640x480 RGB PPM, some PGM, and one 4000x3000 RGB raster per
    pass (under a tenth of the calls). `imaging` does almost all the work;
    the large raster pushes the working set far past the caches and sets
    peak memory, the small ones expose fixed per-call cost. Pixel content
    does not change the cost: the blur is branch-free integer arithmetic.
    """

    min_rounds = 2  # >= 100 calls, and a second pass to compare bytes with

    def steps(self, index):
        return self.blur_pass()

    def probes(self):
        return spread(self.scores(PROBE_SCORE_CALLS), self.plans(),
                      self.reports(PROBE_REPORT_CALLS))


class ScoreSplit(Workload):
    """`score dataset.json predictions.json --flags flags.csv` on a split
    shaped like the Karpathy test split: 5 000 images, 5 references each,
    one prediction per image per level, about 30% flagged with_blur.

    `cider` and JSON `ingest` do almost all the work. The four levels and
    two subset rows score the same references six times, so a change that
    compiles references or idf once shows here.
    """

    def steps(self, index):
        return [partial(self.client.score, self.inputs / "split", self.out,
                        oracle=False)]

    def probes(self):
        return spread(sum((self.blur_pass() for _ in range(PROBE_BLUR_PASSES)), []),
                      self.plans(), self.reports(PROBE_REPORT_CALLS))

    def check_sample(self):
        """Untimed call on a seeded sample of the split, for the oracle."""
        self.client.score(self.inputs / "split_sample", self.client.work / "sample",
                          counted=False)


class PlanReport(Workload):
    """`plan` for each technique over a 113 287-key list (Karpathy train
    size), each manifest read back with `read_manifest` as a training
    loader does, and repeated `report` calls on a four-technique scores
    CSV, a 5 000 x 4-row feature-count CSV and flags.

    `schedule`, CSV `ingest` and `report` do the work. MB-sized manifest
    writes (through the CLI's atomic write) sit beside manifest reads, so
    a change to shared code that helps one and costs the other shows.
    """

    min_rounds = trace_rounds = len(TECHNIQUES)

    def steps(self, index):
        technique = TECHNIQUES[index % len(TECHNIQUES)]
        # the round-trip check costs more than the call: one seeded
        # technique per run gets it
        plan = partial(self.client.plan, self.inputs / "keys.txt", technique,
                       self.n_keys, roundtrip=technique ==
                       TECHNIQUES[self.client.seed % len(TECHNIQUES)])
        return [plan] + self.reports(REPORTS_PER_PLAN)

    def probes(self):
        return spread(sum((self.blur_pass() for _ in range(PROBE_BLUR_PASSES)), []),
                      self.scores(PROBE_SCORE_CALLS))


WORKLOADS = {"blur_rasters": BlurRasters, "score_split": ScoreSplit,
             "plan_report": PlanReport}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(client: Client) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) per end-to-end metric."""
    s = client.samples
    rates = client.pass_rates
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "peak_rss_mb": (rss_mb, "MB", 1),
        "blur_p50_ms": (statistics.median(s["blur"]) * 1e3, "ms", len(s["blur"])),
        "blur_p90_ms": (percentile(s["blur"], 0.9) * 1e3, "ms", len(s["blur"])),
        "blur_mpix_per_s": (statistics.median(rates), "Mpix/s", len(rates)),
        "score_s": (statistics.median(s["score"]), "s", len(s["score"])),
        "plan_s": (statistics.median(s["plan"]), "s", len(s["plan"])),
        "manifest_read_s": (statistics.median(s["manifest_read"]), "s",
                            len(s["manifest_read"])),
        "report_p50_ms": (statistics.median(s["report"]) * 1e3, "ms",
                          len(s["report"])),
        "report_p90_ms": (percentile(s["report"], 0.9) * 1e3, "ms",
                          len(s["report"])),
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        inputs: Path, work: Path) -> dict:
    client = Client(inputs, work, seed)
    workload = WORKLOADS[workload_name](client)
    result: dict = {}
    if traced:
        def timed_rounds():
            """Scaled seconds spent inside the rounds' timed operations."""
            before = sum(map(sum, client.samples.values()))
            for index in range(workload.trace_rounds):
                for step in workload.steps(index):
                    step()
            return sum(map(sum, client.samples.values())) - before

        plain = timed_rounds()
        tracer = client.tracer = Tracer()
        tracer.install()
        try:
            with_trace = timed_rounds()
        finally:
            tracer.uninstall()
            client.tracer = None
        spans = [s for s in tracer.spans if s is not None]
        layers = layer_metrics(spans)
        layers["trace.overhead_ratio"] = (with_trace - plain) / plain
        result["per_layer"] = layers
        result["spans"] = spans
    else:
        probes = workload.probes()
        total = len(probes)
        planned = workload.min_rounds * len(workload.steps(0))
        done = 0
        start = time.perf_counter()
        rounds = 0
        while True:
            for step in workload.steps(rounds):
                # probes keep pace with the primary steps of the minimum rounds
                while probes and total - len(probes) < total * (done + 0.5) / planned:
                    probes.pop(0)()
                step()
                done += 1
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= workload.min_rounds and (
                    elapsed * (rounds + 1) / rounds > seconds):
                break
        for probe in probes:
            probe()
        result["end_to_end"] = end_to_end(client)
    if isinstance(workload, ScoreSplit):
        workload.check_sample()
    result.update(host_speed={work: statistics.median(speeds)
                              for work, speeds in client.speeds.items()},
                  attempted=client.attempted, failed=client.failed,
                  problems=client.problems[:20], deferred=client.deferred)
    return result


def write_spans(spans, path: Path) -> None:
    """One JSON array per span: name, start, end, parent, call id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for span in spans:
            handle.write(json.dumps(list(span[:5])) + "\n")


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, inputs, result_path = argv
    result = run(workload, int(seed), float(seconds), trace == "1",
                 Path(inputs), Path(result_path).parent / "work")
    spans = result.pop("spans", None)
    if spans is not None:
        write_spans(spans, ROOT / ".bench_out" / f"trace-{workload}-{seed}.jsonl.gz")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
