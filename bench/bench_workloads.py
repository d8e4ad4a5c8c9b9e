"""The benchmark's workloads: set-up, the timed public-API call, and checks.

Each workload drives only the package's public API (``run_experiment``,
``prepare``, ``save``/``load`` through ``run_experiment``'s artifacts,
``pipeline_predict``) and always calls it through its module attribute, so
the tracer's wrappers see the call. All inputs come from the package's
synthetic generator, seeded by the benchmark seed.

Why these workloads (the 1-NN base is left out: its error-proxy forest trains
on all-zero labels today, so every tree is one leaf and a timing would
measure that defect):

* quickstart-run: the README quick-start config through ``run_experiment``
  with both variants, on three seeds per call; the nn training loop is ~99%
  of it. Early stopping is disabled (patience == max_epochs) so every seed
  trains the same number of epochs and run time does not depend on when the
  validation loss plateaus.
* prepare-predict: three parts, called in turn.

  - prepare-scale: ``prepare`` alone with the svm base at 200k rows per
    class; the front half at scale (svm fit, synth, splits, data,
    thresholding).
  - prepare-forest: ``prepare`` alone with the forest base; the only part
    that grows trees.
  - predict-bulk: ``pipeline_predict`` on a fresh batch with the loaded
    guided archive and then the loaded classic one; the nn layers in eval
    mode. A quarter of every batch lies between the thresholds, so each seed
    sends the same number of rows to the networks. Which rows are routed
    depends only on the base and the thresholds, so the short fit in set-up
    does not change the work.

  The parts share one workload so that each run can be long: on a shared
  2-vCPU VM, runs of 25 s still spread by 9-19% between seeds, so the
  benchmark has two workloads with long runs rather than four short ones.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from guidedboost import persistence, pipeline
from guidedboost.harness import experiment
from guidedboost.harness.config import SyntheticSpec, config_from_dict
from guidedboost.harness.synth import generate_synthetic

N_FEATURES = 12
# offset that keeps the prediction batch's generator seed apart from the
# training data's, so the batch rows are never seen by the fit
BATCH_SEED_OFFSET = 1_000_003
# share of each prediction batch routed to the networks: the quick-start base
# routes about this much of fresh data (25.8% over 200k rows at seed 0)
ROUTED_SHARE = 0.25
# leading batch rows on which every call must agree with the in-memory pipeline
CHECK_ROWS = 20_000
METRICS_HEADER = [
    "predictor", "scope", "n", "accuracy", "f1", "errors", "delta_errors",
    "errors_reduction_pct",
]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the CLI always uses FULL."""

    quick_rows: int = 2000          # rows per class, as in the README quick start
    quick_runs: int = 3             # quick-start runs (seeds) per quickstart-run call
    quick_epochs: int = 5           # epochs of every network in quickstart-run
    scale_rows: int = 200_000       # rows per class in prepare-scale
    forest_rows: int = 20_000       # rows per class in prepare-forest
    forest_trees: int = 10
    bulk_rows: int = 50_000         # rows per class of the prediction batch
    bulk_fit_epochs: int = 2        # epochs of the short fit behind predict-bulk
    setup_repeats: int = 5
    min_calls: int = 3


FULL = Sizes()


@dataclass
class Outcome:
    """What checking one call found; rows is the work the call completed."""

    failures: list[str]
    digests: dict[str, str]
    outputs: dict
    rows: int


@dataclass
class State:
    """Inputs made by set-up, plus whatever the checks cache between calls."""

    input_rows: int
    tmp: Path | None = None
    digest: str | None = None
    extra: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def array_digest(*arrays: np.ndarray) -> str:
    return sha256(*(np.ascontiguousarray(a).tobytes() for a in arrays))


def archive_digest(path: Path) -> str:
    """Digest of an archive's members.

    Zip timestamps and the manifest's run metadata (which holds the out_dir
    path) are left out, so equal models give equal digests wherever they
    were written.
    """
    chunks = []
    with zipfile.ZipFile(path) as zf:
        for name in sorted(zf.namelist()):
            raw = zf.read(name)
            if name == "manifest.json":
                manifest = json.loads(raw)
                manifest.pop("metadata", None)
                raw = json.dumps(manifest, sort_keys=True).encode()
            chunks.append(name.encode() + raw)
    return sha256(*chunks)


def quickstart_config(seed: int, rows: int, epochs: int, out_dir: str | None):
    """The README quick-start config with a fixed epoch count."""
    return config_from_dict({
        "data": {"synthetic": {"n_per_class": rows, "n_features": N_FEATURES, "seed": seed}},
        "base": {"kind": "svm", "params": {}},
        "tolerance": {"X": 5.0, "Y": 5.0},
        "fractions": [0.8, 0.1, 0.1],
        "encoder_widths": [256, 128, 64, 32],
        "projection_widths": [16, 8],
        "train": {"max_epochs": epochs, "patience": epochs, "learning_rate": 0.003},
        "feature_top_k": 0,
        "seed": seed,
        "out_dir": out_dir,
    })


def easy_mask(probs: np.ndarray, th) -> np.ndarray:
    """The routing rule, restated: outside the thresholds, 0.5 on the positive side."""
    return ((probs <= th.th_n) & (probs < 0.5)) | (probs >= th.th_p)


def routing_failures(tag: str, pipe, X: np.ndarray, labels, routes) -> list[str]:
    """Every row routed exactly once, as the thresholds say; easy rows keep the base label."""
    n = len(X)
    if np.shape(labels) != (n,) or np.shape(routes) != (n,):
        return [f"{tag}: {np.shape(labels)} labels and {np.shape(routes)} routes for {n} rows"]
    failures = []
    is_base = routes == pipeline.ROUTE_BASE
    unrouted = int((~is_base & (routes != pipeline.ROUTE_AUXILIARY)).sum())
    if unrouted:
        failures.append(f"{tag}: {unrouted} rows carry no known route")
    if not np.isin(labels, (0, 1)).all():
        failures.append(f"{tag}: labels outside {{0, 1}}")
    Xs = X if pipe.feature_selection is None else X[:, pipe.feature_selection]
    easy = easy_mask(pipe.base.routing_probabilities(Xs), pipe.thresholds)
    if not np.array_equal(is_base, easy):
        wrong = int((is_base != easy).sum())
        failures.append(f"{tag}: {wrong} routes disagree with the thresholds")
    base_labels = (pipe.base.predict_probabilities(Xs) >= 0.5).astype(np.int64)
    if not np.array_equal(labels[easy], base_labels[easy]):
        failures.append(f"{tag}: base-routed rows do not keep the base prediction")
    return failures


class QuickstartRun:
    """The README quick start on quick_runs seeds in a row, as one call.

    The difficult set is calibrated on a 400-row validation split, so its size
    moves by about a tenth from seed to seed, and the training work with it.
    The rows a call completes are therefore the difficult training rows the
    networks train on, summed over the runs: over five seeds, the call time
    per such row spread over 6%, per input row over 15%.
    """

    name = "quickstart-run"
    root_spans = ("harness.experiment.run_experiment",)

    def __init__(self, sizes: Sizes, scratch: Path):
        self.sizes, self.scratch = sizes, scratch

    def setup(self, seed: int) -> State:
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        runs = []
        for k in range(self.sizes.quick_runs):
            cfg = quickstart_config(seed * self.sizes.quick_runs + k, self.sizes.quick_rows,
                                    self.sizes.quick_epochs, str(tmp / f"run{k}"))
            runs.append((cfg, generate_synthetic(cfg.synthetic)))
        rows = sum(data.n_samples for _, data in runs)
        return State(input_rows=rows, tmp=tmp, extra={"runs": runs})

    def call(self, st: State):
        return [experiment.run_experiment(cfg) for cfg, _ in st.extra["runs"]]

    def check(self, st: State, results) -> Outcome:
        failures, outputs, digests, rows = [], {}, {}, 0
        for k, ((cfg, data), result) in enumerate(zip(st.extra["runs"], results)):
            run_failures, run_digests, summary = check_quickstart_run(Path(cfg.out_dir), data,
                                                                      result)
            failures += [f"run {k}: {f}" for f in run_failures]
            digests.update({f"run{k}.{name}": d for name, d in run_digests.items()})
            outputs[f"run{k}"] = {key: summary.get(key) for key in (
                "guided_combined_errors", "classic_combined_errors", "base_test_errors",
                "difficult_sizes",
            )}
            rows += summary["difficult_sizes"]["train"]
        return Outcome(failures, digests, outputs, rows)


def check_quickstart_run(out: Path, data, result) -> tuple[list[str], dict, dict]:
    """Artifacts parse, retraining ran, and the saved archives predict as in memory."""
    metrics_raw = (out / "metrics.csv").read_bytes()
    summary_raw = (out / "summary.json").read_bytes()
    failures = []
    reader = csv.DictReader(io.StringIO(metrics_raw.decode()))
    table = list(reader)
    if reader.fieldnames != METRICS_HEADER or not table:
        failures.append(f"metrics.csv: header {reader.fieldnames}, {len(table)} rows")
        table = []
    for r in table:
        try:
            int(r["n"]), float(r["accuracy"]), float(r["f1"]), int(r["errors"])
        except (TypeError, ValueError):
            failures.append(f"metrics.csv: unparsable row {r}")
    summary = json.loads(summary_raw)
    if summary.get("skipped") is not None:
        failures.append(f"retraining skipped: {summary['skipped']}")
    predictions, archives = [], []
    for variant in ("guided", "classic"):
        memory = getattr(result, variant)
        if not isinstance(summary.get(f"{variant}_combined_errors"), int) or memory is None:
            failures.append(f"{variant}: no retrained pipeline")
            continue
        archive = out / f"pipeline_{variant}.zip"
        labels, routes = pipeline.pipeline_predict(persistence.load(archive), data)
        mem_labels, mem_routes = pipeline.pipeline_predict(memory, data)
        failures += routing_failures(variant, memory, data.values, labels, routes)
        if not (np.array_equal(labels, mem_labels) and np.array_equal(routes, mem_routes)):
            failures.append(f"{variant}: saved archive predicts differently from memory")
        predictions += [labels, routes]
        archives.append(archive_digest(archive).encode())
    shutil.rmtree(out)
    digests = {
        "metrics.csv": sha256(metrics_raw),
        "summary.json": sha256(summary_raw),
        "archives": sha256(*archives),
        "archive_predictions": array_digest(*predictions),
    }
    return failures, digests, summary


class PrepareOnly:
    root_spans = ("harness.experiment.prepare",)

    def __init__(self, name: str, base: str, rows: int, params: dict):
        self.name, self.base, self.rows, self.params = name, base, rows, params

    def setup(self, seed: int) -> State:
        cfg = config_from_dict({
            "data": {"synthetic": {"n_per_class": self.rows, "n_features": N_FEATURES,
                                   "seed": seed}},
            "base": {"kind": self.base, "params": self.params},
            "seed": seed,
        })
        return State(input_rows=2 * self.rows, extra={"cfg": cfg})

    def call(self, st: State):
        return experiment.prepare(st.extra["cfg"])

    def check(self, st: State, prep) -> Outcome:
        th = prep.thresholds
        failures = []
        if not (0.0 <= th.th_n <= 0.5 <= th.th_p <= 1.0):
            failures.append(f"thresholds out of order: {th}")
        sizes, chunks = {}, [th.th_n.hex().encode(), th.th_p.hex().encode()]
        for split, part, difficult in (
            ("train", prep.train, prep.difficult_train),
            ("validation", prep.val, prep.difficult_val),
            ("test", prep.test, prep.difficult_test),
        ):
            assignment = prep.assignments[split]
            if assignment.easy_ids & assignment.difficult_ids:
                failures.append(f"{split}: easy and difficult sets overlap")
            if assignment.easy_ids | assignment.difficult_ids != set(part.ids.tolist()):
                failures.append(f"{split}: easy and difficult sets do not cover the split")
            expected = part.ids[~easy_mask(prep.routing[split], th)]
            if set(expected.tolist()) != assignment.difficult_ids:
                failures.append(f"{split}: difficult set disagrees with the thresholds")
            if set(difficult.ids.tolist()) != assignment.difficult_ids:
                failures.append(f"{split}: difficult rows differ from the difficult ids")
            sizes[split] = len(assignment.difficult_ids)
            chunks.append(np.sort(expected).tobytes())
        chunks.append(json.dumps(sizes, sort_keys=True).encode())
        outputs = {"th_n": th.th_n, "th_p": th.th_p, "difficult_sizes": sizes}
        return Outcome(failures, {"thresholds+difficult": sha256(*chunks)}, outputs,
                       st.input_rows)


def routed_batch(pipe, seed: int, n: int):
    """n fresh rows of which exactly ROUTED_SHARE fall between the thresholds.

    The thresholds come from a 400-row validation split, so the share of a
    raw batch that reaches the networks swings by about a fifth from seed to
    seed; drawing the batch from a pool with that share fixed keeps the work
    of a call the same for every seed. Rows keep a seeded random order.
    """
    pool = generate_synthetic(SyntheticSpec(
        n_per_class=n, n_features=N_FEATURES, seed=seed + BATCH_SEED_OFFSET,
    ))
    X = pool.values
    if pipe.feature_selection is not None:
        X = X[:, pipe.feature_selection]
    easy = easy_mask(pipe.base.routing_probabilities(X), pipe.thresholds)
    order = np.random.default_rng([seed, BATCH_SEED_OFFSET]).permutation(pool.n_samples)
    n_routed = round(ROUTED_SHARE * n)
    routed, kept = order[~easy[order]][:n_routed], order[easy[order]][: n - n_routed]
    if len(routed) + len(kept) != n:
        raise ValueError(f"batch pool of {pool.n_samples} rows cannot supply {n} rows")
    take = np.zeros(pool.n_samples, dtype=bool)
    take[routed] = take[kept] = True
    return pool.subset(order[take[order]])


class PredictBulk:
    """pipeline_predict with the loaded guided archive, then the classic one.

    Each call routes the same batch through both pipelines, so a row counts
    twice: once per pipeline that predicts it.
    """

    name = "predict-bulk"
    root_spans = ("pipeline.pipeline_predict",)
    variants = ("guided", "classic")

    def __init__(self, sizes: Sizes, scratch: Path):
        self.sizes, self.scratch = sizes, scratch

    def setup(self, seed: int) -> State:
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        cfg = quickstart_config(seed, self.sizes.quick_rows, self.sizes.bulk_fit_epochs,
                                str(tmp))
        result = experiment.run_experiment(cfg)
        archives = [tmp / f"pipeline_{v}.zip" for v in self.variants]
        loaded = [persistence.load(a) for a in archives]
        # both pipelines share the base and the thresholds, so one batch
        # sends the same rows to the networks of each
        batch = routed_batch(loaded[0], seed, 2 * self.sizes.bulk_rows)
        return State(
            input_rows=len(self.variants) * batch.n_samples, tmp=tmp,
            digest=sha256(*(archive_digest(a).encode() for a in archives)),
            extra={"memory": [getattr(result, v) for v in self.variants], "loaded": loaded,
                   "batch": batch},
        )

    def call(self, st: State):
        return [pipeline.pipeline_predict(pipe, st.extra["batch"])
                for pipe in st.extra["loaded"]]

    def check(self, st: State, outputs_by_variant) -> Outcome:
        batch = st.extra["batch"]
        # rows are predicted independently, so the head of the batch predicted
        # on its own by the in-memory pipeline must match the call's head
        k = min(CHECK_ROWS, batch.n_samples)
        if "memory_head" not in st.extra:
            head = batch.subset(np.arange(k))
            st.extra["memory_head"] = [pipeline.pipeline_predict(pipe, head)
                                       for pipe in st.extra["memory"]]
        failures, digests, outputs, rows = [], {}, {}, 0
        for variant, pipe, (labels, routes), (mem_labels, mem_routes) in zip(
                self.variants, st.extra["loaded"], outputs_by_variant,
                st.extra["memory_head"], strict=True):
            tag = f"{self.name} {variant}"
            failures += routing_failures(tag, pipe, batch.values, labels, routes)
            if not (np.array_equal(labels[:k], mem_labels)
                    and np.array_equal(routes[:k], mem_routes)):
                failures.append(f"{tag}: loaded archive predicts differently from memory")
            outputs[variant] = {"rows": len(routes),
                                "aux_share": float((routes == pipeline.ROUTE_AUXILIARY).mean())}
            digests[f"{variant}.labels"] = array_digest(labels)
            digests[f"{variant}.routes"] = array_digest(routes)
            rows += len(routes)
        return Outcome(failures, digests, outputs, rows)


@dataclass
class InTurnState(State):
    states: list = field(default_factory=list)

    def close(self) -> None:
        for st in self.states:
            st.close()


class InTurn:
    """Several workloads as one: each call makes every part's call in turn.

    Set-up sets every part up; the checks, digests and outputs of a part are
    keyed by its name, and the rows of a call are the parts' rows summed.
    """

    def __init__(self, name: str, parts: list):
        self.name, self.parts = name, parts
        self.root_spans = tuple(span for part in parts for span in part.root_spans)

    def setup(self, seed: int) -> State:
        states = []
        try:
            for part in self.parts:
                states.append(part.setup(seed))
        except BaseException:
            for st in states:
                st.close()
            raise
        return InTurnState(
            input_rows=sum(st.input_rows for st in states),
            digest=sha256(*(f"{p.name}:{st.digest}".encode()
                            for p, st in zip(self.parts, states))),
            states=states,
        )

    def call(self, st: InTurnState):
        return [part.call(s) for part, s in zip(self.parts, st.states)]

    def check(self, st: InTurnState, results) -> Outcome:
        failures, digests, outputs, rows = [], {}, {}, 0
        for part, s, result in zip(self.parts, st.states, results, strict=True):
            outcome = part.check(s, result)
            failures += [f"{part.name}: {f}" for f in outcome.failures]
            digests.update({f"{part.name}.{k}": d for k, d in outcome.digests.items()})
            outputs[part.name] = outcome.outputs
            rows += outcome.rows
        return Outcome(failures, digests, outputs, rows)


def workloads(sizes: Sizes, scratch: Path) -> dict:
    """Every workload by name, built for the given sizes."""
    items = [
        QuickstartRun(sizes, scratch),
        InTurn("prepare-predict", [
            PrepareOnly("prepare-scale", "svm", sizes.scale_rows, {}),
            PrepareOnly("prepare-forest", "forest", sizes.forest_rows,
                        {"n_trees": sizes.forest_trees}),
            PredictBulk(sizes, scratch),
        ]),
    ]
    return {w.name: w for w in items}
