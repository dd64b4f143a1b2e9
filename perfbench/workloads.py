"""The four workloads: fit, serve, hard solve and verify.

Each workload is one closed loop with one client in this process.  A
workload builds its inputs from the seed in :meth:`Workload.setup`, then
:meth:`Workload.run` performs operation ``j`` (timed) and checks its
outputs (untimed).  Checks split their findings in two: a *failed*
operation is one the program did not complete to the benchmark's
standard (a fit that ran out of sweeps or stopped above the 1e-8
residual bound of acceptance criterion 2), while a *wrong* output is a
result the program returned as good that is not (a reloaded artifact
predicting differently, a recommendation that is not the top of its
row, a property that fails).  Both count as failed; only wrong outputs
make a run incorrect.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# library calls go through module attributes, so the traced run's wrappers see them
from uctensor import canonical_scaling, cli, completion
from uctensor.errors import ConvergenceError
from uctensor.ingest import Schema
from uctensor.sparse_tensor import SubtensorId

from . import gen

RESIDUAL_BOUND = 1e-8  # acceptance criterion 2
REL_TOL = 1e-12


@dataclass
class Outcome:
    """One operation: its timed wall seconds and what its checks found."""

    seconds: float
    attempted: int
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    unmeasured_s: float = 0.0  # one-off check time left out of the run's window


class Scope:
    """Where an operation and its checks run; the traced run records spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def op(self):
        return self.tracer.operation("perfbench.op") if self.tracer else contextlib.nullcontext()

    def gate(self):
        return self.tracer.span("perfbench.gate") if self.tracer else contextlib.nullcontext()


def sweep_bytes(entries: int, ids_per_group: list[int]) -> tuple[int, int]:
    """Computed bytes one ``sweep()`` moves, and its working set, in bytes.

    Per group the sweep reads labels and log values for the bincount
    (16 B per entry), then gathers rho through the labels and adds it to
    the log values in place (32 B per entry), plus about five passes over
    the per-subtensor vectors (40 B per id).  The working set is the log
    values, one label array per group and the per-subtensor vectors.
    """
    moved = sum(48 * entries + 40 * ids for ids in ids_per_group)
    working = 8 * entries * (1 + len(ids_per_group)) + 16 * sum(ids_per_group)
    return moved, working


def _fit_residual(tensor, model) -> float:
    scaled = canonical_scaling.apply_scaling(tensor, model.scaling)
    return canonical_scaling.residual(scaled, model.k)


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _quiet_main(argv: list[str], sink=None) -> tuple[int, str]:
    """``uctensor <argv>`` in this process, stdout captured."""
    out = sink if sink is not None else io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue() if sink is None else ""


class Workload:
    name = ""
    residual_max = 0.0  # worst post-fit residual the checks saw

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def setup(self) -> None:
        """Build the inputs; repeated, so it must give the same inputs each time."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed work the checks need once the inputs exist."""

    def run(self, j: int, scope: Scope) -> Outcome:
        raise NotImplementedError

    def fixed_ops(self, seconds: float) -> int | None:
        """How many operations a run of ``seconds`` makes; None fills the time.

        A workload whose operations fail today runs a count set by
        ``seconds`` alone, so that ``attempted`` and ``failed`` repeat
        exactly for a seed.
        """
        return None

    def sizes(self) -> dict:
        raise NotImplementedError

    def largest_fit(self) -> tuple[int, list[int]]:
        """Entries and per-group subtensor counts of the largest fitted tensor."""
        raise NotImplementedError

    def report(self, outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, by name, with units."""
        raise NotImplementedError


class FitPowerlaw(Workload):
    """``uctensor complete`` on a MovieLens-shaped ratings file."""

    name = "fit-powerlaw"
    USERS, ITEMS, ENTRIES = 15_000, 6_000, 250_000
    SAMPLE = 200

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.ratings = workdir / "ratings.csv"
        self.artifact = workdir / "model.json"
        self.verified_digest: str | None = None

    def setup(self):
        rng = self.rng(1)
        users, items = gen.powerlaw_pairs(rng, self.USERS, self.ITEMS, self.ENTRIES)
        gen.write_ratings(
            self.ratings, np.column_stack([users, items]), gen.stars(rng, self.ENTRIES), "um"
        )

    def run(self, j, scope):
        with _capture_saved_model() as saved:
            started = time.perf_counter()
            with scope.op():
                rc, _ = _quiet_main(["complete", str(self.ratings), "-o", str(self.artifact)])
            seconds = time.perf_counter() - started
        out = Outcome(seconds, attempted=1)
        with scope.gate():
            if rc == 1:
                out.failed = 1  # ConvergenceError: the solver gave up
            elif rc != 0:
                out.failed = 1
                out.wrong.append(f"complete exited {rc}")
            else:
                self._check_artifact(saved["model"], out)
        return out

    def _check_artifact(self, model, out: Outcome) -> None:
        """Full check of the first artifact; later identical ones by digest.

        The full check takes about half an operation's time and runs once
        per run, so it is left out of the measured window like set-up.
        """
        digest = hashlib.sha256(self.artifact.read_bytes()).hexdigest()
        if digest == self.verified_digest:
            return
        started = time.perf_counter()
        self._full_check(model, digest, out)
        out.unmeasured_s = time.perf_counter() - started

    def _full_check(self, model, digest: str, out: Outcome) -> None:
        res = _fit_residual(model.source, model)
        self.residual_max = max(self.residual_max, res)
        loaded, _, _ = cli.load_model(str(self.artifact))
        problems = []
        if loaded.source.extents != (self.USERS, self.ITEMS) or len(loaded.source) != self.ENTRIES:
            problems.append(f"artifact holds {loaded.source!r}")
        rng = self.rng(1, 1)
        coeffs = model.scaling.log_coeffs
        for _ in range(self.SAMPLE):
            idx = (int(rng.integers(1, self.USERS + 1)), int(rng.integers(1, self.ITEMS + 1)))
            before, after = model.predict(idx), loaded.predict(idx)
            if before != after:
                problems.append(f"reload changed prediction at {idx}: {before!r} -> {after!r}")
            if idx not in model.source.entries:
                expected = math.exp(-(coeffs[SubtensorId.line(1, idx[0])]
                                      + coeffs[SubtensorId.line(2, idx[1])]))
                if _rel(before, expected) > REL_TOL:
                    problems.append(f"prediction at {idx} is not exp(-sum s)")
        if problems:
            out.failed = 1
            out.wrong.extend(problems[:3])
        elif res > RESIDUAL_BOUND:
            out.failed = 1
        else:
            self.verified_digest = digest

    def sizes(self):
        return {"users": self.USERS, "items": self.ITEMS, "entries": self.ENTRIES,
                "file_bytes": self.ratings.stat().st_size}

    def largest_fit(self):
        return self.ENTRIES, [self.USERS, self.ITEMS]

    def report(self, outcomes):
        return {"complete_s": (statistics.median(o.seconds for o in outcomes), "s")}


@contextlib.contextmanager
def _capture_saved_model():
    """Keep a reference to the model ``cli.save_model`` writes out."""
    saved = {}
    original = cli.save_model

    def capture(path, model, idmap, digest):
        saved["model"] = model
        return original(path, model, idmap, digest)

    cli.save_model = capture
    try:
        yield saved
    finally:
        cli.save_model = original


class _Sink:
    """Stand-in stdout for ``predict --all``.

    Counts lines, keeps every line that is not a prediction (the config
    line, and any error record) and a sample of the predictions.
    """

    EVERY = 997

    def __init__(self):
        self.lines = 0
        self.other: list[str] = []
        self.sample: list[str] = []

    def write(self, text: str) -> int:
        if " -> " not in text or text.startswith("error:"):
            self.other.append(text)
        elif self.lines % self.EVERY == 1:
            self.sample.append(text)
        self.lines += 1
        return len(text)

    def flush(self) -> None:
        pass


class ServeRecommend(Workload):
    """Load a saved model, answer top-10 requests, then predict every cell."""

    name = "serve-recommend"
    USERS, ITEMS, PER_USER = 1_000, 500, 50
    REQUESTS, TOP = 400, 10
    SAMPLE = 200

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.ratings = workdir / "ratings.csv"
        self.artifact = workdir / "model.json"

    def setup(self):
        rng = self.rng(2)
        users, items = gen.fixed_degree_pairs(rng, self.USERS, self.ITEMS, self.PER_USER)
        gen.write_ratings(
            self.ratings, np.column_stack([users, items]), gen.stars(rng, len(users)), "ui"
        )
        tensor, idmap, digest = cli.load_ratings(str(self.ratings), Schema(), None)
        self.model = completion.tca(tensor)
        self.idmap = idmap
        cli.save_model(str(self.artifact), self.model, idmap, digest)

    def prepare_checks(self):
        model = self.model
        self.residual_max = _fit_residual(model.source, model)
        coeffs = model.scaling.log_coeffs
        su = np.array([coeffs[SubtensorId.line(1, u)] for u in range(1, self.USERS + 1)])
        si = np.array([coeffs[SubtensorId.line(2, i)] for i in range(1, self.ITEMS + 1)])
        scores = np.exp(-(su[:, None] + si[None, :]))
        coords = model.source.coords_array() - 1
        scores[coords[:, 0], coords[:, 1]] = np.nan
        self.scores = scores
        self.missing = self.USERS * self.ITEMS - len(model.source)

    def run(self, j, scope):
        user_ids = self.idmap.to_id[0]
        users = self.rng(2, j).integers(0, self.USERS, size=self.REQUESTS)
        latencies, answers = [], []
        sink = _Sink()
        started = time.perf_counter()
        with scope.op():
            loaded, idmap, _ = cli.load_model(str(self.artifact))
            load_s = time.perf_counter() - started
            item_ids = idmap.to_id[1]
            known = loaded.source.entries
            for u in users.tolist():
                uid = user_ids[u]
                asked = time.perf_counter()
                scored = []
                for item in item_ids:
                    idx = idmap.resolve((uid, item))
                    if idx not in known:
                        scored.append((loaded.predict(idx), item))
                answers.append((uid, heapq.nlargest(self.TOP, scored)))
                latencies.append(time.perf_counter() - asked)
            swept = time.perf_counter()
            rc, _ = _quiet_main(["predict", str(self.artifact), "--all"], sink)
            predict_all_s = time.perf_counter() - swept
        seconds = time.perf_counter() - started
        out = Outcome(seconds, attempted=1, detail={
            "load_s": load_s, "latencies": latencies, "predict_all_s": predict_all_s,
        })
        with scope.gate():
            problems = self._check_reload(loaded)
            problems += self._check_answers(answers)
            problems += self._check_predict_all(rc, sink)
        if problems:
            out.failed = 1
            out.wrong.extend(problems[:3])
        elif self.residual_max > RESIDUAL_BOUND:
            out.failed = 1
        return out

    def _check_reload(self, loaded) -> list[str]:
        if len(loaded.source) != len(self.model.source):
            return ["reloaded model has a different known set"]
        rng = self.rng(2, 1 << 20)
        for _ in range(self.SAMPLE):
            idx = (int(rng.integers(1, self.USERS + 1)), int(rng.integers(1, self.ITEMS + 1)))
            if loaded.predict(idx) != self.model.predict(idx):
                return [f"reload changed prediction at {idx}"]
        return []

    def _check_answers(self, answers) -> list[str]:
        resolve = self.idmap.resolve
        for uid, top in answers:
            if len(top) != self.TOP:
                return [f"{uid}: {len(top)} recommendations"]
            row = self.scores[resolve((uid, top[0][1]))[0] - 1]
            cutoff = np.sort(row[~np.isnan(row)])[-self.TOP]
            for score, item in top:
                ref = row[resolve((uid, item))[1] - 1]
                if not _rel(score, ref) <= REL_TOL or score < cutoff * (1 - REL_TOL):
                    return [f"{uid}: {item} scored {score!r} is not in the top {self.TOP}"]
        return []

    def _check_predict_all(self, rc: int, sink: _Sink) -> list[str]:
        if rc != 0:
            return [f"predict --all exited {rc}"]
        if sink.lines != self.missing + 1:  # one config line, then one line per cell
            return [f"predict --all wrote {sink.lines} lines for {self.missing} cells"]
        if len(sink.other) != 1 or not sink.other[0].startswith("[predict] config:"):
            return [f"predict --all wrote {len(sink.other)} lines that are not predictions, "
                    f"the last {sink.other[-1:]!r}"]
        for line in sink.sample:
            ids, raw = line.rstrip("\n").split(" -> ")
            idx = self.idmap.resolve(tuple(ids.split(",")))
            if float(raw) != self.model.predict(idx):
                return [f"predict --all printed {raw} at {ids}"]
        return []

    def sizes(self):
        return {"users": self.USERS, "items": self.ITEMS, "entries": len(self.model.source),
                "cells": self.USERS * self.ITEMS, "requests_per_session": self.REQUESTS,
                "artifact_bytes": self.artifact.stat().st_size}

    def largest_fit(self):
        return self.USERS * self.PER_USER, [self.USERS, self.ITEMS]

    def report(self, outcomes):
        latencies = sorted(t for o in outcomes for t in o.detail["latencies"])
        n = len(latencies)
        predict_all = statistics.median(o.detail["predict_all_s"] for o in outcomes)
        figures = {
            "load_s": (statistics.median(o.detail["load_s"] for o in outcomes), "s"),
            "recommend_requests": (n, "count"),
            "recommend_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "predict_all_cells_per_s": (self.missing / predict_all, "1/s"),
        }
        if n >= 1000:  # p99 needs ten samples beyond it
            figures["recommend_p99_ms"] = (1e3 * latencies[math.ceil(0.99 * n) - 1], "ms")
        return figures


class SolveHard(Workload):
    """In-memory fits where the solver is the whole cost."""

    name = "solve-hard"
    LENGTHS = (10, 25, 50, 100, 200, 400)
    CUBE, DENSITY, POOL = (30, 30, 30), 0.1, 15
    PASS_S = 2.0  # nominal seconds of one pass: a 30 s run fits each cube once

    def setup(self):
        rng = self.rng(3)
        self.chains = [gen.staircase(rng, n) for n in self.LENGTHS]
        self.cubes = [gen.random_tensor(rng, self.CUBE, self.DENSITY) for _ in range(self.POOL)]

    def instances(self, j: int):
        """Pass ``j``: every chain, then cube ``j mod POOL`` at k=2 and k=1."""
        cube = self.cubes[j % self.POOL]
        out = [(f"chain-{n}", t, 1) for n, t in zip(self.LENGTHS, self.chains)]
        return out + [("cube-k2", cube, 2), ("cube-k1", cube, 1)]

    def fixed_ops(self, seconds):
        # about half the fits fail today, so a time-filled run's failed
        # count would follow the machine's speed
        return max(1, round(seconds / self.PASS_S))

    def run(self, j, scope):
        fits = []
        started = time.perf_counter()
        with scope.op():
            for name, tensor, k in self.instances(j):
                try:
                    model = completion.tca(tensor, k)
                    fits.append((name, tensor, model, model.report))
                except ConvergenceError as exc:
                    fits.append((name, tensor, None, exc.report))
        seconds = time.perf_counter() - started
        out = Outcome(seconds, attempted=len(fits),
                      detail={"sweeps": {name: r.sweeps for name, _, _, r in fits}})
        with scope.gate():
            for name, tensor, model, _ in fits:
                if model is None:
                    out.failed += 1
                    continue
                res = _fit_residual(tensor, model)
                self.residual_max = max(self.residual_max, res)
                if res > RESIDUAL_BOUND:
                    out.failed += 1
        return out

    def sizes(self):
        return {"chain_lengths": list(self.LENGTHS), "cube_extents": list(self.CUBE),
                "cube_entries": len(self.cubes[0]), "cube_pool": self.POOL}

    def largest_fit(self):
        # the k=1 fit of a cube: three groups of occupied coordinate pairs
        cube = self.cubes[0]
        coords = np.array(list(cube.entries), dtype=np.int64)
        ids = [len(np.unique(coords[:, list(p)], axis=0)) for p in ((0, 1), (0, 2), (1, 2))]
        return len(cube), ids

    def report(self, outcomes):
        first = outcomes[0].detail["sweeps"]
        figures = {"solve_s": (statistics.median(o.seconds for o in outcomes), "s")}
        figures.update({f"sweeps.{name}": (n, "count") for name, n in first.items()})
        return figures


class VerifyBattery(Workload):
    """``uctensor verify`` with all six properties on a d=2 and a d=3 file."""

    name = "verify-battery"
    FILES = (((40, 30), 490, "rc", "key,key,value"),
             ((10, 8, 6), 235, "xyz", "key,key,key,value"))
    POOL = 8

    def setup(self):
        rng = self.rng(4)
        for p in range(self.POOL):
            for f, (extents, n, prefixes, _) in enumerate(self.FILES):
                coords = gen.covering_cells(rng, extents, n)
                gen.write_ratings(self._path(p, f), coords, gen.stars(rng, n), prefixes)

    def _path(self, p: int, f: int) -> Path:
        return self.workdir / f"battery-{p}-{f}.csv"

    def run(self, j, scope):
        runs = []
        started = time.perf_counter()
        with scope.op():
            for f, (_, _, _, schema) in enumerate(self.FILES):
                began = time.perf_counter()
                rc, text = _quiet_main(["verify", str(self._path(j % self.POOL, f)),
                                        "--schema", schema, "--format", "jsonl"])
                runs.append((rc, text, time.perf_counter() - began))
        seconds = time.perf_counter() - started
        out = Outcome(seconds, attempted=len(runs), detail={"file_s": [r[2] for r in runs]})
        with scope.gate():
            for rc, text, _ in runs:
                problem = self._check(rc, text)
                if problem:
                    out.failed += 1
                    out.wrong.append(problem)
        return out

    @staticmethod
    def _check(rc: int, text: str) -> str | None:
        records = [json.loads(line) for line in text.splitlines()]
        props = {r["name"]: r for r in records if r["record"] == "property"}
        if rc != 0:
            return f"verify exited {rc}"
        if set(props) != set(cli.ALL_PROPERTIES):
            return f"verify reported {sorted(props)}"
        for r in props.values():
            if not r["passed"] and not r["informational"]:
                return f"property {r['name']} failed: {r['violations'][:1]}"
        return None

    def sizes(self):
        return {"files": [{"extents": list(e), "entries": n} for e, n, _, _ in self.FILES],
                "file_pool": self.POOL}

    def largest_fit(self):
        (extents, n, _, _) = self.FILES[0]
        return n, list(extents)

    def report(self, outcomes):
        return {
            "verify_s": (statistics.median(o.seconds for o in outcomes), "s"),
            "verify_d2_s": (statistics.median(o.detail["file_s"][0] for o in outcomes), "s"),
            "verify_d3_s": (statistics.median(o.detail["file_s"][1] for o in outcomes), "s"),
        }


OVERRUN = 4  # a fixed-count run stops early past this many times its seconds


def measure(workload, seconds: float, scope, min_ops: int, after_op=None) -> list:
    """Run operations 0, 1, ... for about ``seconds``.

    A workload with a fixed count runs exactly that many operations, or
    stops early, with a warning, once it has taken ``OVERRUN`` times
    ``seconds``; any other workload runs at least ``min_ops`` operations
    and stops when another would likely overrun ``seconds``.
    ``after_op`` runs after each operation's checks, outside its timing.
    """
    fixed = workload.fixed_ops(seconds)
    outcomes, cycles = [], []
    started = time.perf_counter()
    unmeasured = 0.0
    j = 0
    while True:
        gc.collect()
        began = time.perf_counter()
        try:
            outcome = workload.run(j, scope)
        except Exception:  # a crashing operation is a wrong output, not a crash
            traceback.print_exc()
            outcome = Outcome(float("nan"), attempted=1, failed=1, wrong=["operation raised"])
        if after_op is not None:
            after_op()
        outcomes.append(outcome)
        unmeasured += outcome.unmeasured_s
        cycles.append(time.perf_counter() - began - outcome.unmeasured_s)
        j += 1
        elapsed = time.perf_counter() - started - unmeasured
        if fixed is not None:
            if len(outcomes) < fixed and elapsed > OVERRUN * seconds:
                print(f"perfbench: stopped after {len(outcomes)} of {fixed} operations, "
                      f"{elapsed:.0f} s", file=sys.stderr)
                return outcomes
            if len(outcomes) >= fixed:
                return outcomes
        elif len(outcomes) >= min_ops and elapsed + statistics.median(cycles) > seconds:
            return outcomes


WORKLOADS = {w.name: w for w in (FitPowerlaw, ServeRecommend, SolveHard, VerifyBattery)}
