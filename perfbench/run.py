#!/usr/bin/env python3
"""The substrum benchmark: one command for every workload, untraced or traced.

    python3 perfbench/run.py --workload classify-random --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root; it measures the package under ./src.
Workloads, metrics and the reasons for them are in perfbench/README.md and
BENCHMARK.json.  One client runs one operation at a time (a closed loop);
CLI children run one at a time.  Every operation gets a fresh temporary
working directory and a fresh SUBSTRUM_CACHE, both under .perfbench_tmp/,
which is removed on exit.  Outputs are checked against oracle.py after the
timed loop.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a separate run on the first batch of the same
inputs with the public functions wrapped by spans.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import importlib.util
import json
import math
import os
import pickle
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# numpy sizes its BLAS and OpenMP pools when it loads, so cap them first;
# children inherit the caps
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or not 1 <= int(os.environ[_var]) <= NPROC:
        os.environ[_var] = str(NPROC)

import family  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 3  # fresh interpreters per run for setup_s (median)
IMPORT_REPEATS = 3  # fresh interpreters per module for import.* (median)
OP_TIMEOUT_S = 60  # an op that runs longer counts as failed

BIJECTIVE_NONABELIAN = "1 -> 1 1 3\n2 -> 2 3 2\n3 -> 3 2 4\n4 -> 4 4 1\n"
RUDIN_SHAPIRO = "0 -> 0 1\n1 -> 0 2\n2 -> 3 1\n3 -> 3 2\n"
# (name, rules, f, K, L).  L = 10^6 rather than the README's 10^7: one op at
# 10^7 takes 22-31 s, too long for a steady median in one run.
ESTIMATES = (
    ("bijective_nonabelian", BIJECTIVE_NONABELIAN, (1, -1, 0, 0), 4096, 10**6),
    ("bijective_nonabelian", BIJECTIVE_NONABELIAN, (1, -1, 0, 0), 3**10, 10**6),
    ("rudin_shapiro", RUDIN_SHAPIRO, (1, 1, -1, -1), 4096, 10**6),
)
# Run once in the benchmark process before the loop, so that forked workers start
# with sympy's and numpy's lazy set-up done, as in a long-lived caller.
WARM_UP_RULES = ("0 -> 3 0\n1 -> 2 2\n2 -> 0 2\n3 -> 1 2\n", RUDIN_SHAPIRO)  # degree 3; closed forms
# random inputs the family leaves out (family.py): a repeated root; height 3
KNOWN_DEFECT_RULES = (
    "0 -> 0 0 1\n1 -> 0 3 0\n2 -> 2 2 1\n3 -> 2 0 3\n",
    "0 -> 1 2\n1 -> 2 3\n2 -> 1 0\n3 -> 3 1\n",
)
MIN_BATCHES = 3  # so one batch with an outlier input cannot set a median
# lags the oracle counts itself when checking ball masses
ORACLE_LAGS = 81

IMPORTS = {"numpy": "numpy", "scipy_csgraph": "scipy.sparse.csgraph", "sympy": "sympy"}


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["SUBSTRUM_CACHE"] = str(workdir / "cache")
    return env


def fresh_import_s(module: str, workdir: Path, whole_process: bool) -> float:
    """Import time in a fresh interpreter: the child's whole wall time, or the
    import statement alone as timed inside the child."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=workdir, env=child_env(workdir),
        capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True,
    )
    return time.perf_counter() - start if whole_process else float(out.stdout)


def tail(times: list[float]) -> tuple[int, float] | None:
    """Highest integer percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(times)
    return p, ordered[min(n - 1, math.ceil(p * n / 100) - 1)]


class Op:
    """One operation: its input, and after the loop its time and outcome."""

    def __init__(self, item):
        self.item = item
        self.seconds = 0.0
        self.output = None
        self.error = None  # raised, timed out, or nonzero where not expected
        self.wrong: list[str] = []
        self.missed: list[str] = []
        self.spans = None  # tracer summary, when traced
        self.rss_mb = 0.0  # peak RSS of the process that ran the op
        self.cache_bytes = 0  # bytes left in the op's SUBSTRUM_CACHE

    @property
    def failed(self) -> bool:
        return bool(self.error or self.wrong or self.missed)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CliCorpus:
    """`python -m substrum {classify,analyze,spectrum} FILE` over the corpus."""

    name = "cli-corpus"
    in_children = True
    COMMANDS = ("classify", "analyze", "spectrum")

    def __init__(self, tmp: Path):
        self.dir = tmp / "examples"
        subprocess.run(
            [sys.executable, "-m", "substrum", "examples", str(self.dir)],
            cwd=tmp, env=child_env(tmp), capture_output=True, timeout=OP_TIMEOUT_S, check=True,
        )
        self.entries = json.loads((self.dir / "manifest.json").read_text())["entries"]
        self.tracer_targets = None  # set for a traced pass: run cli_child.py

    def batches(self, rng: random.Random):
        """Each batch runs every example once; three consecutive batches run
        every (example, command) pair once, except `analyze` on an example
        with a repeated eigenvalue (a known defect, see KnownDefects)."""
        entries = list(self.entries)
        commands = list(self.COMMANDS)
        while True:
            rng.shuffle(entries)
            rng.shuffle(commands)
            for j in range(len(commands)):
                pairs = [(e, commands[(i + j) % len(commands)]) for i, e in enumerate(entries)]
                yield [(e, c) for e, c in pairs
                       if c != "analyze" or oracle.squarefree(self._images(e))]

    def images(self, item):
        return self._images(item[0])

    def _images(self, entry):
        return oracle.parse_rules((self.dir / entry["file"]).read_text())

    def run_child(self, op: Op, workdir: Path) -> None:
        """Run the CLI as a child; wait4 gives its own peak RSS."""
        entry, command = op.item
        path = str(self.dir / entry["file"])
        if self.tracer_targets is None:
            argv = [sys.executable, "-m", "substrum", command, path]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(workdir / "spans.json"),
                    json.dumps(self.tracer_targets), "--", command, path]
        out, err = workdir / "stdout", workdir / "stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=workdir, env=child_env(workdir), stdout=fo, stderr=fe)
            deadline = start + OP_TIMEOUT_S
            while (done := os.wait4(proc.pid, os.WNOHANG))[0] == 0:
                if time.perf_counter() > deadline:
                    proc.kill()
                    done = os.wait4(proc.pid, 0)
                    op.error = f"timed out after {OP_TIMEOUT_S} s"
                    break
                time.sleep(0.001)
            op.seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(done[1])
        op.rss_mb = done[2].ru_maxrss / 1024.0
        op.output = proc.returncode, out.read_text(), err.read_text()

    def check(self, op: Op) -> None:
        entry, command = op.item
        code, stdout, stderr = op.output
        precondition = entry["expected_reason"].startswith("PreconditionFailed")
        expected_code = 3 if precondition and command != "spectrum" else 0
        if code != expected_code:
            op.error = f"exit {code}, expected {expected_code}: {stderr.strip()[-200:]}"
            return
        report = json.loads(stdout)
        images = self._images(entry)
        if command != "spectrum":
            verdict = report["verdict"]
            if verdict["verdict"] != entry["expected_verdict"] or entry["expected_reason"] not in verdict["reasons"]:
                op.wrong.append(f"{verdict['verdict']} {verdict['reasons']}, manifest says "
                                f"{entry['expected_verdict']} {entry['expected_reason']}")
        else:
            present, _ = oracle.sqrt_q_facts(oracle.char_poly(images), len(images[0]))
            if report["sqrt_q"]["present"] is not present:
                op.wrong.append(f"sqrt_q present={report['sqrt_q']['present']}, oracle {present}")
        if command != "classify" and report["eigenvalues"] is not None:
            op.wrong += oracle.enclosure_errors(report["eigenvalues"], oracle.char_poly(images))

    def verdict_of(self, op: Op):
        if op.item[1] == "spectrum" or op.error:
            return None
        return json.loads(op.output[1])["verdict"]["verdict"]

    def label(self, item) -> str:
        return f"{item[1]} {item[0]['file']}"


class RandomFamily:
    """classify(z), or analysis_report(z, classify(z)), on family.batch draws."""

    in_children = False
    tracer = None  # a spans.Tracer while a traced pass runs

    def __init__(self, analyze: bool):
        self.analyze = analyze
        self.name = "analyze-random" if analyze else "classify-random"

    def batches(self, rng: random.Random):
        while True:
            yield family.batch(rng)

    def warm_up(self):
        from substrum import parse_substitution

        for rules in WARM_UP_RULES:
            self.run(parse_substitution(rules))

    def prepare(self, images):
        from substrum import parse_substitution

        return parse_substitution(family.rules_text(images))

    def images(self, images):
        return images

    def run(self, z):
        from substrum import classify
        from substrum.report import analysis_report, render_json

        verdict = classify(z)
        if self.analyze:
            return render_json(analysis_report(z, verdict))
        return verdict.verdict, tuple(verdict.reasons)

    def check(self, op: Op) -> None:
        if self.analyze:
            report = json.loads(op.output)
            verdict, reasons = report["verdict"]["verdict"], report["verdict"]["reasons"]
        else:
            verdict, reasons = op.output
        op.wrong, op.missed = oracle.verdict_errors(op.item, verdict, reasons)
        if self.analyze:
            if report["eigenvalues"] is None:
                op.missed.append("no eigenvalue enclosures")
            else:
                op.wrong += oracle.enclosure_errors(report["eigenvalues"], oracle.char_poly(op.item))

    def verdict_of(self, op: Op):
        if op.error:
            return None
        return json.loads(op.output)["verdict"]["verdict"] if self.analyze else op.output[0]

    def label(self, images) -> str:
        return repr(family.rules_text(images))


class EstimateDim:
    """Cold dimension_fit(z, f, K=..., L=...) on the ESTIMATES configurations."""

    name = "estimate-dim"
    in_children = False
    tracer = None

    def __init__(self):
        self._masses = {}

    def batches(self, rng: random.Random):
        while True:
            batch = list(ESTIMATES)
            rng.shuffle(batch)
            yield batch

    def warm_up(self):
        from substrum import parse_substitution

        self.run((parse_substitution(RUDIN_SHAPIRO), (1, 1, -1, -1), 64, 10**4))

    def prepare(self, item):
        from substrum import parse_substitution

        return parse_substitution(item[1]), item[2], item[3], item[4]

    def images(self, item):
        return oracle.parse_rules(item[1])

    def run(self, prepared):
        from substrum import dimension_fit

        z, f, K, L = prepared
        return dimension_fit(z, f, K=K, L=L)

    def check(self, op: Op) -> None:
        _, rules, f, _, L = op.item
        est = op.output
        if est.d_pred is None or not math.isfinite(est.d_hat):
            op.wrong.append(f"d_hat={est.d_hat}, d_pred={est.d_pred}")
        key = (rules, f, L)
        if key not in self._masses:
            self._masses[key] = oracle.ball_masses(oracle.parse_rules(rules), f, L, ORACLE_LAGS)
        expected = self._masses[key]
        for n, mass in zip(est.scales, est.masses):
            if n in expected and not math.isclose(mass, expected[n], rel_tol=1e-9):
                op.wrong.append(f"ball mass at q^-{n}: {mass!r}, lag counts give {expected[n]!r}")

    def verdict_of(self, op: Op):
        return None

    def label(self, item) -> str:
        return f"{item[0]} f={item[2]} K={item[3]} L={item[4]}"


class KnownDefects(RandomFamily):
    """analysis_report(z, classify(z)) on inputs the workloads leave out.

    Not a benchmark workload: it fails at the seed commit, and shows whether
    the program still does.  `analyze` lists an eigenvalue of multiplicity k
    k^2 times (the corpus examples with a repeated eigenvalue, and the first
    of KNOWN_DEFECT_RULES), and `pure_base` raises ResourceBudgetError on the
    second of KNOWN_DEFECT_RULES (height 3, seed power 2).
    """

    def __init__(self, tmp: Path):
        super().__init__(analyze=True)
        self.name = "known-defects"
        corpus = CliCorpus(tmp)
        self.inputs = [corpus._images(e) for e in corpus.entries if not oracle.squarefree(corpus._images(e))]
        self.inputs += [oracle.parse_rules(text) for text in KNOWN_DEFECT_RULES]

    def batches(self, rng: random.Random):
        while True:
            yield list(self.inputs)


def make_workload(name: str, tmp: Path):
    if name == "cli-corpus":
        return CliCorpus(tmp)
    if name in ("classify-random", "analyze-random"):
        return RandomFamily(analyze=name == "analyze-random")
    if name == "known-defects":
        return KnownDefects(tmp)
    return EstimateDim()


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_batch(w, items, tmp: Path) -> list[Op]:
    """Run a batch one op at a time, each in a fresh cwd and SUBSTRUM_CACHE.

    CLI ops are children of this process.  In-process ops run in a worker
    forked for the batch: calls stay in one long-lived interpreter, as for
    a library user, while the worker's peak RSS belongs to this batch alone
    (a rare input that needs far more memory then moves only the peak of
    its own batch, not of the whole run).
    """
    ops = [Op(item) for item in items]
    workdirs = [Path(tempfile.mkdtemp(dir=tmp)) for _ in ops]
    if w.in_children:
        for op, workdir in zip(ops, workdirs):
            w.run_child(op, workdir)
    else:
        start = 0
        while start < len(ops):
            start = run_worker(w, ops[start:], workdirs[start:]) + start
    for op, workdir in zip(ops, workdirs):
        op.cache_bytes = sum(p.stat().st_size for p in (workdir / "cache").rglob("*") if p.is_file())
        if (workdir / "spans.json").exists():
            op.spans = json.loads((workdir / "spans.json").read_text())
        shutil.rmtree(workdir)
    return ops


def run_worker(w, ops: list[Op], workdirs: list[Path]) -> int:
    """Fork a worker that runs `ops` in order; returns how many it finished.

    An op that overruns OP_TIMEOUT_S is killed with its worker and counted
    as failed; the caller starts a new worker for the ops after it.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:  # the worker
        try:
            os.close(read_fd)
            for op, workdir in zip(ops, workdirs):
                send(write_fd, pickle.dumps(run_here(w, op.item, workdir)))
        finally:
            os._exit(0)
    os.close(write_fd)
    done = 0
    try:
        for op in ops:
            message = receive(read_fd, time.monotonic() + OP_TIMEOUT_S)
            done += 1
            if message is None:
                os.kill(pid, signal.SIGKILL)
                op.error, op.seconds = f"timed out after {OP_TIMEOUT_S} s", float(OP_TIMEOUT_S)
                break
            if not message:
                op.error = "worker died without a result"
                break
            op.seconds, op.output, op.error, op.spans = pickle.loads(message)
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    for op in ops[:done]:
        op.rss_mb = usage.ru_maxrss / 1024.0
    return done


def run_here(w, item, workdir: Path) -> tuple:
    """(seconds, output, error, tracer summary) of one op, in this process."""
    os.environ["SUBSTRUM_CACHE"] = str(workdir / "cache")
    os.chdir(workdir)
    if w.tracer is not None:
        w.tracer.spans.clear()
        w.tracer.sizes.clear()
    prepared = w.prepare(item)
    output = error = None
    start = time.perf_counter()
    try:
        output = w.run(prepared)
    except Exception as exc:  # the op's failure is its result
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, output, error, None if w.tracer is None else w.tracer.summary()


def send(fd: int, payload: bytes) -> None:
    data = len(payload).to_bytes(8, "little") + payload
    while data:
        data = data[os.write(fd, data):]


def receive(fd: int, deadline: float) -> bytes | None:
    """One message; b"" at end of stream, None if the deadline passes first."""
    header = read_exactly(fd, 8, deadline)
    if not header:
        return header
    return read_exactly(fd, int.from_bytes(header, "little"), deadline)


def read_exactly(fd: int, n: int, deadline: float) -> bytes | None:
    chunks, got = [], 0
    while got < n:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            return None
        chunk = os.read(fd, min(n - got, 1 << 20))
        if not chunk:
            return b""
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def warm_up(w, tmp: Path) -> None:
    """Run the workload's warm-up calls here, in a scratch cwd and cache."""
    if w.in_children:
        return
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    home, cache = os.getcwd(), os.environ.get("SUBSTRUM_CACHE")
    os.environ["SUBSTRUM_CACHE"] = str(workdir / "cache")
    os.chdir(workdir)
    try:
        w.warm_up()
    finally:
        os.chdir(home)
        if cache is None:
            del os.environ["SUBSTRUM_CACHE"]
        else:
            os.environ["SUBSTRUM_CACHE"] = cache
        shutil.rmtree(workdir)


def closed_loop(w, batches, seconds: float, tmp: Path) -> tuple[list[Op], float]:
    ops: list[Op] = []
    warm_up(w, tmp)
    gc.freeze()  # forked workers then share, rather than copy, the parent's objects
    wall = 0.0  # time in run_batch; drawing the inputs is left out
    parts = batches_done = 0
    try:
        for batch in batches:
            # CLI ops cost about the same each, so the loop may stop between them
            for part in ([item] for item in batch) if w.in_children else [batch]:
                start = time.perf_counter()
                ops += run_batch(w, part, tmp)
                wall += time.perf_counter() - start
                parts += 1
                batches_done += part is batch
                # stop at the part boundary nearest to `seconds`
                if wall + wall / parts / 2 >= seconds and (w.in_children or batches_done >= MIN_BATCHES):
                    return ops, wall
    finally:
        gc.unfreeze()
    raise AssertionError("batches() is endless")


def check_all(w, ops: list[Op]) -> None:
    for op in ops:
        if op.error is None:
            try:
                w.check(op)
            except Exception as exc:  # an unreadable output is a failed op
                op.error = f"unreadable output: {type(exc).__name__}: {exc}"


def input_counts(w, ops: list[Op]) -> dict:
    """Counts that repeat exactly for a seed: inputs and verdicts of the ops."""

    degrees = [oracle.max_factor_degree(w.images(op.item)) for op in ops]
    verdicts = [w.verdict_of(op) for op in ops]
    return {
        "input.share_deg3": sum(d >= 3 for d in degrees) / len(degrees),
        "input.max_factor_degree": max(degrees),
        **{f"verdict.{v}": verdicts.count(v) for v in ("PurelyDiscrete", "Singular", "Inconclusive")},
    }


def report_failures(w, ops: list[Op]) -> None:
    for op in ops:
        if op.failed:
            why = op.error or "; ".join(op.wrong + op.missed)
            print(f"  FAILED {w.label(op.item)}: {why}")


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        **{name: version(name) for name in ("numpy", "scipy", "sympy", "mpmath")},
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def untraced(w, seed: int, seconds: float, tmp: Path) -> dict:
    setup = statistics.median(fresh_import_s("substrum", tmp, True) for _ in range(SETUP_REPEATS))
    ops, wall = closed_loop(w, w.batches(random.Random(f"{w.name}:{seed}")), seconds, tmp)
    check_all(w, ops)
    times = [op.seconds for op in ops]
    # ops that raised or timed out are counted in `failed` and listed; their
    # time is taken out of the throughput, so that a rare input which fails
    # slowly does not swing ops_per_s between seeds
    raised = [op for op in ops if op.error is not None]
    failed = sum(op.failed for op in ops)
    rss = [op.rss_mb for op in ops]
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": ((len(ops) - len(raised)) / (wall - sum(op.seconds for op in raised)), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    print(f"workload {w.name}  seed {seed}  seconds {seconds}  ops {len(ops)}  wall {wall:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    t = tail(times)
    print("  op_tail_s      " + (f"{t[1]:.6g} s (p{t[0]}, n={len(ops)})" if t else f"omitted (n={len(ops)} < 11)"))
    print(f"  fail_rate      {failed / len(ops):.6g} ({failed}/{len(ops)}; {len(raised)} raised or timed out)")
    print(f"  max_rss_mb     {max(rss):.6g} MB (largest op; peak_rss_mb is the median op's peak)")
    if isinstance(w, EstimateDim):
        errs = [abs(op.output.d_hat - op.output.d_pred) for op in ops if op.error is None and op.output.d_pred is not None]
        if errs:
            print(f"  d_err          {statistics.fmean(errs):.6g} (mean |d_hat - d_pred| over {len(errs)} ops)")
    first = ops[: len(next(w.batches(random.Random(f"{w.name}:{seed}"))))]
    print("  counts (first batch) " + json.dumps(input_counts(w, first)))
    report_failures(w, ops)
    return {"ops": ops, "metrics": metrics}


def traced(w, seed: int, seconds: float, tmp: Path) -> dict:
    import substrum.cli  # noqa: F401  (load every layer, so only deleted names read as absent)
    import substrum.report  # noqa: F401

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    targets = sorted({layer_target(m["name"]) for m in spec} - {None})
    values = {}
    for key, module in IMPORTS.items():
        values[f"import.{key}_s"] = statistics.median(
            fresh_import_s(module, tmp, False) for _ in range(IMPORT_REPEATS)
        )

    batch = next(w.batches(random.Random(f"{w.name}:{seed}")))
    ops: list[Op] = []
    plain_s = traced_s = 0.0
    total = {"self_s": {}, "calls": {}, "sizes": {}, "absent": []}
    traced_ops = cache_bytes = 0
    warm_up(w, tmp)
    gc.freeze()
    start = time.perf_counter()
    # alternate untraced and traced passes over the same batch, so that warm-up
    # does not land on one side of the overhead ratio
    while traced_ops == 0 or time.perf_counter() - start < seconds:
        plain = run_batch(w, batch, tmp)
        plain_s += sum(op.seconds for op in plain)
        if w.in_children:
            w.tracer_targets = targets
        else:
            w.tracer = spans.Tracer(targets)
            w.tracer.install()
            total["absent"] = w.tracer.absent
        try:
            passed = run_batch(w, batch, tmp)
        finally:
            if w.in_children:
                w.tracer_targets = None
            else:
                w.tracer.uninstall()
                w.tracer = None
        for op in passed:
            if op.spans:
                spans.merge(total, op.spans)
        traced_s += sum(op.seconds for op in passed)
        traced_ops += len(passed)
        ops += plain + passed
        cache_bytes += sum(op.cache_bytes for op in passed)
    gc.unfreeze()
    check_all(w, ops)

    per_op = traced_ops
    for m in spec:
        name = m["name"]
        if name in values:
            continue
        target = layer_target(name)
        field = name.rsplit(".", 1)[1]
        if target is not None and field == "self_s":
            values[name] = total["self_s"].get(target, 0.0) / per_op
        elif target is not None and field == "calls":
            values[name] = total["calls"].get(target, 0) / per_op
        elif target is not None:
            values[name] = total["sizes"].get(f"{target}.{field}", 0.0) / per_op
        elif name == "estimator.cache_bytes_written":
            values[name] = cache_bytes / per_op
        elif name == "trace.overhead_ratio":
            values[name] = traced_s / plain_s
    values.update(input_counts(w, ops[: len(batch)]))

    print(f"workload {w.name}  seed {seed}  seconds {seconds}  traced ops {traced_ops}  (per-op means)")
    for m in spec:
        print(f"  {m['name']:<46} {values[m['name']]:.6g} {m['unit']}")
    calls = {name: n / per_op for name, n in sorted(total["calls"].items())}
    print("  calls per op " + json.dumps(calls))
    if total["absent"]:
        print("  absent (reported as 0): " + ", ".join(total["absent"]))
    report_failures(w, ops)
    units = {m["name"]: m["unit"] for m in spec}
    return {"ops": ops, "metrics": {name: (values[name], units[name]) for name in units}}


def layer_target(metric: str) -> str | None:
    """'eigen.eigenvalues.self_s' -> 'eigen.eigenvalues' (the traced function)."""
    parts = metric.split(".")
    if len(parts) != 3 or parts[0] in ("import", "trace", "input", "verdict") or metric == "estimator.cache_bytes_written":
        return None
    module = "_kernels" if parts[0] == "kernels" else parts[0]
    return f"{module}.{parts[1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = ["cli-corpus", "classify-random", "analyze-random", "estimate-dim"]
    # known-defects is not in BENCHMARK.json: it runs inputs the program fails on
    parser.add_argument("--workload", required=True, choices=names + ["all", "known-defects"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "substrum" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no substrum package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import substrum

    if Path(substrum.__file__).resolve().parent != SRC / "substrum":
        print(f"perfbench: imported substrum from {substrum.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment()))
    results = {}
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=base))
    try:
        for name in names if args.workload == "all" else [args.workload]:
            w = make_workload(name, tmp)
            step = traced if args.trace else untraced
            results[name] = step(w, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()

    ops = [op for r in results.values() for op in r["ops"]]
    prefix = len(results) > 1
    metrics = {
        (f"{name}/{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, r in results.items()
        for metric, (value, unit) in r["metrics"].items()
    }
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
