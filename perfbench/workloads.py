"""The four workloads: seeded job streams, the calls they time, their checks.

A workload turns its seed into *cycles*: each cycle is one pass over the
workload's fixed instance pool in a seeded order, with seeded operands.
Every cycle after the first also runs *fresh* instances, ones the process
has not seen, of about the cost of pool jobs: their latency is the cold
latency.  Every cycle has the same composition, so two seeds differ in
order and operand values but not in how much work a cycle holds; that is
what keeps the figures steady from seed to seed.  Timing statistics are
taken over complete cycles only, leaving out the first cycle of an
in-process workload.

``run`` is the timed region and calls only public entry points of the
program with default options.  ``check`` (untimed) compares the output
against :mod:`perfbench.oracles`, which never imports the program.

The program is imported inside ``setup`` so that ``setup_s`` includes the
import, as a user's first call would.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

from perfbench import oracles

__all__ = ["WORKLOADS", "make_workload", "EXPECTED_DIR"]

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

DESIGNS = ("fig4", "fig5")
EXPANSIONS = ("I", "II")


@contextmanager
def layer(tracer, name: str):
    """Time one public call as a layer span and collect the program's own
    spans and counters under it; a no-op when the job is untraced."""
    if tracer is None:
        yield
        return
    from repro import obs

    with tracer.span(name):
        with obs.collecting() as registry:
            yield
        tracer.absorb(registry)


class Workload:
    """Base: ``cycle(k)`` gives the jobs of cycle ``k``; ``run`` times one
    job; ``check`` returns ``None`` or the reason the output is wrong."""

    name = ""
    #: the tail percentile reported as ``job_tail_ms``; the highest one
    #: with at least ten jobs beyond it at the fixed run length
    tail_pct = 95
    #: first cycle compared for the tracing overhead (cycle 0 holds the
    #: first uses of an in-process workload)
    overhead_from_cycle = 1
    #: instances the process has never seen, added to every cycle after
    #: the first; their latency is cold_job_p50_ms
    fresh_per_cycle = 1
    #: cycles before this one are left out of the end-to-end timing
    #: statistics (cycle 0 of an in-process workload introduces the pool;
    #: its first uses are timed as the fresh jobs of later cycles)
    timed_from_cycle = 1
    #: whether job_p50_ms and job_tail_ms include first-use jobs
    p50_includes_first_use = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.seen: set = set()

    def rng(self, k) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def cycle(self, k: int) -> list[dict]:
        """The pool in a seeded order, plus the next fresh instances."""
        rng = self.rng(k)
        items = list(self.pool)
        if k >= 1:
            n = self.fresh_per_cycle
            items += self.fresh[(k - 1) * n:k * n]
        rng.shuffle(items)
        return [self._job(item, rng) for item in items]

    def key(self, job: dict):
        raise NotImplementedError

    def first_use(self, job: dict) -> bool:
        """True the first time this process sees the job's instance."""
        key = self.key(job)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def prepare(self, job: dict) -> None:
        """Untimed per-job set-up before ``run``."""

    def finish(self, job: dict) -> None:
        """Untimed per-job clean-up after ``run``."""

    def features(self, job: dict, out: dict | None) -> dict:
        """Per-job facts recorded beside the timing (for the mix shares)."""
        return {}

    def mix(self, records: list[dict]) -> dict:
        n = len(records) or 1
        first = sum(r["first_use"] for r in records)
        return {"jobs": len(records), "first_use_share": first / n,
                "reuse_share": 1 - first / n}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

#: (u, p) of the pool's narrow-word rows; every size runs under both
#: designs and both expansions in every cycle.  The sizes form cost groups
#: (by u^3 p^2 index points) placed so that the median job falls in the
#: middle of the 864-1024 point group, not at a gap between groups.
SIM_SIZES = (
    (1, 1), (1, 8), (3, 3),
    (8, 1), (2, 8),
    (3, 6), (4, 4), (6, 2),
    (6, 3), (8, 2),
    (5, 5),
)
#: fresh instances: arrays of the middle group in another orientation
#: (space rows of T swapped, negated, or both), so equal in cost to pool
#: jobs but designs the process has not built.  Two join each later cycle,
#: so the cold jobs are spread over the run (a run holds 9 to 13 cycles).
SIM_FRESH_SIZES = ((3, 6), (4, 4))
SIM_ORIENTATIONS = ((True, False), (False, True), (True, True))


def orient(rows, swap: bool, negate: bool) -> list:
    """``T = [S; Π]`` with its two space rows swapped and/or negated: the
    same array mirrored or reflected, with the same makespan and PEs."""
    s1, s2, schedule = (list(r) for r in rows)
    if swap:
        s1, s2 = s2, s1
    if negate:
        s1, s2 = [-x for x in s1], [-x for x in s2]
    return [s1, s2, schedule]


#: wide words at u = 2, one per design, from the band p in [31, 36] where
#: the int64 accumulators of the fast backends overflow.  Fixed, and close
#: in cost, so that every seed does the same work; these four rows per
#: cycle are the workload's slowest tenth but one, so job_tail_ms (p95)
#: reads their latency.
WIDE = {"fig4": 33, "fig5": 34}


class Simulate(Workload):
    """Bit-level matmul runs on the paper's Fig. 4 / Fig. 5 arrays."""

    name = "simulate"
    tail_pct = 95
    fresh_per_cycle = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.expected: dict = {}
        plain = (False, False)
        self.pool = [(d, e, u, p, plain) for d in DESIGNS for e in EXPANSIONS
                     for u, p in SIM_SIZES]
        self.pool += [(d, e, 2, WIDE[d], plain) for d in DESIGNS
                      for e in EXPANSIONS]
        self.pool.append(("fig4", "II", 8, 8, plain))
        self.fresh = [(d, e, u, p, o) for d in DESIGNS for e in EXPANSIONS
                      for u, p in SIM_FRESH_SIZES for o in SIM_ORIENTATIONS]
        self.rng("fresh").shuffle(self.fresh)

    def setup(self) -> None:
        from repro.machine import BitLevelMatmulMachine, resolve_backend
        from repro.mapping import MappingMatrix, designs

        self.api = SimpleNamespace(
            designs=designs, resolve_backend=resolve_backend,
            MappingMatrix=MappingMatrix,
            BitLevelMatmulMachine=BitLevelMatmulMachine)
        # warm-up on an instance outside the pool
        job = self._job(("fig4", "II", 2, 3, (False, False)), self.rng("warmup"))
        reason = self.check(job, self.run(job, None))
        if reason:
            raise RuntimeError(f"warm-up job failed its check: {reason}")

    @staticmethod
    def _job(instance, rng) -> dict:
        design, expansion, u, p, orientation = instance

        def operand():
            return [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]

        return {"design": design, "expansion": expansion, "u": u, "p": p,
                "orientation": orientation, "x": operand(), "y": operand()}

    def key(self, job):
        return (job["design"], job["expansion"], job["u"], job["p"],
                job["orientation"])

    def run(self, job: dict, tracer) -> dict:
        api, u, p = self.api, job["u"], job["p"]
        with layer(tracer, "expansion.structure"):
            build = (api.designs.fig4_mapping if job["design"] == "fig4"
                     else api.designs.fig5_mapping)
            mapping = build(p)
            if any(job["orientation"]):
                mapping = api.MappingMatrix(orient(mapping.rows, *job["orientation"]))
            machine = api.BitLevelMatmulMachine(u, p, mapping, job["expansion"])
        with layer(tracer, "machine.run"):
            result = machine.run(job["x"], job["y"])
        return {
            "product": result.product,
            "makespan": result.sim.makespan,
            "pes": result.sim.processor_count,
            "backend": api.resolve_backend(machine.backend),
        }

    def check(self, job: dict, out: dict) -> str | None:
        key = (job["design"], job["u"], job["p"], job["orientation"])
        if key not in self.expected:
            rows = orient(oracles.paper_mapping(job["design"], job["p"]),
                          *job["orientation"])
            self.expected[key] = oracles.makespan_and_pes(rows, job["u"], job["p"])
        return oracles.check_simulate(job, out, *self.expected[key])

    def features(self, job, out):
        return {"points": job["u"] ** 3 * job["p"] ** 2,
                "wide": job["p"] >= 31,
                "backend": out["backend"] if out else None}

    def mix(self, records):
        shares = super().mix(records)
        n = len(records) or 1
        shares["wide_word_share"] = sum(r["wide"] for r in records) / n
        return shares


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

#: (u, p, primitives, target_space_dim, frontier, block_values); every
#: slot runs under both expansions in every cycle.  Chosen so a cycle mixes
#: design-rich, zero-result, 1-D and frontier searches and stays short
#: (about 2.5 s), so a run holds enough cycles; the cost groups are placed
#: so that the median and p80 fall inside a group, not at a gap between
#: two.  The seed sets only the order, so every seed does the same work.
SEARCH_SLOTS = (
    (2, 2, "fig4", 2, None, (2,)),
    (2, 2, "mesh", 2, None, (2,)),
    (2, 2, "mesh", 1, None, (2,)),
    (1, 2, "fig5", 2, None, (2,)),
    (3, 1, "fig5", 2, None, (1,)),
    (2, 1, "fig5", 2, ("time", "processors"), (1,)),
)
#: the pool's 2-D mesh search with other block values: the same cost, but
#: searches the process has not run.  One joins each later cycle, so the
#: cold jobs are spread over the run; the six are used up by cycle 6,
#: inside every run (7 to 10 cycles), so every run times the same ones.
SEARCH_FRESH = tuple((2, 2, "mesh", 2, None, (b,)) for b in (1, 3, 4))
#: the untimed warm-up search of set-up
SEARCH_WARMUP = (1, 1, "mesh", 1, None, (1,))


def search_key(u, p, expansion, primitives, dim, frontier, block) -> str:
    front = "+".join(frontier) if frontier else "none"
    blocks = "+".join(str(b) for b in block)
    return f"u{u}-p{p}-{expansion}-{primitives}-d{dim}-f{front}-b{blocks}"


def search_instances(slots=SEARCH_SLOTS + SEARCH_FRESH + (SEARCH_WARMUP,)):
    """Every (slot, expansion) instance; by default all the workload can
    draw (the expected file's keys)."""
    for u, p, prims, dim, frontier, block in slots:
        for expansion in EXPANSIONS:
            yield u, p, expansion, prims, dim, frontier, block


class Search(Workload):
    """Definition 4.1 design-space searches on bit-level matmul."""

    name = "search"
    tail_pct = 80

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = list(search_instances(SEARCH_SLOTS))
        self.fresh = list(search_instances(SEARCH_FRESH))
        self.rng("fresh").shuffle(self.fresh)
        with open(EXPECTED_DIR / "search.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)["results"]
        self.verified: set = set()

    def setup(self) -> None:
        from repro import matmul_bit_level, search_designs
        from repro.mapping import SearchConfig, designs
        from repro.mapping.interconnect import mesh_primitives

        self.api = SimpleNamespace(
            matmul_bit_level=matmul_bit_level, search_designs=search_designs,
            SearchConfig=SearchConfig, designs=designs,
            mesh_primitives=mesh_primitives)
        job = self._job(next(search_instances((SEARCH_WARMUP,))), None)
        reason = self.check(job, self.run(job, None))
        if reason:
            raise RuntimeError(f"warm-up job failed its check: {reason}")

    @staticmethod
    def _job(instance, rng) -> dict:
        u, p, expansion, prims, dim, frontier, block = instance
        return {"u": u, "p": p, "expansion": expansion, "primitives": prims,
                "dim": dim, "frontier": frontier, "block": block}

    def key(self, job):
        return search_key(job["u"], job["p"], job["expansion"],
                          job["primitives"], job["dim"], job["frontier"],
                          job["block"])

    def run(self, job, tracer):
        api, u, p = self.api, job["u"], job["p"]
        with layer(tracer, "expansion.structure"):
            algorithm = api.matmul_bit_level(u, p, job["expansion"])
            primitives = {
                "fig4": lambda: api.designs.fig4_primitives(p),
                "fig5": api.designs.fig5_primitives,
                "mesh": lambda: api.mesh_primitives(job["dim"]),
            }[job["primitives"]]()
        config = api.SearchConfig(target_space_dim=job["dim"],
                                  block_values=job["block"],
                                  frontier=job["frontier"])
        with layer(tracer, "mapping.search"):
            found = api.search_designs(algorithm, {"u": u, "p": p}, primitives,
                                       config)
        return {
            "designs": [
                {"rows": [list(r) for r in c.mapping.rows], "time": c.time,
                 "processors": c.processors}
                for c in found
            ],
            "backend": config.resolved_strategy,
        }

    def check(self, job, out):
        key = self.key(job)
        for design in out["designs"]:
            signature = (key, json.dumps(design))
            if signature in self.verified:
                continue
            reason = oracles.check_design(design, job["u"], job["p"])
            if reason:
                return f"{key}: {reason}"
            self.verified.add(signature)
        want = self.expected.get(key)
        if want is None:
            return f"no expected result for {key}"
        if out["designs"] != want:
            return f"{key}: designs differ from the catalog-strategy reference"
        return None

    def features(self, job, out):
        return {"zero_result": bool(out) and not out["designs"],
                "backend": out["backend"] if out else None}

    def mix(self, records):
        shares = super().mix(records)
        n = len(records) or 1
        shares["zero_result_share"] = sum(r["zero_result"] for r in records) / n
        shares["frontier_share"] = sum(
            "-fnone" not in r["key"] for r in records) / n
        return shares


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

#: model-(3.5) programs (h1, h2, h3) at concrete sizes (u, p), each run
#: under both expansions in every cycle.  Programs recur at several sizes
#: so the symbolic solve of a program is reused in-process.
ANALYZE_SLOTS = (
    (((1,), (1,), (1,)), 5, 4),
    (((1,), (1,), (1,)), 3, 2),
    (((2,), (1,), (1,)), 5, 4),
    (((1, 0), (0, 1), (1, 1)), 5, 4),
    (((1, 0), (0, 1), (1, 1)), 3, 3),
    (((1, -1), (0, 1), (1, 2)), 4, 3),
    (((0, 1), (1, -2), (1, 0)), 5, 4),
    (((0, 1), (1, 0), (1, 1)), 4, 2),
    (((0, 1, 0), (1, 0, 0), (0, 0, 1)), 3, 3),
    (((0, 1, 0), (1, 0, 0), (0, 0, 1)), 2, 4),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3, 2),
)


def analyze_fresh_programs():
    """24 2-D model-(3.5) programs with unit steps, none of the pool's: a
    new program means a new symbolic solve.  Run at u = 4, p = 3 under
    Expansion II they cost about the same (Expansion I is cheaper, so
    mixing the two would split the cold jobs into two cost groups).  One
    joins each later cycle; all are used up by cycle 24, inside every run,
    so every run times the same cold jobs however fast the machine is."""
    steps = ((0, 1), (1, -1), (1, 0), (1, 1))
    pool = {h for h, _u, _p in ANALYZE_SLOTS}
    fresh = [h for h in itertools.product(steps, repeat=3) if h not in pool]
    return fresh[:24]


class Analyze(Workload):
    """General vs compositional vs symbolic dependence analysis."""

    name = "analyze"
    tail_pct = 95

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = [(h, u, p, expansion) for h, u, p in ANALYZE_SLOTS
                     for expansion in EXPANSIONS]
        self.fresh = [(h, 4, 3, "II") for h in analyze_fresh_programs()]
        self.rng("fresh").shuffle(self.fresh)
        self.expected: dict = {}

    def setup(self) -> None:
        from repro import analyze
        from repro.depanalysis.engine import resolve_backend
        from repro.expansion.theorem31 import bit_level_from_vectors
        from repro.ir.expand import expand_bit_level
        from repro.structures.params import S
        from repro.symbolic import analyze_symbolic

        self.api = SimpleNamespace(
            analyze=analyze, resolve_backend=resolve_backend,
            bit_level_from_vectors=bit_level_from_vectors,
            expand_bit_level=expand_bit_level, S=S,
            analyze_symbolic=analyze_symbolic)
        job = self._job((((1,), (2,), (1,)), 2, 2, "II"), None)
        reason = self.check(job, self.run(job, None))
        if reason:
            raise RuntimeError(f"warm-up job failed its check: {reason}")

    @staticmethod
    def _job(instance, rng) -> dict:
        (h1, h2, h3), u, p, expansion = instance
        return {"h": [list(h1), list(h2), list(h3)], "u": u, "p": p,
                "expansion": expansion}

    def key(self, job):
        return (json.dumps(job["h"]), job["u"], job["p"], job["expansion"])

    def run(self, job, tracer):
        api, (h1, h2, h3) = self.api, job["h"]
        n, u, p, expansion = len(h1), job["u"], job["p"], job["expansion"]
        lowers = [1] * n
        with layer(tracer, "ir.expand"):
            program = api.expand_bit_level(h1, h2, h3, lowers, [u] * n, p,
                                           expansion)
        with layer(tracer, "depanalysis.analyze"):
            concrete = api.analyze(program, {"p": p})
        with layer(tracer, "expansion.theorem31"):
            structure = api.bit_level_from_vectors(h1, h2, h3, lowers, [u] * n,
                                                   p, expansion)
        with layer(tracer, "ir.expand"):
            free = api.expand_bit_level(h1, h2, h3, lowers, [api.S("u")] * n,
                                        api.S("p"), expansion)
        with layer(tracer, "symbolic.solve"):
            symbolic = api.analyze_symbolic(free)
        with layer(tracer, "symbolic.instantiate"):
            summary = symbolic.summary({"u": u, "p": p})
        return {
            "concrete_vectors": [list(v) for v in concrete.distinct_vectors()],
            "concrete_count": len(concrete.instances),
            "structure": [(v.vector, v.validity) for v in structure.dependences],
            "symbolic_count": summary["instances"],
            "symbolic_vectors": [list(v) for v in summary["distinct_vectors"]],
            "backend": api.resolve_backend(None),
        }

    def check(self, job, out):
        n, u, p = len(job["h"][0]), job["u"], job["p"]
        signature = (self.key(job),
                     tuple((v, repr(c)) for v, c in out["structure"]))
        if signature not in self.expected:
            binding = {"u": u, "p": p}
            vectors = [(v, lambda q, c=c: c.holds(q, binding))
                       for v, c in out["structure"]]
            self.expected[signature] = oracles.effective_vectors(
                vectors, [1] * (n + 2), [u] * n + [p, p])
        return oracles.check_analyze(out, self.expected[signature])

    def features(self, job, out):
        return {"backend": out["backend"] if out else None}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

#: modules whose import time is reported (the five largest under
#: ``-X importtime`` when this benchmark was written)
IMPORT_MODULES = ("numpy", "hypothesis", "repro.depanalysis", "repro.verify",
                  "repro.mapping")
_BACKEND = re.compile(r"backend=(\w+)")
_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import milliseconds per module, first import only."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(2) not in out:
            out[match.group(2)] = int(match.group(1)) / 1000.0
    return out


def _normalize(line: str) -> str:
    return " ".join(line.split())


def _flags(command) -> dict:
    """``{"--flag": value}`` of a command line; bare flags map to ``True``."""
    out: dict = {}
    for i, token in enumerate(command):
        if token.startswith("--"):
            nxt = command[i + 1] if i + 1 < len(command) else "--"
            out[token] = True if nxt.startswith("--") else nxt
    return out


class Cli(Workload):
    """Fresh ``python -m repro`` processes against an empty and a primed
    ``REPRO_CACHE_DIR``."""

    name = "cli"
    #: fifteen warm jobs per run, so no percentile above the median has
    #: ten jobs beyond it: the tail is reported at the median
    tail_pct = 50
    overhead_from_cycle = 0
    timed_from_cycle = 0
    #: job_p50_ms and job_tail_ms are over warm-cache jobs only
    p50_includes_first_use = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # A fixed command set, so every seed does the same work; the seed
        # sets the order and the simulated operands.
        self.commands = [
            ["analyze", "--u", "2", "--p", "3"],
            ["analyze", "--symbolic", "--u", "3", "--p", "2"],
            ["design", "--u", "3", "--p", "3"],
            ["search", "--u", "2", "--p", "2"],
            ["simulate", "--u", "3", "--p", "3", "--seed",
             str(self.rng("operands").randrange(1 << 16))],
        ]
        with open(EXPECTED_DIR / "cli.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.warm_dir = workdir / "warm-cache"
        self.env = dict(os.environ)

    def _spawn(self, command, cache_dir: Path, traced: bool, metrics=None):
        argv = [sys.executable]
        if traced:
            argv += ["-X", "importtime"]
        argv += ["-m", "repro", *command]
        if traced:
            argv += ["--metrics-out", str(metrics), "--quiet-metrics"]
        env = dict(self.env, REPRO_CACHE_DIR=str(cache_dir))
        return subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=120, cwd=self.workdir)

    def setup(self) -> None:
        """Prime the warm cache: every command of the stream runs once."""
        if self.warm_dir.exists():
            shutil.rmtree(self.warm_dir)
        self.warm_dir.mkdir(parents=True)
        for command in self.commands:
            proc = self._spawn(command, self.warm_dir, False)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"priming {' '.join(command)} exited {proc.returncode}: "
                    f"{proc.stderr.strip()[-400:]}")

    def cycle(self, k):
        """Every command once against an empty and once against the primed
        cache, commands in a seeded order, cold and warm alternating."""
        order = list(self.commands)
        self.rng(k).shuffle(order)
        jobs = []
        for i, command in enumerate(order):
            modes = ("cold", "warm") if (k + i) % 2 == 0 else ("warm", "cold")
            jobs += [{"command": command, "mode": mode} for mode in modes]
        return jobs

    def key(self, job):
        return " ".join(job["command"])

    def first_use(self, job):
        return job["mode"] == "cold"

    def prepare(self, job) -> None:
        if job["mode"] == "cold":
            job["cache_dir"] = Path(tempfile.mkdtemp(prefix="cold-",
                                                     dir=self.workdir))
        else:
            job["cache_dir"] = self.warm_dir

    def finish(self, job) -> None:
        if job["mode"] == "cold":
            shutil.rmtree(job["cache_dir"], ignore_errors=True)

    def run(self, job, tracer):
        if tracer is None:
            proc = self._spawn(job["command"], job["cache_dir"], False)
            return {"returncode": proc.returncode, "stdout": proc.stdout}
        metrics_file = self.workdir / "metrics.json"
        start = time.perf_counter()
        proc = self._spawn(job["command"], job["cache_dir"], True, metrics_file)
        self._attribute(tracer, job, proc, metrics_file, start)
        return {"returncode": proc.returncode, "stdout": proc.stdout}

    def _attribute(self, tracer, job, proc, metrics_file, start) -> None:
        """Split a traced process's wall time into import, command and the
        unattributed rest, from ``-X importtime`` and ``--metrics-out``."""
        imports = parse_importtime(proc.stderr)
        import_s = imports.get("repro", 0.0) / 1000.0
        try:
            with open(metrics_file, encoding="utf-8") as fh:
                metrics = json.load(fh)
            metrics_file.unlink()
        except (OSError, ValueError):
            metrics = {"counters": {}, "spans": {}}
        command_s = metrics["spans"].get(
            f"cli.{job['command'][0]}", {}).get("total_s", 0.0)
        tracer.add_span("cli.import", start, start + import_s)
        tracer.add_span("cli.command", start + import_s,
                        start + import_s + command_s)
        counts = {f"cli.import.{m}_ms": imports.get(m, 0.0)
                  for m in IMPORT_MODULES}
        counts.update(metrics["counters"])
        tracer.add_counts(counts)

    def verdicts(self, command) -> list[str]:
        """The lines a correct run must print, from the benchmark's own
        formulas and the expected file."""
        kind = command[0]
        args = _flags(command)
        u, p = int(args["--u"]), int(args["--p"])
        if kind == "analyze":
            want = self.expected["analyze"][f"u{u}-p{p}-II"]
            counted = (f"{want['instances']} dependence instances, "
                       f"{want['vectors']} distinct vectors")
            if "--symbolic" in args:
                return [f"instantiated at u={u} p={p}: {counted}"]
            return [counted]
        if kind == "design":
            ok = "ΠD>0:ok, SD=PK:ok, no-conflict:ok, rank:ok, coprime:ok"
            lines = []
            for design, title in (("fig4", "Fig. 4 (time-optimal)"),
                                  ("fig5", "Fig. 5 (nearest-neighbour)")):
                t, pes = oracles.makespan_and_pes(
                    oracles.paper_mapping(design, p), u, p)
                lines += [f"{title}: {ok}", f"t = {t}, PEs = {pes}"]
            return lines
        if kind == "search":
            rows = self.expected["search"][f"u{u}-p{p}-II"]
            if not rows:
                return ["no feasible design within the search bounds"]
            return [
                f"{rank} | {d['time']} | {d['processors']} | "
                + "; ".join(str(list(r)) for r in d["rows"])
                for rank, d in enumerate(rows, 1)
            ]
        if kind == "simulate":
            t, pes = oracles.makespan_and_pes(
                oracles.paper_mapping("fig4", p), u, p)
            return [f"makespan: {t} PEs: {pes}",
                    f"product correct (mod 2^{2 * p - 1}): True"]
        raise ValueError(f"no verdict for {command!r}")

    def check(self, job, out):
        return oracles.check_cli(out["returncode"],
                                 "\n".join(_normalize(line) for line in
                                           out["stdout"].splitlines()),
                                 self.verdicts(job["command"]))

    def features(self, job, out):
        backend = _BACKEND.search(out["stdout"]) if out else None
        return {"cold": job["mode"] == "cold",
                "backend": backend.group(1) if backend else None}

    def mix(self, records):
        n = len(records) or 1
        cold = sum(r["cold"] for r in records)
        return {"jobs": len(records), "cold_share": cold / n,
                "warm_share": 1 - cold / n,
                "commands": sorted({r["key"] for r in records})}


WORKLOADS = {w.name: w for w in (Simulate, Search, Analyze, Cli)}


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
