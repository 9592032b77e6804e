"""Run one workload of the benchmark: set-up, timed rounds, checks and
metrics.

A round submits every operation of the workload one at a time through
``repro.harness.runner.run_batch`` (one worker, no process pool) with a
fresh result cache and a fresh checkpoint store, so nothing is served
from an earlier round. Every timed call sits between two samples of a
pure-Python spin loop (:mod:`calib`), which reports its host time at a
fixed reference speed.
"""

import dataclasses
import gc
import math
import os
import resource
import shutil
import statistics
import time

from repro.compiler import Module
from repro.emu.emulator import Emulator
from repro.harness import runner
from repro.harness.cache import ResultCache
from repro.sampling.checkpoint import CheckpointStore, spec_key
from repro.sampling.simpoint import SimPointSelection
from repro.utils.bits import to_signed

from calib import factor, spin, timed
from inputs import (SEEDED, WORKLOADS, build_programs, reference_ops,
                    workload_ops)
from tracer import Probe, Tracer

_CLOCK = time.perf_counter

#: Cold set-ups (build + predecode) per run; ``setup_s`` takes the median.
SETUP_REPS = 5


# ---------------------------------------------------------------------------
# Independent expectations
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Expected:
    """What a program must produce, computed apart from the simulator:
    ``result`` by the module's ``run_native()`` Python oracle, ``insts``
    by the interpretive emulator."""

    result: int
    insts: int


def expectations(built):
    """``{(workload, scale): Expected}`` for every built program."""
    out = {}
    saved = os.environ.get("REPRO_SLOWPATH")
    os.environ["REPRO_SLOWPATH"] = "1"   # the interpretive emulator
    try:
        for key, (mod, prog) in built.items():
            emu = Emulator(prog, superblock=False)
            out[key] = Expected(mod.run_native()[0], emu.run().inst_count)
    finally:
        if saved is None:
            del os.environ["REPRO_SLOWPATH"]
        else:
            os.environ["REPRO_SLOWPATH"] = saved
    return out


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class OpResult:
    """Outcome of one operation in one round."""

    op: object
    stats: object = None
    failures: list = dataclasses.field(default_factory=list)
    seconds: float = 0.0         # host time of the run_batch call
    prepare: float = 0.0         # of which before the first core existed
    factor: float = 1.0          # reference-speed factor
    result: int = None           # $result word of a full run
    regs: list = None            # final architectural registers
    core: dict = None            # counters summed over the job's cores
    layers: tuple = None         # (totals, counts) when traced

    @property
    def ok(self):
        return not self.failures

    @property
    def detailed_insts(self):
        """Instructions the detailed core committed for this job."""
        return self.core["committed"]


def _core_counters(cores):
    out = dict.fromkeys(("committed", "fetched", "squashed",
                         "cond_mispredicts", "reuse_tests",
                         "reuse_successes", "l1d_hits", "l1d_misses",
                         "dram_accesses", "mshr_merges", "mshr_stalls"), 0)
    for core in cores:
        stats = core.stats
        out["committed"] += stats.committed_insts
        out["fetched"] += stats.fetched_insts
        out["squashed"] += stats.squashed_insts
        out["cond_mispredicts"] += stats.cond_mispredicts
        out["reuse_tests"] += stats.reuse_tests
        out["reuse_successes"] += stats.reuse_successes
        mem = core.hierarchy.stats()
        out["l1d_hits"] += mem.get("l1d_hits", mem.get("l1_hits", 0))
        out["l1d_misses"] += mem.get("l1d_misses", mem.get("l1_misses", 0))
        for key in ("dram_accesses", "mshr_merges", "mshr_stalls"):
            out[key] += mem.get(key, 0)
    return out


def _check(res, expected, built, ckpt_dir, probe):
    """Append every failed check of one finished operation."""
    job = res.op.job
    stats = res.stats
    fail = res.failures.append
    if job.sampling is None:
        if stats.committed_insts != expected.insts:
            fail("committed %d instructions, emulator %d"
                 % (stats.committed_insts, expected.insts))
        _mod, prog = built[(job.workload, job.scale)]
        final = probe.results[-1]
        res.result = to_signed(Module.read_result(prog, final.memory))
        res.regs = list(final.regs)
        if res.result != expected.result:
            fail("$result %d, run_native() %d"
                 % (res.result, expected.result))
    else:
        if stats.committed_insts != expected.insts:
            fail("total_insts %d, emulator %d"
                 % (stats.committed_insts, expected.insts))
        key = spec_key({"sampling": job.sampling_spec.spec(),
                        "target": {"workload": job.workload,
                                   "scale": job.scale}})
        payload = CheckpointStore(directory=ckpt_dir).get(key)
        if payload is None:
            fail("no checkpoint-store entry")
        else:
            weights = [point.weight for point in SimPointSelection
                       .from_dict(payload["selection"]).points]
            if not math.isclose(sum(weights), 1.0, abs_tol=1e-9):
                fail("SimPoint weights sum to %r" % sum(weights))
    config = job.build_config()
    if config.mem.model == "ported":
        if stats.mem_mshr_peak > config.mem.mshrs:
            fail("MSHR peak %d > mem.mshrs %d"
                 % (stats.mem_mshr_peak, config.mem.mshrs))
        # A port's DRAM counter against its L1's miss counter: kept by
        # different code (MemPort.request and Cache.lookup).
        for core in probe.cores:
            mem = core.hierarchy
            for port, l1 in ((mem.dport, mem.l1d), (mem.iport, mem.l1i)):
                if port.dram_accesses > l1.misses:
                    fail("%s DRAM accesses %d > %s misses %d"
                         % (port.name, port.dram_accesses, l1.name,
                            l1.misses))


def _check_pairs(results):
    """``baseline`` and ``mssr`` runs of one program must agree."""
    runs = {}
    for res in results:
        job = res.op.job
        if res.stats is not None:
            runs.setdefault(job.workload, {})[job.kind] = res
    for pair in runs.values():
        base, mssr = pair.get("baseline"), pair.get("mssr")
        if base is None or mssr is None:
            continue
        if base.stats.committed_insts != mssr.stats.committed_insts:
            mssr.failures.append("committed %d, baseline %d"
                                 % (mssr.stats.committed_insts,
                                    base.stats.committed_insts))
        if (base.result, base.regs) != (mssr.result, mssr.regs):
            mssr.failures.append("final state differs from baseline")


class Runner:
    """Runs rounds of one workload's operations and keeps the results."""

    def __init__(self, workload, seed, scratch, tracer=None):
        self.name = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.ops = workload_ops(workload, seed)
        self.scratch = scratch
        self.tracer = tracer
        self.probe = Probe()
        self.built = None
        self.expected = None
        self.references = {}
        self.rounds = 0

    # ------------------------------------------------------------------
    def setup(self, reps=SETUP_REPS):
        """Cold-build the programs ``reps`` times; returns each rep's
        ``(seconds, speed factor, layers)``."""
        reps_out = []
        for _ in range(reps):
            if self.tracer is not None:
                self.tracer.begin_job("setup")
            built, seconds, speed = timed(build_programs, self.ops)
            layers = self.tracer.end_job() if self.tracer else None
            reps_out.append((seconds, speed, layers))
        self.built = built
        return reps_out

    def run_references(self):
        """Run the accuracy references of a sampled workload once,
        untimed and untraced; keeps them by program."""
        self.references = {res.op.program: res for res in self._pass(
            reference_ops(self.name, self.seed), "ref", False)}

    def run_round(self, traced=False):
        """One pass over every operation; returns its OpResults."""
        self.rounds += 1
        results = self._pass(self.ops, "round%d" % self.rounds, traced)
        _check_pairs(results)
        return results

    def _pass(self, ops, name, traced):
        """Run ``ops`` in order with a fresh result cache and checkpoint
        store."""
        pass_dir = os.path.join(self.scratch, name)
        ckpt_dir = os.path.join(pass_dir, "checkpoints")
        os.environ["REPRO_CKPT_DIR"] = ckpt_dir
        cache = ResultCache(directory=os.path.join(pass_dir, "results"))
        results = []
        self.probe.install()
        try:
            for index, op in enumerate(ops):
                results.append(self._run_op(op, "%s:%d:%s" % (
                    name, index, op.job.job_hash()[:12]),
                    cache, ckpt_dir, traced))
        finally:
            self.probe.uninstall()
            shutil.rmtree(pass_dir, ignore_errors=True)
        return results

    def _run_op(self, op, job_id, cache, ckpt_dir, traced):
        probe = self.probe
        tracer = self.tracer if traced else None
        probe.reset()
        # Free the previous job's cyclic garbage outside the timed call,
        # so neither its collection time nor its memory lands on this one.
        gc.collect()
        res = OpResult(op)
        if tracer is not None:
            tracer.install()
            tracer.begin_job(job_id)
        before = spin()
        start = _CLOCK()
        try:
            report = runner.run_batch([op.job], n_jobs=1, cache=cache,
                                      memo={}, strict=False)
        finally:
            end = _CLOCK()
            if tracer is not None:
                res.layers = tracer.end_job()
                tracer.uninstall()
        res.factor = factor(before, spin())
        res.seconds = end - start
        if op.sampled and probe.first_core_at is not None:
            res.prepare = probe.first_core_at - start
        res.core = _core_counters(probe.cores)
        res.stats = report.results[op.job]
        if op.job in report.errors:
            res.failures.append(report.errors[op.job].strip()
                                .splitlines()[-1])
        else:
            _check(res, self.expected[(op.job.workload, op.job.scale)],
                   self.built, ckpt_dir, probe)
        probe.reset()
        return res

    def run_for(self, seconds, traced=False, min_rounds=1):
        """Whole rounds until ``seconds`` have passed and at least
        ``min_rounds`` have run."""
        rounds = []
        start = _CLOCK()
        while len(rounds) < min_rounds or _CLOCK() - start < seconds:
            rounds.append(self.run_round(traced))
        return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def peak_rss_mb():
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per(total, count):
    return total / count if count else 0.0


def _finished(rounds):
    """Operations that returned statistics. Host time counts every one
    of them; a failed check discards the result, not the work."""
    return [res for results in rounds for res in results
            if res.stats is not None]


def _cycles_by_kind(results, programs=None):
    """Summed cycles per kind over programs (all, or those in
    ``programs``) whose baseline and mssr runs both passed (the sampled
    estimate for sampled runs)."""
    runs = {}
    for res in results:
        if programs is None or res.op.program in programs:
            runs.setdefault(res.op.job.workload, {})[res.op.job.kind] = res
    base = mssr = 0
    for pair in runs.values():
        if "baseline" in pair and "mssr" in pair \
                and pair["baseline"].ok and pair["mssr"].ok:
            base += pair["baseline"].stats.cycles
            mssr += pair["mssr"].stats.cycles
    return base, mssr


def simulated_metrics(spec, results, references):
    """The simulated metrics of one round; 0 where the workload does not
    run what a metric needs. The speed-up sums only the programs whose
    input the seed does not change, so that it is a property of the
    simulator, not of one seed's bfs graph."""
    speedup = error = 0.0
    if not spec.sampled and "mssr" in spec.kinds:
        base, mssr = _cycles_by_kind(results, {
            program for program, _scale in spec.programs} - SEEDED)
        speedup = 100.0 * _per(base - mssr, base)
    if spec.sampled:
        full = {program: ref.stats.ipc for program, ref in references.items()
                if ref.ok}
        errors = [abs(res.stats.ipc - full[res.op.program])
                  / full[res.op.program] for res in results
                  if res.ok and res.op.program in full
                  and res.op.job.kind == "baseline"]
        error = 100.0 * _per(sum(errors), len(errors))
    return {"mssr_speedup_pct": (speedup, "%"),
            "sampled_ipc_err_pct": (error, "%")}


def _round_kips(rounds, insts, seconds):
    """Median over rounds of ``sum(insts) / sum(seconds)`` in kinst/s;
    ``insts`` and ``seconds`` map one finished operation to a number.
    The median keeps one slow round from moving the run's figure."""
    return statistics.median(
        sum(map(insts, done)) / sum(map(seconds, done)) / 1000.0
        for done in (_finished([results]) for results in rounds))


def sampled_kips(rounds):
    """Whole-program instructions estimated per host second of a round's
    sampled runs, set-up included, at reference speed; the median over
    rounds."""
    return _round_kips(rounds, lambda res: res.stats.committed_insts,
                       lambda res: res.seconds * res.factor)


def end_to_end(spec, rounds, setup_reps, import_s):
    """Every end-to-end metric of an untraced run, plus the same host
    times without calibration (``raw``)."""
    setups = [seconds * speed for seconds, speed, _ in setup_reps]
    setup_raw = [seconds for seconds, _speed, _ in setup_reps]
    import_cal, import_raw = import_s
    setup = import_cal + statistics.median(setups)
    raw_setup = import_raw + statistics.median(setup_raw)
    if spec.sampled:
        prepare = [sum(res.prepare * res.factor for res in results)
                   for results in rounds]
        setup += statistics.median(prepare)
        raw_setup += statistics.median(
            [sum(res.prepare for res in results) for results in rounds])

    def detailed(res):
        return res.detailed_insts

    metrics = {
        "setup_s": (setup, "s"),
        "sim_kips": (_round_kips(rounds, detailed, lambda res: (
            res.seconds - res.prepare) * res.factor), "kinst/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    raw = {"setup_s": raw_setup,
           "sim_kips": _round_kips(rounds, detailed, lambda res:
                                   res.seconds - res.prepare)}
    return metrics, raw


def layer_metrics(spec, setup_reps, traced_rounds, untraced_rounds,
                  references):
    """Every per-layer metric of a traced run, per round (set-up layers
    per cold set-up). Host times are at reference speed; ``sampled_kips``
    comes from the untraced rounds."""
    totals = {}
    counts = {}
    sampled_init = [0.0, 0]       # core construction + warm-up, intervals
    core = dict.fromkeys(_core_counters(()), 0)
    mssr_core = dict.fromkeys(_core_counters(()), 0)
    sampled_detail = sampled_whole = jobs = 0
    for results in traced_rounds:
        for res in results:
            if res.stats is None:
                continue
            jobs += 1
            layer_totals, layer_counts = res.layers
            for key, (calls, total, child) in layer_totals.items():
                entry = totals.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total * res.factor
                entry[2] += child * res.factor
            for key, value in layer_counts.items():
                counts[key] = counts.get(key, 0) + value
            for key, value in res.core.items():
                core[key] += value
                if res.op.job.kind == "mssr":
                    mssr_core[key] += value
            if res.op.sampled:
                init = layer_totals.get("pipeline.init", [0, 0.0, 0.0])
                warm = layer_totals.get("sampling.warm", [0, 0.0, 0.0])
                sampled_init[0] += (init[1] + warm[1]) * res.factor
                sampled_init[1] += init[0]
                sampled_detail += res.detailed_insts
                sampled_whole += res.stats.committed_insts
    rounds = len(traced_rounds)
    zero = [0, 0.0, 0.0]

    def calls(key):
        return totals.get(key, zero)[0]

    def total(key):
        return totals.get(key, zero)[1]

    def self_s(*keys):
        return sum(totals.get(key, zero)[1] - totals.get(key, zero)[2]
                   for key in keys)

    setup_total = {}
    for _seconds, speed, (layer_totals, _counts) in setup_reps:
        for key, (_calls, seconds, _child) in layer_totals.items():
            setup_total[key] = setup_total.get(key, 0.0) + seconds * speed
    reps = len(setup_reps)

    def job_seconds(all_rounds):
        return _per(sum(res.seconds * res.factor for res in
                        _finished(all_rounds)), len(all_rounds))

    base_cycles, mssr_cycles = 0, 0
    for results in traced_rounds:
        base, mssr = _cycles_by_kind(results)
        base_cycles += base
        mssr_cycles += mssr
    cycles = calls("pipeline.loop")
    mem_self = self_s("mem.access", "mem.icache", "mem.warm")
    squash_calls = calls("pipeline.squash")
    metrics = {
        "workloads.build_s": (_per(setup_total.get("workloads.build", 0.0),
                                   reps), "s"),
        "isa.predecode_s": (_per(setup_total.get("isa.predecode", 0.0),
                                 reps), "s"),
        "harness.overhead_ms_per_job": (1000.0 * _per(
            total("harness.batch") - total("harness.execute"), jobs),
            "ms/job"),
        "emu.insts": (_per(counts.get("emu.insts", 0), rounds), "count"),
        "emu.kips": (_per(counts.get("emu.insts", 0), total("emu"))
                     / 1000.0, "kinst/s"),
        "sampling.profile_s": (_per(total("sampling.profile"), rounds),
                               "s"),
        "sampling.simpoint_s": (_per(total("sampling.simpoint"), rounds),
                                "s"),
        "sampling.checkpoint_s": (_per(total("sampling.checkpoint"),
                                       rounds), "s"),
        "sampling.store_writes": (_per(calls("sampling.store_put"), rounds),
                                  "count"),
        "sampling.store_reads": (_per(counts.get("sampling.store_reads", 0),
                                      rounds), "count"),
        "sampling.interval_init_ms": (1000.0 * _per(*sampled_init),
                                      "ms/interval"),
        "sampling.detailed_frac": (_per(sampled_detail, sampled_whole),
                                   "ratio"),
        "pipeline.cycles": (_per(cycles, rounds), "count"),
        "pipeline.idle_cycles": (_per(counts.get("pipeline.idle_cycles", 0),
                                      rounds), "count"),
        "pipeline.ns_per_cycle": (1e9 * _per(total("pipeline.loop"), cycles),
                                  "ns/cycle"),
        "pipeline.loop.self_s": (_per(self_s("pipeline.loop"), rounds), "s"),
    }
    for stage in ("commit", "writeback", "execute", "rename", "fetch"):
        metrics["pipeline.%s.self_s" % stage] = (
            _per(self_s("pipeline." + stage), rounds), "s")
    metrics.update({
        "pipeline.squash.self_s": (_per(self_s("pipeline.squash"), rounds),
                                   "s"),
        "pipeline.squash.calls": (_per(squash_calls, rounds), "count"),
        "pipeline.squash.us_per_call": (
            1e6 * _per(total("pipeline.squash"), squash_calls), "us/call"),
        "pipeline.useful_fetch_ratio": (
            _per(core["committed"], core["fetched"]), "ratio"),
        "frontend.self_s": (_per(self_s("frontend"), rounds), "s"),
        "frontend.blocks": (_per(counts.get("frontend.blocks", 0), rounds),
                            "count"),
        "frontend.ns_per_block": (
            1e9 * _per(self_s("frontend"), counts.get("frontend.blocks", 0)),
            "ns/block"),
        "frontend.cond_mpki": (
            1000.0 * _per(core["cond_mispredicts"], core["committed"]),
            "1/kinst"),
        "mssr.self_s": (_per(self_s("mssr"), rounds), "s"),
        "mssr.reuse_tests": (_per(core["reuse_tests"], rounds), "count"),
        "mssr.reuse_successes": (_per(core["reuse_successes"], rounds),
                                 "count"),
        "mssr.reuse_hit_ratio": (
            _per(core["reuse_successes"], core["reuse_tests"]), "ratio"),
        "mssr.reused_per_squashed": (
            _per(mssr_core["reuse_successes"], mssr_core["squashed"]),
            "ratio"),
        "mssr.cycles_saved": (_per(base_cycles - mssr_cycles, rounds),
                              "cycles"),
        "mem.self_s": (_per(mem_self, rounds), "s"),
        "mem.accesses": (_per(calls("mem.access"), rounds), "count"),
        "mem.ns_per_access": (
            1e9 * _per(self_s("mem.access", "mem.icache"),
                       calls("mem.access")), "ns/access"),
        "mem.l1d_miss_ratio": (
            _per(core["l1d_misses"], core["l1d_hits"] + core["l1d_misses"]),
            "ratio"),
        "mem.dram_accesses": (_per(core["dram_accesses"], rounds), "count"),
        "mem.mshr_merges": (_per(core["mshr_merges"], rounds), "count"),
        "mem.mshr_stalls": (_per(core["mshr_stalls"], rounds), "count"),
        "bench.trace_overhead_pct": (
            100.0 * (_per(job_seconds(traced_rounds),
                          job_seconds(untraced_rounds)) - 1.0), "%"),
        "sampled_kips": (sampled_kips(untraced_rounds) if spec.sampled
                         else 0.0, "kinst/s"),
    })
    metrics.update(simulated_metrics(spec, traced_rounds[0], references))
    return metrics


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------
def _stats_key(results):
    return [(res.op.job.job_hash(),
             None if res.stats is None else res.stats.as_dict())
            for res in results]


def run(workload, seed, seconds, trace, scratch, import_s):
    """Run one workload; returns ``(rounds, references, metrics, raw,
    consistent)``.

    ``consistent`` is False when two rounds of the same operations (a
    traced and an untraced one included) disagree on any simulated
    statistic.
    """
    tracer = Tracer() if trace else None
    bench = Runner(workload, seed, scratch, tracer)
    if trace:
        tracer.install()
    try:
        setup_reps = bench.setup()
    finally:
        if trace:
            tracer.uninstall()
    bench.expected = expectations(bench.built)
    bench.run_references()
    if trace:
        untraced = bench.run_for(seconds / 2.0)
        traced = bench.run_for(seconds / 2.0, traced=True)
        rounds = untraced + traced
        metrics = layer_metrics(bench.spec, setup_reps, traced, untraced,
                                bench.references)
        raw = {}
        tracer.write_spans(os.path.join(os.path.dirname(scratch),
                                        "trace-%s-seed%d.jsonl"
                                        % (workload, seed)))
    else:
        # Two rounds at least, so that determinism is always checked.
        rounds = bench.run_for(seconds, min_rounds=2)
        metrics, raw = end_to_end(bench.spec, rounds, setup_reps, import_s)
    first = _stats_key(rounds[0])
    consistent = all(_stats_key(results) == first for results in rounds)
    return rounds, bench.references, metrics, raw, consistent
