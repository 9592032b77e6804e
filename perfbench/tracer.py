"""Host-time tracing around the calls into each layer of the simulator.

Nothing in the program is edited: :class:`Probe` and :class:`Tracer`
replace public functions and methods with timing wrappers for as long as
they are installed, and put the originals back on :meth:`uninstall`.
Both must be installed before the cores they observe are built.

* :class:`Probe` is installed in every run. It keeps each job's cores
  and run results (for the correctness checks) and notes when the job's
  first core was built (the end of a sampled job's set-up).
* :class:`Tracer` is installed in traced runs only. Calls at a layer
  boundary that happen a few times per job (a build, a profile, a
  ``O3Core.run``) are recorded as spans with their parent span and job
  id; calls that fire every cycle (stage ticks, predictor, memory, the
  MSSR controller) are summed into per-job totals with call counts. A
  key's self time is its total minus the time spent in wrapped callees.
"""

import contextlib
import json
import time
from unittest import mock

from repro.emu.emulator import Emulator
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit
from repro.frontend.icache import InstructionCache
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage_scl import TageSCL
from repro.harness import runner
from repro.isa import predecode
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.ports import MemPort, PortedICache, PortedMemorySystem
from repro.mssr.controller import MSSRController
from repro.pipeline.core import O3Core
from repro.pipeline.stages import (CommitStage, ExecuteStage, FetchStage,
                                   RenameDispatchStage, SquashUnit,
                                   WritebackStage)
from repro.sampling import sampler
from repro.sampling.checkpoint import CheckpointStore
from repro.workloads.registry import Workload

_CLOCK = time.perf_counter


def _wrap(patches, owner, name, make):
    """Replace ``owner.name`` by ``make(original)`` until ``patches``
    (an :class:`contextlib.ExitStack`) is closed."""
    patches.enter_context(
        mock.patch.object(owner, name, make(getattr(owner, name))))


class Probe:
    """Per-job record of the cores built and the results they returned."""

    def __init__(self):
        self._patches = contextlib.ExitStack()
        self.reset()

    def reset(self):
        self.cores = []
        self.results = []
        self.first_core_at = None

    def install(self):
        probe = self

        def make_init(init):
            def __init__(core, *args, **kwargs):
                if probe.first_core_at is None:
                    probe.first_core_at = _CLOCK()
                init(core, *args, **kwargs)
                probe.cores.append(core)
            return __init__

        def make_run(run):
            def run_(core, *args, **kwargs):
                result = run(core, *args, **kwargs)
                probe.results.append(result)
                return result
            return run_

        _wrap(self._patches, O3Core, "__init__", make_init)
        _wrap(self._patches, O3Core, "run", make_run)

    def uninstall(self):
        self._patches.close()


#: Per-cycle boundaries: (owner, method names, key). Summed, not spanned.
_FINE = (
    (CommitStage, ("tick",), "pipeline.commit"),
    (WritebackStage, ("tick",), "pipeline.writeback"),
    (ExecuteStage, ("tick",), "pipeline.execute"),
    (RenameDispatchStage, ("tick",), "pipeline.rename"),
    (FetchStage, ("tick",), "pipeline.fetch"),
    (SquashUnit, ("apply",), "pipeline.squash"),
    (FetchUnit, ("tick", "redirect", "squash_ftq_after", "retire_block"),
     "frontend"),
    (TageSCL, ("update", "recover", "recover_branch", "restore_history"),
     "frontend"),
    (BranchTargetBuffer, ("install",), "frontend"),
    (ReturnAddressStack, ("restore",), "frontend"),
    (MSSRController, ("on_wrong_path_block", "on_branch_squash",
                      "wants_preg", "on_replay_squash", "on_fetch_block",
                      "try_reuse", "on_verify_fail", "on_store_executed",
                      "emergency_release", "on_cycle", "on_rename",
                      "on_commit", "on_preg_freed", "finalize"), "mssr"),
    (MemoryHierarchy, ("access",), "mem.access"),
    (MemPort, ("request",), "mem.access"),
    (InstructionCache, ("access",), "mem.access"),
    (PortedICache, ("access",), "mem.icache"),
    (MemoryHierarchy, ("warm",), "mem.warm"),
    (PortedMemorySystem, ("warm", "warm_inst"), "mem.warm"),
)

#: Layer boundaries crossed a few times per job: (owner, name, key).
_SPANS = (
    (runner, "execute", "harness.execute"),
    (Workload, "build", "workloads.build"),
    (predecode, "predecode_program", "isa.predecode"),
    (sampler, "profile_program", "sampling.profile"),
    (sampler, "pick_simpoints", "sampling.simpoint"),
    (sampler, "capture_checkpoints", "sampling.checkpoint"),
    (sampler, "warm_frontend", "sampling.warm"),
    (CheckpointStore, "put", "sampling.store_put"),
    (O3Core, "__init__", "pipeline.init"),
    (O3Core, "run", "pipeline.run"),
)


class Tracer:
    """Timing wrappers at every layer boundary, summed per job.

    ``totals`` maps a key to ``[calls, total_s, child_s]`` for the job in
    progress; ``counts`` holds event counts (committed-less cycles,
    delivered fetch blocks, emulated instructions, checkpoint-store
    hits). :meth:`begin_job` zeroes both, :meth:`end_job` returns a copy.
    ``spans`` keeps every span of the run: ``(job, span_id, parent_id,
    key, start, end)``.
    """

    def __init__(self):
        self._patches = contextlib.ExitStack()
        self.totals = {}
        self.counts = {"pipeline.idle_cycles": 0, "frontend.blocks": 0,
                       "emu.insts": 0, "sampling.store_reads": 0}
        self.spans = []
        self.job = None
        self._stack = []       # [child_s, span_id] of the open calls
        self._next_span = 1

    # ------------------------------------------------------------------
    def begin_job(self, job_id):
        self.job = job_id
        for entry in self.totals.values():
            entry[0] = 0
            entry[1] = entry[2] = 0.0
        for key in self.counts:
            self.counts[key] = 0

    def end_job(self):
        self.job = None
        return ({key: list(entry) for key, entry in self.totals.items()},
                dict(self.counts))

    # ------------------------------------------------------------------
    def _entry(self, key):
        return self.totals.setdefault(key, [0, 0.0, 0.0])

    def _fine(self, key):
        """Wrapper factory summing calls of a per-cycle boundary."""
        entry = self._entry(key)
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = _CLOCK()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = _CLOCK() - start
                    stack.pop()
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += frame[0]
                    if stack:
                        stack[-1][0] += elapsed
            return wrapper
        return make

    def _open(self):
        parent = next((frame[1] for frame in reversed(self._stack)
                       if frame[1] is not None), None)
        frame = [0.0, self._next_span]
        self._next_span += 1
        self._stack.append(frame)
        return frame, parent, _CLOCK()

    def _close(self, key, frame, parent, start):
        end = _CLOCK()
        elapsed = end - start
        self._stack.pop()
        entry = self._entry(key)
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        self.spans.append((self.job, frame[1], parent, key, start, end))

    def _spanned(self, key):
        """Wrapper factory recording each call as a span."""
        self._entry(key)

        def make(fn):
            def wrapper(*args, **kwargs):
                frame, parent, start = self._open()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(key, frame, parent, start)
            return wrapper
        return make

    # ------------------------------------------------------------------
    def install(self):
        patches = self._patches
        for owner, names, key in _FINE:
            for name in names:
                _wrap(patches, owner, name, self._fine(key))
        for owner, name, key in _SPANS:
            _wrap(patches, owner, name, self._spanned(key))
        _wrap(patches, O3Core, "step", self._wrap_step)
        _wrap(patches, FetchUnit, "fetch_block", self._wrap_fetch_block)
        _wrap(patches, Emulator, "run_until", self._wrap_run_until)
        _wrap(patches, CheckpointStore, "get", self._wrap_store_get)
        _wrap(patches, runner, "run_batch", self._spanned("harness.batch"))

    def uninstall(self):
        self._patches.close()

    # Wrappers that also count events --------------------------------
    def _wrap_step(self, step):
        timed = self._fine("pipeline.loop")(step)
        counts = self.counts

        def wrapper(core):
            before = core.stats.committed_insts
            timed(core)
            if core.stats.committed_insts == before:
                counts["pipeline.idle_cycles"] += 1
        return wrapper

    def _wrap_fetch_block(self, fetch_block):
        timed = self._fine("frontend")(fetch_block)
        counts = self.counts

        def wrapper(unit, cycle):
            block = timed(unit, cycle)
            if block is not None:
                counts["frontend.blocks"] += 1
            return block
        return wrapper

    def _wrap_run_until(self, run_until):
        timed = self._spanned("emu")(run_until)
        counts = self.counts

        def wrapper(emu, *args, **kwargs):
            before = emu.inst_count
            try:
                return timed(emu, *args, **kwargs)
            finally:
                counts["emu.insts"] += emu.inst_count - before
        return wrapper

    def _wrap_store_get(self, get):
        timed = self._spanned("sampling.store_get")(get)
        counts = self.counts

        def wrapper(store, key):
            payload = timed(store, key)
            if payload is not None:
                counts["sampling.store_reads"] += 1
            return payload
        return wrapper

    # ------------------------------------------------------------------
    def write_spans(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for job, span_id, parent, key, start, end in self.spans:
                handle.write(json.dumps({
                    "job": job, "id": span_id, "parent": parent,
                    "name": key, "start": start, "end": end}) + "\n")
