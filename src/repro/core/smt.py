"""The SMT processor model: fetch, rename, issue, execute, graduate.

Trace-driven and cycle-level.  Each cycle runs the stages back to front
(completion, commit, issue, dispatch, fetch) so results computed in a
cycle are visible one cycle later:

* **completion** — instructions finishing this cycle wake dependents;
  resolved mispredicted branches unblock their thread's fetch.
* **commit** — up to 8 instructions retire per cycle, in-order per
  thread; finished programs hand their context to the next program of
  the multiprogrammed list (section 5.1 methodology).
* **issue** — per-queue out-of-order issue: 4 int, 4 mem, 4 FP, and
  2 MMX or 1 MOM per cycle; memory operations query the memory system,
  MOM arithmetic occupies the 2-lane vector unit.
* **dispatch** — round-robin over threads, renaming onto the shared
  physical pools (Table 1 sizing) and inserting into queues + the shared
  graduation window.
* **fetch** — up to 2 threads x 4 instructions through the I-cache,
  thread order set by the fetch policy; branch mispredictions block the
  thread until resolution (trace-driven squash model).

The stage bodies are written for speed: opcode metadata is read from
flat tuples indexed by the integer opcode, the issue queues and the
graduation window are plain state that the stages update in place (the
sanitizer hooks cost a single ``is not None`` test each), and per-cycle
structures are preallocated.  Semantics are bit-identical to the
straightforward formulation — the experiment runner's cache
fingerprints rely on that.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import itemgetter

from repro.core.branch import GsharePredictor
from repro.core.execute import VectorUnit
from repro.core.fetch import FetchPolicy
from repro.core.metrics import RunResult
from repro.core.params import SMTConfig
from repro.core.queues import IssueQueue
from repro.core.rob import GraduationWindow
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_INFO, Opcode, Queue
from repro.isa.registers import NO_REG, RegisterClass
from repro.memory.interface import AccessType, MemorySystem
from repro.tracegen.program import Trace
from repro.workloads.multiprog import MultiprogramScheduler

_STATE_WAITING = 0
_STATE_DONE = 2

_CLASS_SHIFT = 8          # matches repro.isa.registers._CLASS_SHIFT

# The rename map is a flat list indexed by the packed register id
# ``(class << _CLASS_SHIFT) | index``.  NO_REG is -1, which Python
# aliases onto the last slot — (ACC, index 255) — but no architected
# register can occupy it (every logical count is far below 256), and
# writes are guarded by ``dst != NO_REG``, so that slot stays None.
_RENAME_SLOTS = len(RegisterClass) << _CLASS_SHIFT

# MMX packed loads/stores are single 64-bit references with no stream
# semantics; they travel the scalar ports (and L1) even in the decoupled
# organization.  Only MOM stream memory uses the vector ports.
_MEM_KIND = {
    Opcode.LOAD: AccessType.SCALAR_LOAD,
    Opcode.STORE: AccessType.SCALAR_STORE,
    Opcode.MMX_LOAD: AccessType.SCALAR_LOAD,
    Opcode.MMX_STORE: AccessType.SCALAR_STORE,
    Opcode.MOM_LOAD: AccessType.VECTOR_LOAD,
    Opcode.MOM_STORE: AccessType.VECTOR_STORE,
}

# Flat per-opcode tables: tuple indexing on the IntEnum opcode is much
# cheaper than OPCODE_INFO dict lookups plus attribute chains in the
# per-instruction hot loops below.
_INFO = tuple(OPCODE_INFO[op] for op in Opcode)
_QUEUE_OF = tuple(info.queue for info in _INFO)
_LATENCY = tuple(info.latency for info in _INFO)
_IS_MEM = tuple(info.is_mem for info in _INFO)
_IS_STREAM = tuple(info.is_stream for info in _INFO)
_IS_BRANCH = tuple(info.is_branch for info in _INFO)
_IS_SIMD = tuple(info.is_simd for info in _INFO)
_MEM_KIND_OF = tuple(_MEM_KIND.get(op) for op in Opcode)

# --------------------------------------------------------------- fast-forward
#
# The sampled mode's fast-forward only has to *warm* long-lived state
# (gshare tables, cache tags), so the only instructions that matter are
# branches, memory references and I-cache line changes — typically well
# under half the trace.  Each trace gets a memoized "plan": the sparse,
# ordered list of those eventful instructions plus a prefix sum of
# expanded weights, so whole runs of pure-ALU instructions retire as one
# subtraction instead of a per-instruction interpreter loop.
#
# Event tuples hold only ints (the access kind is an index into
# _FF_KINDS), so the cyclic GC untracks them at their first collection
# instead of traversing every event (about a million at scale 1e-3) in
# each full collection.

_FF_FETCH = 0    # (idx, tag, pc,       prev,   0,      0)
_FF_BRANCH = 1   # (idx, tag, pc,       taken,  0,      0)
_FF_MEM = 2      # (idx, tag, mem_addr, 0,      0,      kind)
_FF_STREAM = 3   # (idx, tag, mem_addr, stride, length, kind)

_FF_KINDS = tuple(AccessType)
_FF_KIND_OF = tuple(
    -1 if kind is None else _FF_KINDS.index(kind) for kind in _MEM_KIND_OF
)

#: Instructions a thread retires per turn of the fast-forward round robin.
_FF_CHUNK = 128

#: plan cache: id(trace) -> (trace, event_indices, events, weight_prefix).
#: Entries hold the trace itself, so a live plan's id() can never be
#: reused by a different trace; FIFO-bounded so huge traces from many
#: scales do not accumulate.
_FF_PLANS: dict[int, tuple] = {}
_FF_PLAN_LIMIT = 64


def _ff_plan(trace: Trace) -> tuple:
    key = id(trace)
    plan = _FF_PLANS.get(key)
    if plan is not None and plan[0] is trace:
        return plan
    events: list[tuple] = []
    append = events.append
    prefix = [0] * (len(trace.instructions) + 1)
    total = 0
    last_line = -1
    last_mem_key = -1
    # I-line events of the current run of same-page I-line events, by
    # line: an event's ``prev`` is the instruction index of the previous
    # event of its line in the run, or -1.  Lines of one 4 KB page sit
    # in distinct I-cache sets (the set index covers page-offset bits
    # 5-11), so when ``prev`` falls in the same fast-forward chunk,
    # nothing touched the line's set in between: the line is still the
    # set's most recently used, and warming it again changes nothing.
    page = -1
    page_lines: dict[int, int] = {}
    for idx, inst in enumerate(trace.instructions):
        pc = inst.pc
        line = pc >> 5
        if line != last_line:
            if line >> 7 != page:
                page = line >> 7
                page_lines = {}
            append((idx, _FF_FETCH, pc, page_lines.get(line, -1), 0, 0))
            page_lines[line] = idx
            last_line = line
        op = inst.op
        if _IS_BRANCH[op]:
            append((idx, _FF_BRANCH, pc, inst.taken, 0, 0))
        weight = inst.stream_length
        if _IS_MEM[op]:
            kind = _FF_KIND_OF[op]
            if weight > 1:
                append(
                    (idx, _FF_STREAM, inst.mem_addr, inst.stride, weight,
                     kind)
                )
                last_mem_key = -1
            else:
                # Consecutive references to one line with one kind
                # coalesce.  Within one chunk the repeat would find its
                # L1 line most recently used (stores: already touched)
                # and change nothing; across a chunk boundary or a
                # detailed window, other threads ran in between, and
                # dropping the repeat is an approximation (docs/MODEL.md,
                # "Sampled simulation").
                mem_key = (inst.mem_addr >> 5 << 3) | kind
                if mem_key != last_mem_key:
                    append((idx, _FF_MEM, inst.mem_addr, 0, 0, kind))
                    last_mem_key = mem_key
        total += weight
        prefix[idx + 1] = total
    if len(_FF_PLANS) >= _FF_PLAN_LIMIT:
        _FF_PLANS.pop(next(iter(_FF_PLANS)))
    plan = (trace, tuple(map(itemgetter(0), events)), events, prefix)
    _FF_PLANS[key] = plan
    return plan


#: Cycles a run may pass without committing or fetching anything before
#: it is declared livelocked.  No modelled latency comes near it, so
#: only a frozen machine reaches it.
_WATCHDOG_CYCLES = 1 << 20


class ProgressWatchdog:
    """Fails a run once :data:`_WATCHDOG_CYCLES` pass without progress.

    Progress is any change of the mark — (instructions committed,
    Σ ``fetch_idx``) over the cores checked; a program completes by
    committing, so completions move it too.  :meth:`check` samples the
    mark only on its first call in each :data:`_WATCHDOG_CYCLES` block,
    so a loop may call it every cycle.  The span is measured from the
    cycle at which the current mark was first seen, not from block
    boundaries: two samples in adjacent blocks can be cycles apart.
    """

    __slots__ = ("_block", "_mark", "_since")

    def __init__(self) -> None:
        self._block = -1
        self._mark: tuple[int, int] | None = None
        self._since = 0

    def check(self, now: int, cores) -> None:
        block = now // _WATCHDOG_CYCLES
        if block == self._block:
            return
        self._block = block
        mark = (
            sum(core.committed for core in cores),
            sum(ctx.fetch_idx for core in cores for ctx in core.threads),
        )
        if mark != self._mark:
            self._mark = mark
            self._since = now
        elif now - self._since >= _WATCHDOG_CYCLES:
            raise RuntimeError(
                f"no progress between cycles {self._since} and {now}: "
                f"{mark[0]} instructions committed — livelock"
            )


class InFlight:
    """Dynamic state of one dispatched instruction."""

    __slots__ = (
        "inst",
        "thread",
        "state",
        "deps",
        "dependents",
        "mispredicted",
        "queue",
    )

    def __init__(self, inst: Instruction, thread: int, mispredicted: bool):
        self.inst = inst
        self.thread = thread
        self.state = _STATE_WAITING
        self.deps = 0
        #: Lazily allocated: most instructions complete with no waiters,
        #: so the list is only created when a dependent first registers.
        self.dependents: list[InFlight] | None = None
        self.mispredicted = mispredicted
        #: The IssueQueue this entry dispatched into (set at dispatch);
        #: lets the completion stage wake dependents without re-deriving
        #: the queue from the opcode.
        self.queue: IssueQueue | None = None


class ThreadContext:
    """Per-hardware-context front-end and rename state."""

    __slots__ = (
        "index",
        "trace",
        "trace_len",
        "fetch_idx",
        "decode",
        "rename",
        "fetch_blocked",
        "fetch_stall_until",
        "fetched_vector_last",
        "inflight_insts",
        "inflight_ops",
        "equiv_per_inst",
        "trace_expanded",
    )

    def __init__(self, index: int):
        self.index = index
        self.trace: Trace | None = None
        self.trace_len = 0
        self.fetch_idx = 0
        self.decode: deque = deque()
        self.rename: list[InFlight | None] = [None] * _RENAME_SLOTS
        self.fetch_blocked = False
        self.fetch_stall_until = 0
        self.fetched_vector_last = False
        self.inflight_insts = 0
        self.inflight_ops = 0
        self.equiv_per_inst = 1.0
        self.trace_expanded = 1

    def assign(self, trace: Trace) -> None:
        self.trace = trace
        self.trace_len = len(trace.instructions)
        self.fetch_idx = 0
        self.decode.clear()
        self.rename = [None] * _RENAME_SLOTS
        self.fetch_blocked = False
        self.fetched_vector_last = False
        self.trace_expanded = trace.expanded_length
        self.equiv_per_inst = trace.mmx_equivalent / self.trace_expanded


class SMTProcessor:
    """Runs a multiprogrammed workload on the configured SMT machine."""

    def __init__(
        self,
        config: SMTConfig,
        memory: MemorySystem,
        traces: list[Trace],
        fetch_policy: FetchPolicy = FetchPolicy.RR,
        completions_target: int = 8,
        max_cycles: int = 50_000_000,
        warmup_fraction: float = 0.3,
        scheduler: MultiprogramScheduler | None = None,
    ):
        for trace in traces:
            if trace.isa != config.isa:
                raise ValueError(
                    f"trace {trace.name} is {trace.isa}, machine is {config.isa}"
                )
        self.config = config
        self.memory = memory
        self.fetch_policy = fetch_policy
        self.max_cycles = max_cycles
        self.scheduler = scheduler or MultiprogramScheduler(
            traces, config.n_threads, completions_target=completions_target
        )
        self.predictor = GsharePredictor()
        self.vector_unit = VectorUnit()
        sizes = config.resources.queue_sizes
        self.queues = {
            Queue.INT: IssueQueue("int", sizes["int"]),
            Queue.FP: IssueQueue("fp", sizes["fp"]),
            Queue.MEM: IssueQueue("mem", sizes["mem"]),
            Queue.SIMD: IssueQueue("simd", sizes["simd"]),
        }
        self._issue_width = {
            Queue.INT: config.issue_int,
            Queue.FP: config.issue_fp,
            Queue.MEM: config.issue_mem,
            Queue.SIMD: config.issue_simd,
        }
        # Flat issue plan in queue declaration order, and a queue table
        # indexed by the Queue enum value for dispatch/wakeup.
        self._issue_plan = tuple(
            (queue, self._issue_width[queue_id], queue_id is Queue.SIMD)
            for queue_id, queue in self.queues.items()
        )
        self._queue_table = tuple(
            self.queues[Queue(i)] for i in range(len(Queue))
        )
        # Opcode -> IssueQueue object directly, folding the _QUEUE_OF hop
        # into construction so dispatch does a single tuple index.
        self._queue_of_op = tuple(self._queue_table[q] for q in _QUEUE_OF)
        self.window = GraduationWindow(
            config.resources.graduation_window, config.n_threads
        )
        self.sanitizer = None
        if config.sanitize:
            # Imported lazily so the core has no dependency on the
            # verify layer unless invariant checking is requested.
            from repro.verify.sanitizer import RuntimeSanitizer

            self.sanitizer = RuntimeSanitizer()
            self.window.sanitizer = self.sanitizer
            for queue in self.queues.values():
                queue.sanitizer = self.sanitizer
            memory.attach_sanitizer(self.sanitizer)
        # ``observer`` takes the per-event hooks (stages, memory);
        # ``stall_observer`` counts stall causes.  A full observer is
        # both; ``observe="stalls"`` attaches a stall counter alone.
        self.observer = None
        self.stall_observer = None
        if config.observe is not None and config.observe is not False:
            # Imported lazily, like the sanitizer: the core only depends
            # on the observability layer when observation is requested.
            from repro.obs.events import resolve_observer

            self.stall_observer = resolve_observer(config.observe)
            if config.observe != "stalls":
                self.observer = self.stall_observer
                memory.attach_observer(self.observer)
        self.pools = dict(config.resources.rename_regs)
        self.threads = [ThreadContext(i) for i in range(config.n_threads)]
        for slot, assignment in zip(
            self.threads,
            self.scheduler.next_assignments(config.n_threads),
        ):
            slot.assign(assignment.trace)
        self._wake: dict[int, list[InFlight]] = {}
        self._rotation = 0
        # Preallocated round-robin thread orders, one per rotation phase.
        n = config.n_threads
        self._orders = tuple(
            tuple((i + r) % n for i in range(n)) for r in range(n)
        )
        self._decode_room = config.decode_buffer - config.fetch_group_size
        # Warmup: caches/predictor train on the first fraction of the
        # committed work; statistics cover only the measurement window
        # (standard trace-driven methodology — the scaled traces would
        # otherwise be dominated by cold misses the paper's
        # billion-instruction runs amortize away).
        expected_total = sum(t.expanded_length for t in traces)
        self._warmup_commits = int(warmup_fraction * expected_total)
        self._warm = self._warmup_commits == 0
        if config.sampling is not None:
            # Sampled mode: the per-window warmup replaces the global
            # warmup fraction (a 30 % detailed warmup would defeat the
            # fast-forward), and measurement is delta-based per window,
            # so the boundary reset machinery must stay inert.
            self._warmup_commits = 0
            self._warm = True
        self._base_cycles = 0
        self._base_committed = 0
        self._base_equiv = 0.0
        # Checked on the idle-skip branches only, so busy cycles pay nothing.
        self._watchdog = ProgressWatchdog()
        # Statistics.
        self.now = 0
        self.committed = 0
        self.committed_by_thread = [0] * config.n_threads
        self.committed_equiv = 0.0
        self.per_program_committed: dict[str, int] = {}
        self.vector_only_cycles = 0
        self.active_cycles = 0

    # ------------------------------------------------------------------ stages

    def _fetch_order(self) -> tuple[int, ...] | list[int]:
        """Thread priority order for this cycle under the fetch policy."""
        n = self.config.n_threads
        base = self._orders[self._rotation % n]
        policy = self.fetch_policy
        if policy is FetchPolicy.RR:
            return base
        threads = self.threads
        if policy is FetchPolicy.ICOUNT:
            return sorted(base, key=lambda t: threads[t].inflight_insts)
        if policy is FetchPolicy.OCOUNT:
            return sorted(base, key=lambda t: threads[t].inflight_ops)
        # BALANCE, the one policy left
        if self.queues[Queue.SIMD].occupancy == 0:
            return sorted(
                base, key=lambda t: not threads[t].fetched_vector_last
            )
        return sorted(base, key=lambda t: threads[t].fetched_vector_last)

    # ------------------------------------------------------------------ driver

    def _skip_target(self) -> int:
        """Earliest future cycle at which anything can happen."""
        candidates = []
        if self._wake:
            candidates.append(min(self._wake))
        for ctx in self.threads:
            if ctx.trace is None or ctx.fetch_idx >= ctx.trace_len:
                continue
            if not ctx.fetch_blocked and ctx.fetch_stall_until > self.now:
                candidates.append(ctx.fetch_stall_until)
        if not candidates:
            return self.now + 1
        # ``step`` has already advanced ``now`` past the last processed
        # cycle, so the earliest candidate may be the *current* cycle —
        # never skip beyond it or its wake entries would be orphaned.
        return max(min(candidates), self.now)

    # codelint: hot-loop — runs once per simulated cycle; the HOT-*
    # rules keep per-cycle interpreter cost out of it: hoisted locals,
    # no self attribute lookups in its loops (docs/VERIFY.md).
    def step(self) -> bool:
        """Advance one cycle; returns whether any pipeline work happened.

        Exposed so multi-core drivers (the CMP extension) can advance
        several cores in lockstep against shared memory resources.

        The five pipeline stages — complete, commit, issue, dispatch,
        fetch — run fused in this one body.  The simulator executes this
        method tens of thousands of times per run, so the stages share a
        single set of hoisted locals (thread table, rotation order,
        graduation-window occupancy) instead of each paying its own call
        and prologue cost; stage boundaries are marked by comments.
        """
        now = self.now
        config = self.config
        threads = self.threads
        window = self.window
        fifos = window._fifos
        win_sanitizer = window.sanitizer
        observer = self.observer
        stall_observer = self.stall_observer
        pools = self.pools
        scheduler = self.scheduler
        predictor = self.predictor
        per_program_committed = self.per_program_committed
        order = self._orders[self._rotation % config.n_threads]
        win_occ = window.occupancy

        # ---- complete: results arriving this cycle wake their dependents.
        entries = self._wake.pop(now, None)
        completed = 0
        if entries:
            redirect = config.mispredict_redirect
            for entry in entries:
                entry.state = _STATE_DONE
                dependents = entry.dependents
                if dependents is not None:
                    for dependent in dependents:
                        dependent.deps -= 1
                        if dependent.deps == 0:
                            dependent.queue.ready.append(dependent)
                    entry.dependents = None
                if entry.mispredicted:
                    ctx = threads[entry.thread]
                    ctx.fetch_blocked = False
                    stall = now + redirect
                    if stall > ctx.fetch_stall_until:
                        ctx.fetch_stall_until = stall
                if observer is not None:
                    observer.on_complete(entry, now)
            completed = len(entries)

        # ---- commit: in-order retirement from the per-thread FIFOs.
        budget = config.commit_width
        committed_any = 0
        committed = self.committed
        committed_equiv = self.committed_equiv
        by_thread = self.committed_by_thread
        for thread in order:
            if budget == 0:
                break
            ctx = threads[thread]
            fifo = fifos[thread]
            if fifo:
                rename = ctx.rename
                equiv = ctx.equiv_per_inst
                while budget > 0 and fifo:
                    head = fifo[0]
                    if head.state != _STATE_DONE:
                        break
                    fifo.popleft()
                    win_occ -= 1
                    if win_sanitizer is not None:
                        window.occupancy = win_occ
                        win_sanitizer.on_window_retire(window, thread, head)
                    if observer is not None:
                        observer.on_commit(thread, head, now)
                    inst = head.inst
                    dst = inst.dst
                    if dst != NO_REG:
                        pools[dst >> _CLASS_SHIFT] += 1
                        if rename[dst] is head:
                            rename[dst] = None
                    weight = inst.stream_length
                    committed += weight
                    by_thread[thread] += weight
                    committed_equiv += weight * equiv
                    budget -= 1
                    committed_any += 1
            # Program completion: everything fetched, dispatched, retired.
            # (``not fifo`` first: it is the cheapest test and almost
            # always false mid-program.)
            if (
                not fifo
                and ctx.trace is not None
                and ctx.fetch_idx >= ctx.trace_len
                and not ctx.decode
            ):
                name = ctx.trace.name
                per_program_committed[name] = (
                    per_program_committed.get(name, 0)
                    + ctx.trace_expanded
                )
                replacement = scheduler.on_completion()
                if replacement is None:
                    ctx.trace = None
                else:
                    ctx.assign(replacement.trace)
                    predictor.reset_thread(thread)
                if observer is not None:
                    observer.on_thread_assign(thread)
        self.committed = committed
        self.committed_equiv = committed_equiv

        # ---- warmup boundary: restart measurement with warm structures.
        if not self._warm and committed >= self._warmup_commits:
            self._warm = True
            self._base_cycles = now
            self._base_committed = committed
            self._base_equiv = committed_equiv
            self.memory.reset_stats()
            self.predictor.lookups = 0
            self.predictor.mispredicts = 0
            self.vector_only_cycles = 0
            self.active_cycles = 0
        if scheduler.done:
            window.occupancy = win_occ
            return bool(completed or committed_any)

        # ---- issue: drain ready queues into the execution resources.
        issued = 0
        issued_vector = False
        issued_scalar = False
        wake = self._wake
        floor = now + 1
        memory = self.memory
        vector_execute = self.vector_unit.execute
        is_mem = _IS_MEM
        is_stream = _IS_STREAM
        latency_of = _LATENCY
        mem_kind_of = _MEM_KIND_OF
        for queue, width, is_simd in self._issue_plan:
            ready = queue.ready
            if not ready:
                continue
            taken = 0
            q_occ = queue.occupancy
            q_issued = queue.issued_total
            while taken < width and ready:
                entry = ready.popleft()
                q_occ -= 1
                q_issued += 1
                taken += 1
                ctx = threads[entry.thread]
                inst = entry.inst
                stream_length = inst.stream_length
                ctx.inflight_insts -= 1
                ctx.inflight_ops -= stream_length
                op = inst.op
                if is_mem[op]:
                    if stream_length > 1:
                        done = memory.access_stream(
                            entry.thread,
                            inst.mem_addr,
                            inst.stride,
                            stream_length,
                            mem_kind_of[op],
                            now,
                        )
                    else:
                        done = memory.access(
                            entry.thread, inst.mem_addr, mem_kind_of[op], now
                        )
                elif is_stream[op]:
                    done = vector_execute(
                        now,
                        stream_length,
                        latency_of[op],
                        reduction=(op is Opcode.MOM_REDUCE),
                    )
                else:
                    done = now + latency_of[op]
                if done < floor:
                    done = floor
                if observer is not None:
                    observer.on_issue(entry, now, done)
                lst = wake.get(done)
                if lst is None:
                    wake[done] = [entry]
                else:
                    lst.append(entry)
            queue.occupancy = q_occ
            queue.issued_total = q_issued
            if taken:
                issued += taken
                if is_simd:
                    issued_vector = True
                else:
                    issued_scalar = True

        # ---- dispatch: rename and insert decoded instructions.
        budget = config.dispatch_width
        dispatched = 0
        queue_of_op = self._queue_of_op
        win_cap = window.capacity
        inflight_new = InFlight.__new__
        # Round-robin, one instruction per thread per pass.  Every stall
        # condition (empty decode, full queue, full window, empty register
        # pool) is monotone within a cycle, so a thread that fails to
        # dispatch is dropped from the scan instead of being re-checked.
        live = [t for t in order if threads[t].decode]
        while budget > 0 and live:
            next_live = []
            for thread in live:
                if budget == 0:
                    break
                ctx = threads[thread]
                decode = ctx.decode
                if not decode:
                    continue
                inst, mispredicted = decode[0]
                queue = queue_of_op[inst.op]
                if queue.occupancy >= queue.capacity or win_occ >= win_cap:
                    if stall_observer is not None:
                        stall_observer.stall(
                            "dispatch_queue_full"
                            if queue.occupancy >= queue.capacity
                            else "dispatch_window_full",
                            thread,
                        )
                    continue
                dst = inst.dst
                if dst != NO_REG and pools[dst >> _CLASS_SHIFT] <= 0:
                    if stall_observer is not None:
                        stall_observer.stall("dispatch_pool_empty", thread)
                    continue
                decode.popleft()
                # InFlight construction, spelled out (the constructor is
                # the single hottest allocation site in the simulator).
                entry = inflight_new(InFlight)
                entry.inst = inst
                entry.thread = thread
                entry.state = _STATE_WAITING
                entry.dependents = None
                entry.mispredicted = mispredicted
                entry.queue = queue
                rename = ctx.rename
                deps = 0
                for src in inst.srcs:
                    producer = rename[src]
                    if producer is not None and producer.state != _STATE_DONE:
                        deps += 1
                        waiters = producer.dependents
                        if waiters is None:
                            producer.dependents = [entry]
                        else:
                            waiters.append(entry)
                entry.deps = deps
                if dst != NO_REG:
                    pools[dst >> _CLASS_SHIFT] -= 1
                    rename[dst] = entry
                fifos[thread].append(entry)
                win_occ += 1
                if win_sanitizer is not None:
                    window.occupancy = win_occ
                    win_sanitizer.on_window_insert(window, thread, entry)
                queue.occupancy += 1
                if deps == 0:
                    queue.ready.append(entry)
                if queue.sanitizer is not None:
                    queue.sanitizer.check_queue(queue)
                if observer is not None:
                    observer.on_dispatch(thread, entry, now)
                budget -= 1
                dispatched += 1
                next_live.append(thread)
            live = next_live
        window.occupancy = win_occ

        # ---- fetch: pull instruction groups into the decode buffers.
        groups = 0
        fetched = 0
        fetch_groups = config.fetch_groups
        group_size = config.fetch_group_size
        decode_room = self._decode_room
        memory_fetch = memory.fetch
        predict = self.predictor.predict_and_update
        is_branch_of = _IS_BRANCH
        is_simd_of = _IS_SIMD
        # Round-robin needs no per-thread sort; skip the policy dispatch.
        if self.fetch_policy is not FetchPolicy.RR:
            order = self._fetch_order()
        for thread in order:
            if groups == fetch_groups:
                if stall_observer is None:
                    break
                # Stall attribution: remaining threads with fetchable
                # work lost this cycle's fetch-group arbitration.
                ctx = threads[thread]
                if (
                    ctx.trace is not None
                    and ctx.fetch_idx < ctx.trace_len
                    and not ctx.fetch_blocked
                    and ctx.fetch_stall_until <= now
                    and len(ctx.decode) <= decode_room
                ):
                    stall_observer.stall("fetch_no_slot", thread)
                continue
            ctx = threads[thread]
            idx = ctx.fetch_idx
            if ctx.trace is None or idx >= ctx.trace_len:
                continue
            if ctx.fetch_blocked:
                # Wrong-path fetch: the front end does not know the branch
                # mispredicted, so the thread keeps consuming fetch slots
                # on wrong-path instructions, which the trace does not hold.
                if stall_observer is not None:
                    stall_observer.stall("fetch_blocked_branch", thread)
                groups += 1
                continue
            decode = ctx.decode
            if ctx.fetch_stall_until > now:
                if stall_observer is not None:
                    stall_observer.stall("fetch_icache", thread)
                continue
            if len(decode) > decode_room:
                if stall_observer is not None:
                    stall_observer.stall("fetch_decode_full", thread)
                continue
            groups += 1
            instructions = ctx.trace.instructions
            trace_len = ctx.trace_len
            pc = instructions[idx].pc
            ready = memory_fetch(thread, pc, now)
            if ready > now + 2:
                # A genuine I-cache miss: stall the thread until the fill
                # arrives.  One-cycle bank-conflict delays are absorbed in
                # place — re-attempting them would itself occupy the bank
                # and can livelock two threads against each other.
                ctx.fetch_stall_until = ready
                if stall_observer is not None:
                    stall_observer.stall("fetch_icache", thread)
                continue
            took_vector = False
            group_line = pc >> 5
            inflight_insts = 0
            inflight_ops = 0
            for __ in range(group_size):
                if idx >= trace_len:
                    break
                inst = instructions[idx]
                if inst.pc >> 5 != group_line:
                    # Fetch groups cannot cross an I-cache line boundary.
                    break
                idx += 1
                op = inst.op
                mispredicted = False
                is_branch = is_branch_of[op]
                if is_branch:
                    mispredicted = not predict(thread, inst.pc, inst.taken)
                decode.append((inst, mispredicted))
                if observer is not None:
                    observer.on_fetch(thread, inst, now, mispredicted)
                inflight_insts += 1
                inflight_ops += inst.stream_length
                fetched += 1
                if is_simd_of[op]:
                    took_vector = True
                if mispredicted:
                    ctx.fetch_blocked = True
                    break
                if is_branch and inst.taken:
                    break
            ctx.fetch_idx = idx
            ctx.inflight_insts += inflight_insts
            ctx.inflight_ops += inflight_ops
            ctx.fetched_vector_last = took_vector

        if issued:
            self.active_cycles += 1
            if issued_vector and not issued_scalar:
                self.vector_only_cycles += 1
        self._rotation += 1
        self.now = now + 1
        return bool(
            completed or committed_any or issued or dispatched or fetched
        )

    def run(self) -> RunResult:
        """Simulate until the completion target is reached."""
        if self.config.sampling is not None:
            return self._run_sampled()
        step = self.step
        scheduler = self.scheduler
        max_cycles = self.max_cycles
        while not scheduler.done and self.now < max_cycles:
            if not step() and not scheduler.done:
                self._watchdog.check(self.now, (self,))
                target = self._skip_target()
                if target > self.now:
                    self.now = target
        self._check_livelock()
        self._finalize_sanitizer()
        return self._make_result(
            cycles=self.now - self._base_cycles,
            committed_instructions=self.committed - self._base_committed,
            committed_equivalent=self.committed_equiv - self._base_equiv,
        )

    def _check_livelock(self) -> None:
        if self.now >= self.max_cycles:
            raise RuntimeError(
                f"simulation exceeded {self.max_cycles} cycles — livelock?"
            )

    def _finalize_sanitizer(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.finalize(
                self.now, self.window, self.queues.values(), self.memory
            )

    def _make_result(
        self,
        cycles: int,
        committed_instructions: int,
        committed_equivalent: float,
        sampling: list | None = None,
        samples: list | None = None,
    ) -> RunResult:
        return RunResult(
            isa=self.config.isa,
            n_threads=self.config.n_threads,
            fetch_policy=self.fetch_policy.value,
            cycles=cycles,
            committed_instructions=committed_instructions,
            committed_equivalent=committed_equivalent,
            program_completions=self.scheduler.completions,
            memory=self.memory.stats,
            mispredict_rate=self.predictor.mispredict_rate,
            issue_counts={
                queue.name: queue.issued_total
                for queue in self.queues.values()
            },
            vector_only_cycles=self.vector_only_cycles,
            active_cycles=self.active_cycles,
            per_program_committed=dict(self.per_program_committed),
            sampling=sampling,
            samples=samples,
            observability=(
                self.stall_observer.snapshot()
                if self.stall_observer is not None
                else None
            ),
        )

    # ------------------------------------------------------------- sampling

    def _run_detailed_for(self, commits: int) -> None:
        """Advance the detailed model until ``commits`` more retire."""
        target = self.committed + commits
        step = self.step
        scheduler = self.scheduler
        max_cycles = self.max_cycles
        while (
            self.committed < target
            and not scheduler.done
            and self.now < max_cycles
        ):
            if not step() and not scheduler.done:
                self._watchdog.check(self.now, (self,))
                skip = self._skip_target()
                if skip > self.now:
                    self.now = skip

    def _drain_pipeline(self) -> None:
        """Retire all in-flight work without fetching anything new.

        Runs the detailed model with fetch frozen (every thread's stall
        horizon pushed past ``max_cycles``) until the graduation window,
        the wake lists and the decode buffers are empty, so the
        fast-forward can take over at a clean instruction boundary — no
        dispatched instruction is ever skipped or double-counted.
        """
        threads = self.threads
        sentinel = self.max_cycles + 1
        saved = [ctx.fetch_stall_until for ctx in threads]
        for ctx in threads:
            ctx.fetch_stall_until = sentinel
        scheduler = self.scheduler
        max_cycles = self.max_cycles
        while (
            (
                self.window.occupancy
                or self._wake
                or any(ctx.decode for ctx in threads)
            )
            and not scheduler.done
            and self.now < max_cycles
        ):
            if not self.step() and not scheduler.done:
                self._watchdog.check(self.now, (self,))
                # The frozen stall horizons must not drive the idle skip,
                # so only the wake lists are consulted here.
                if self._wake:
                    skip = min(self._wake)
                    if skip > self.now:
                        self.now = skip
        for ctx, stall in zip(threads, saved):
            ctx.fetch_stall_until = stall

    # codelint: hot-loop — walks every eventful instruction of the
    # sampled fast-forward; the HOT-* rules keep the hoisted walk free
    # of per-event attribute lookups (docs/VERIFY.md).
    def _fast_forward(self, budget: int) -> None:
        """Functionally retire ``budget`` (expanded) instructions.

        No rename/issue/window bookkeeping and no cycle accounting —
        instructions retire straight off the traces, in round-robin
        chunks across threads so cache interleaving resembles the
        detailed execution.  Long-lived predictor and cache state stays
        live: branches train the shared gshare tables and memory
        references run the hierarchies' warming-only tag path.  Pure-ALU
        instructions carry no long-lived state, so each trace's memoized
        plan (:func:`_ff_plan`) lets a chunk retire as one prefix-sum
        subtraction plus a walk of only its eventful instructions.  An
        I-line event whose same-page predecessor lies in the same chunk
        is skipped: that warm would be a hit on its set's most recently
        used line.  Must be called with the pipeline drained
        (:meth:`_drain_pipeline`).
        """
        threads = self.threads
        scheduler = self.scheduler
        predictor = self.predictor
        predict = predictor.predict_and_update
        memory = self.memory
        warm = memory.warm
        warm_stream = memory.warm_stream
        warm_fetch = memory.warm_fetch
        kinds = _FF_KINDS
        by_thread = self.committed_by_thread
        per_program = self.per_program_committed
        committed_total = self.committed
        equiv_total = self.committed_equiv
        n_threads = len(threads)
        plans: list[tuple | None] = [None] * n_threads
        positions = [0] * n_threads
        for ctx in threads:
            if ctx.trace is not None:
                plan = _ff_plan(ctx.trace)
                plans[ctx.index] = plan
                # Detailed windows advance fetch_idx without touching the
                # plan cursor, so re-seat it on every fast-forward entry.
                positions[ctx.index] = bisect_left(plan[1], ctx.fetch_idx)
        chunk = _FF_CHUNK
        remaining = budget
        while remaining > 0 and not scheduler.done:
            progressed = False
            for ctx in threads:
                if remaining <= 0 or scheduler.done:
                    break
                trace = ctx.trace
                if trace is None:
                    continue
                thread = ctx.index
                idx = ctx.fetch_idx
                trace_len = ctx.trace_len
                if idx < trace_len:
                    _, ev_idx, events, prefix = plans[thread]
                    end = idx + chunk
                    if end > trace_len:
                        end = trace_len
                    pos = positions[thread]
                    last = bisect_left(ev_idx, end, pos)
                    for __, tag, a, b, c, kind in events[pos:last]:
                        if tag == _FF_FETCH:
                            if b < idx:
                                warm_fetch(thread, a)
                        elif tag == _FF_MEM:
                            warm(thread, a, kinds[kind])
                        elif tag == _FF_BRANCH:
                            predict(thread, a, b)
                        else:
                            warm_stream(thread, a, b, c, kinds[kind])
                    positions[thread] = last
                    committed = prefix[end] - prefix[idx]
                    idx = end
                    ctx.fetch_idx = end
                    remaining -= committed
                    committed_total += committed
                    by_thread[thread] += committed
                    equiv_total += committed * ctx.equiv_per_inst
                    progressed = True
                if idx >= trace_len:
                    # Program fully consumed (pipeline is drained, so
                    # nothing of it is in flight): rotate the workload
                    # exactly as the commit stage does.
                    name = trace.name
                    per_program[name] = (
                        per_program.get(name, 0) + ctx.trace_expanded
                    )
                    replacement = scheduler.on_completion()
                    if replacement is None:
                        ctx.trace = None
                        plans[thread] = None
                    else:
                        ctx.assign(replacement.trace)
                        predictor.reset_thread(thread)
                        plans[thread] = _ff_plan(replacement.trace)
                        positions[thread] = 0
                    progressed = True
            if not progressed:
                break
        self.committed = committed_total
        self.committed_equiv = equiv_total

    def _run_sampled(self) -> RunResult:
        """SMARTS-style sampled run: fast-forward, warm up, measure.

        Each period functionally fast-forwards ``ff_len`` instructions
        (predictor/cache state warmed, no timing), runs ``warmup_len``
        instructions of unmeasured detailed execution to refill the
        pipeline and short-lived structures, then measures EIPC over a
        ``window_len``-instruction detailed window.  The reported
        ``cycles``/``committed``/``equivalent`` are sums over the
        measurement windows (ratio-of-sums EIPC); the per-window deltas
        are returned as ``samples`` for the confidence interval.

        The periods run as one continuous schedule, from the processor's
        construction state to the completion target.
        """
        scheduler = self.scheduler
        ff_len, window_len, warmup_len = self.config.sampling
        # At least four sampling periods must fit in the workload's
        # expected committed span, so degenerate parameter/workload
        # pairs still measure something.
        traces = scheduler.traces
        expected = sum(
            traces[i % len(traces)].expanded_length
            for i in range(scheduler.completions_target)
        )
        ff_cap = expected // 4 - warmup_len - window_len
        if ff_len > ff_cap:
            ff_len = max(0, ff_cap)
        samples: list[list] = []
        cycles = 0
        committed = 0
        equivalent = 0.0
        while not scheduler.done and self.now < self.max_cycles:
            if ff_len:
                self._fast_forward(ff_len)
                if scheduler.done:
                    break
            if warmup_len:
                self._run_detailed_for(warmup_len)
                if scheduler.done:
                    break
            base_now = self.now
            base_committed = self.committed
            base_equiv = self.committed_equiv
            self._run_detailed_for(window_len)
            window_cycles = self.now - base_now
            window_committed = self.committed - base_committed
            if window_cycles and window_committed:
                window_equiv = self.committed_equiv - base_equiv
                samples.append(
                    [window_cycles, window_committed, window_equiv]
                )
                cycles += window_cycles
                committed += window_committed
                equivalent += window_equiv
            if scheduler.done:
                break
            self._drain_pipeline()
        self._check_livelock()
        self._finalize_sanitizer()
        return self._make_result(
            cycles=cycles,
            committed_instructions=committed,
            committed_equivalent=equivalent,
            sampling=list(self.config.sampling),
            samples=samples,
        )
