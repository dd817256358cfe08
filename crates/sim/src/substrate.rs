//! The simulator's one substrate implementation.
//!
//! Both schedulers drive every PE through the same [`SimPe`] handle
//! over the same state:
//!
//! * [`World`] — the symmetric heap store every worker shares: one
//!   word-granular `Relaxed`-atomic heap per PE (the threaded world's
//!   memory model), sized to the allocation cursor whenever a barrier
//!   episode completes, with a sidecar for words beyond the cursor;
//!   the collective-allocation log; and the release clock of the last
//!   completed episode.
//! * [`ShardLocal`] — per-PE bookkeeping for one shard's members as
//!   parallel arrays (SoA), plus the inbox its scheduler reads:
//!   barrier arrivals, allocation requests and the first fault.
//! * [`Locks`] — lock waiter queues and pending hand-offs. Only the
//!   sequential scheduler has one, over a single shard spanning every
//!   PE: lock-using modules never shard.
//!
//! The virtual charge, allocation checks, fault texts, RNG seeds and
//! trace buffers come from `lol_shmem::rules`, the same home the
//! threaded world uses.

use crate::{SchedStats, SimReport};
use lol_shmem::rng::PeRng;
use lol_shmem::rules::{
    lock_owner, out_of_heap, panic_message, pe_rng, pe_tracer, unlock_fault, virtual_charge_ns,
    waited_too_long, AllocLog, AT_BARRIER, AT_LOCK,
};
use lol_shmem::substrate::{Progress, Substrate};
use lol_shmem::{CommStats, LockKind, ShmemConfig, SpmdError, SymAddr, TraceBuffer};
use lol_trace::{EventKind, VIRT_BARRIER_NS};
use lol_vm::machine::{Machine, Step};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Why a PE is not currently runnable (or how its pending call ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Block {
    /// Runnable; no substrate call outstanding.
    Run,
    /// Parked inside a barrier episode (explicit or allocation fence).
    BarrierWait,
    /// The episode completed; the next re-issued call consumes this.
    BarrierDone,
    /// Parked on a lock waiter queue.
    LockWait,
    /// The lock was granted; the re-issued `lock` call consumes this.
    LockDone,
}

/// The symmetric heap store plus the job-wide allocation and episode
/// state. Shared read-only by the workers of a phase; mutated only by
/// the scheduler between segments.
pub(crate) struct World {
    heap_words: usize,
    /// Per-PE heaps, sized to the allocation cursor at the last
    /// completed episode.
    heaps: Vec<Box<[AtomicU64]>>,
    /// Words beyond the cursor (legal up to `heap_words`); they move
    /// into `heaps` once the cursor catches up with them.
    overflow: Mutex<HashMap<(u32, u32), u64>>,
    pub(crate) alloc: AllocLog,
    /// The synchronized clock of the last completed episode; every PE
    /// lazily max-syncs to it at its next segment.
    pub(crate) release_time: u64,
}

impl World {
    /// An empty world, or the configuration's fault (`RUN0121`,
    /// `RUN0122`, a bad latency model) attributed to PE 0.
    pub(crate) fn new(cfg: &ShmemConfig) -> Result<World, SpmdError> {
        cfg.validate().map_err(|message| SpmdError { pe: 0, message })?;
        Ok(World {
            heap_words: cfg.heap_words,
            heaps: (0..cfg.n_pes).map(|_| Box::default()).collect(),
            overflow: Mutex::default(),
            alloc: AllocLog::default(),
            release_time: 0,
        })
    }

    fn check(&self, addr: SymAddr) -> usize {
        let idx = addr.index();
        if idx >= self.heap_words {
            panic!("{}", out_of_heap(addr, self.heap_words));
        }
        idx
    }

    fn overflow(&self) -> MutexGuard<'_, HashMap<(u32, u32), u64>> {
        self.overflow.lock().expect("nothing panics while holding the overflow lock")
    }

    fn load(&self, pe: usize, addr: SymAddr) -> u64 {
        let idx = self.check(addr);
        match self.heaps[pe].get(idx) {
            Some(w) => w.load(Ordering::Relaxed),
            None => *self.overflow().get(&(pe as u32, idx as u32)).unwrap_or(&0),
        }
    }

    fn store(&self, pe: usize, addr: SymAddr, value: u64) {
        let idx = self.check(addr);
        match self.heaps[pe].get(idx) {
            Some(w) => w.store(value, Ordering::Relaxed),
            None => {
                self.overflow().insert((pe as u32, idx as u32), value);
            }
        }
    }

    /// Complete a barrier episode: set the release clock, then grow
    /// every heap to the allocation cursor and move in the overflow
    /// words it has caught up with.
    pub(crate) fn release(&mut self, arrive_max: u64, explicit: bool) {
        self.release_time = arrive_max + if explicit { VIRT_BARRIER_NS } else { 0 };
        let cur = self.alloc.cursor();
        for h in &mut self.heaps {
            if h.len() < cur {
                let mut grown: Vec<AtomicU64> =
                    h.iter().map(|w| AtomicU64::new(w.load(Ordering::Relaxed))).collect();
                grown.resize_with(cur, || AtomicU64::new(0));
                *h = grown.into_boxed_slice();
            }
        }
        let ov = self.overflow.get_mut().expect("nothing panics while holding the overflow lock");
        for ((pe, idx), v) in ov.extract_if(|&(_, idx), _| (idx as usize) < cur) {
            *self.heaps[pe as usize][idx as usize].get_mut() = v;
        }
    }
}

/// PEs waiting on one lock instance, in arrival order; ticket-lock
/// waiters carry their ticket so releases can grant by serving order.
type LockQueue = VecDeque<(usize, Option<u64>)>;

/// Lock waiter queues per lock instance `(owner_pe, word_offset)`,
/// plus the hand-off wake-ups `(t_ns, pe)` the scheduler has yet to
/// queue. The algorithms mirror the threaded ones on the lock's
/// `[owner, next_ticket, now_serving]` words.
#[derive(Default)]
pub(crate) struct Locks {
    waiters: HashMap<(usize, u32), LockQueue>,
    pub(crate) wakes: Vec<(u64, usize)>,
}

impl Locks {
    /// One attempt of a *blocking* acquire; on failure `me` queues.
    /// Ticket acquirers always take a ticket, CAS acquirers only look
    /// at the owner word.
    fn acquire(&mut self, w: &World, kind: LockKind, me: usize, target: usize, a: SymAddr) -> bool {
        let ticket = (kind == LockKind::Ticket).then(|| {
            let t = w.load(target, a.offset(1));
            w.store(target, a.offset(1), t + 1);
            t
        });
        let free = match ticket {
            None => w.load(target, a) == 0,
            Some(t) => w.load(target, a.offset(2)) == t,
        };
        if free {
            w.store(target, a, lock_owner(me));
        } else {
            self.waiters.entry((target, a.0)).or_default().push_back((me, ticket));
        }
        free
    }

    /// Trylock: succeeds only when the lock is free right now (a
    /// ticket trylock never queues, like the threaded one).
    fn try_acquire(w: &World, kind: LockKind, me: usize, target: usize, a: SymAddr) -> bool {
        let free = match kind {
            LockKind::SpinCas => w.load(target, a) == 0,
            LockKind::Ticket => w.load(target, a.offset(1)) == w.load(target, a.offset(2)),
        };
        if free {
            if kind == LockKind::Ticket {
                w.store(target, a.offset(1), w.load(target, a.offset(1)) + 1);
            }
            w.store(target, a, lock_owner(me));
        }
        free
    }

    /// Release (`RUN0180`/`RUN0181` unless `me` holds the lock);
    /// returns the waiter the lock was handed to, if any.
    fn release(
        &mut self,
        w: &World,
        kind: LockKind,
        me: usize,
        target: usize,
        a: SymAddr,
    ) -> Option<usize> {
        if let Some(fault) = unlock_fault(me, w.load(target, a)) {
            panic!("{fault}");
        }
        w.store(target, a, 0);
        let queue = self.waiters.get_mut(&(target, a.0));
        let (g, _) = match kind {
            LockKind::SpinCas => queue?.pop_front()?,
            LockKind::Ticket => {
                let serving = w.load(target, a.offset(2)) + 1;
                w.store(target, a.offset(2), serving);
                let queue = queue?;
                let pos = queue.iter().position(|&(_, t)| t == Some(serving))?;
                queue.remove(pos)?
            }
        };
        w.store(target, a, lock_owner(g));
        Some(g)
    }
}

/// Per-shard mutable state: SoA vectors indexed by *local* member
/// position, plus the inbox the scheduler consumes.
pub(crate) struct ShardLocal {
    vclock: Vec<u64>,
    stats: Vec<CommStats>,
    rng: Vec<PeRng>,
    /// One buffer per member when tracing, none otherwise.
    tracers: Vec<TraceBuffer>,
    pub(crate) block: Vec<Block>,
    alloc_seq: Vec<u32>,
    outputs: Vec<String>,
    pub(crate) done: Vec<bool>,
    pub(crate) done_count: usize,
    /// Segments run so far (the report's event count).
    pub(crate) segments: u64,
    // ---- inbox, cleared when an episode completes ----
    pub(crate) arrivals: usize,
    pub(crate) arrive_max: u64,
    /// The shard's first arrival `(pe, explicit)` in the episode.
    pub(crate) first_arrival: Option<(usize, bool)>,
    /// Allocation requests `(seq, pe, words)`, at most one per member
    /// per episode, in the order the members ran.
    pub(crate) alloc_reqs: Vec<(u32, usize, usize)>,
    /// The first fault `(pe, message)` of a sharded phase.
    pub(crate) error: Option<(usize, String)>,
}

/// One shard: its member PEs (ascending), their machines, and their
/// SoA state.
pub(crate) struct Shard<'m> {
    pub(crate) members: &'m [usize],
    pub(crate) machines: Vec<Machine<'m>>,
    pub(crate) local: RefCell<ShardLocal>,
}

impl<'m> Shard<'m> {
    pub(crate) fn new(members: &'m [usize], cfg: &ShmemConfig) -> Self {
        let k = members.len();
        let local = ShardLocal {
            vclock: vec![0; k],
            stats: vec![CommStats::default(); k],
            rng: members.iter().map(|&pe| pe_rng(cfg, pe)).collect(),
            tracers: members.iter().filter_map(|&pe| pe_tracer(cfg, pe)).collect(),
            block: vec![Block::Run; k],
            alloc_seq: vec![0; k],
            outputs: vec![String::new(); k],
            done: vec![false; k],
            done_count: 0,
            segments: 0,
            arrivals: 0,
            arrive_max: 0,
            first_arrival: None,
            alloc_reqs: Vec::new(),
            error: None,
        };
        Shard { members, machines: Vec::new(), local: RefCell::new(local) }
    }

    /// Resume member `li` until it blocks or finishes, after max-syncing
    /// its clock to the last release. `Err` carries the fault.
    pub(crate) fn resume(
        &mut self,
        li: usize,
        world: &World,
        cfg: &ShmemConfig,
        locks: Option<&RefCell<Locks>>,
    ) -> Result<(), String> {
        let l = self.local.get_mut();
        l.vclock[li] = l.vclock[li].max(world.release_time);
        l.segments += 1;
        let sub = SimPe { world, cfg, local: &self.local, locks, li, pe: self.members[li] };
        let machine = &mut self.machines[li];
        match catch_unwind(AssertUnwindSafe(|| machine.resume(&sub))) {
            Err(payload) => Err(panic_message(payload)),
            Ok(Err(e)) => Err(e.to_string()),
            Ok(Ok(Step::Done)) => {
                let l = self.local.get_mut();
                l.outputs[li] = machine.take_output();
                l.done[li] = true;
                l.done_count += 1;
                Ok(())
            }
            Ok(Ok(Step::Blocked)) => {
                debug_assert_ne!(
                    self.local.get_mut().block[li],
                    Block::Run,
                    "machine blocked but the substrate did not park PE {}",
                    self.members[li]
                );
                Ok(())
            }
        }
    }

    /// The completed episode releases every member; clear the inbox.
    pub(crate) fn release(&mut self) {
        let l = self.local.get_mut();
        l.block.fill(Block::BarrierDone);
        l.arrivals = 0;
        l.arrive_max = 0;
        l.first_arrival = None;
    }
}

/// `RUN0191` for the first unfinished PE once nothing can wake it —
/// detected exactly, where the threaded world needs a watchdog.
pub(crate) fn deadlock(shards: &mut [Shard<'_>]) -> SpmdError {
    let (pe, block) = shards
        .iter_mut()
        .filter_map(|s| {
            let l = s.local.get_mut();
            let li = l.done.iter().position(|&d| !d)?;
            Some((s.members[li], l.block[li]))
        })
        .min_by_key(|&(pe, _)| pe)
        .expect("a deadlock leaves an unfinished PE");
    let what = match block {
        Block::LockWait | Block::LockDone => AT_LOCK,
        _ => AT_BARRIER,
    };
    SpmdError { pe, message: waited_too_long(pe, what) }
}

/// Scatter the shards' state back to PE order.
pub(crate) fn report(shards: Vec<Shard<'_>>, n: usize, sched: SchedStats) -> SimReport {
    let mut outputs = vec![String::new(); n];
    let mut stats = vec![CommStats::default(); n];
    let mut virtual_ns = vec![0u64; n];
    let mut traces = vec![None; n];
    let mut events = 0;
    for shard in shards {
        let l = shard.local.into_inner();
        events += l.segments;
        for (li, &pe) in shard.members.iter().enumerate() {
            stats[pe] = l.stats[li];
            virtual_ns[pe] = l.vclock[li];
        }
        for (li, out) in l.outputs.into_iter().enumerate() {
            outputs[shard.members[li]] = out;
        }
        for (li, buf) in l.tracers.into_iter().enumerate() {
            let pe = shard.members[li];
            traces[pe] = Some(buf.finish(virtual_ns[pe]));
        }
    }
    let makespan_ns = virtual_ns.iter().copied().max().unwrap_or(0);
    SimReport { outputs, stats, traces, virtual_ns, makespan_ns, events, sched }
}

/// One PE's substrate handle during a segment.
struct SimPe<'a> {
    world: &'a World,
    cfg: &'a ShmemConfig,
    local: &'a RefCell<ShardLocal>,
    /// Present only on the sequential scheduler's single shard, where
    /// local member index and PE id coincide.
    locks: Option<&'a RefCell<Locks>>,
    li: usize,
    pe: usize,
}

impl SimPe<'_> {
    fn charge(&self, l: &mut ShardLocal, target: usize) {
        l.vclock[self.li] += virtual_charge_ns(&self.cfg.latency, self.pe, target);
    }

    fn trace(&self, l: &mut ShardLocal, kind: EventKind, peer: usize, addr: SymAddr, bytes: u32) {
        if let Some(buf) = l.tracers.get_mut(self.li) {
            buf.record(kind, peer, addr.0, bytes, l.vclock[self.li]);
        }
    }

    /// Join the current barrier episode. The PE always parks — even
    /// the last arriver — so event accounting is identical on every
    /// scheduler; the scheduler completes the episode once all `n`
    /// PEs have arrived.
    fn enter_barrier(&self, l: &mut ShardLocal, explicit: bool) {
        debug_assert!(
            l.first_arrival.is_none_or(|(_, e)| e == explicit),
            "SPMD programs cannot mix barrier kinds within one episode"
        );
        l.stats[self.li].barriers += 1;
        l.arrivals += 1;
        l.arrive_max = l.arrive_max.max(l.vclock[self.li]);
        l.first_arrival.get_or_insert((self.pe, explicit));
        l.block[self.li] = Block::BarrierWait;
    }

    /// Finish a parked call the scheduler has completed (`done`).
    fn resumed(&self, l: &mut ShardLocal, done: Block) -> bool {
        let was = l.block[self.li] == done;
        if was {
            l.block[self.li] = Block::Run;
        }
        was
    }

    fn locks(&self) -> &RefCell<Locks> {
        self.locks.expect("lock-using modules run on the sequential scheduler")
    }

    /// Count, charge and (when remote) trace one scalar put or get.
    fn access(&self, kind: EventKind, target: usize, addr: SymAddr) {
        let mut l = self.local.borrow_mut();
        let local = target == self.pe;
        let s = &mut l.stats[self.li];
        *match kind {
            EventKind::Put if local => &mut s.local_puts,
            EventKind::Put => &mut s.remote_puts,
            _ if local => &mut s.local_gets,
            _ => &mut s.remote_gets,
        } += 1;
        self.charge(&mut l, target);
        if !local {
            self.trace(&mut l, kind, target, addr, 8);
        }
    }
}

impl Substrate for SimPe<'_> {
    fn id(&self) -> usize {
        self.pe
    }

    fn n_pes(&self) -> usize {
        self.cfg.n_pes
    }

    fn shmalloc(&self, words: usize) -> Progress<SymAddr> {
        let mut l = self.local.borrow_mut();
        let seq = l.alloc_seq[self.li];
        if self.resumed(&mut l, Block::BarrierDone) {
            return Progress::Ready(self.world.alloc.offset(seq as usize - 1));
        }
        // First attempt: hand the request to the scheduler, which
        // claims it through the shared `AllocLog`, and enter the
        // allocation fence (counted as a barrier, untraced, free in
        // virtual time — identical to the threaded world).
        l.alloc_seq[self.li] = seq + 1;
        l.alloc_reqs.push((seq, self.pe, words));
        self.enter_barrier(&mut l, false);
        Progress::Pending
    }

    fn put_u64(&self, addr: SymAddr, target: usize, value: u64) {
        self.access(EventKind::Put, target, addr);
        self.world.store(target, addr, value);
    }

    fn get_u64(&self, addr: SymAddr, target: usize) -> u64 {
        self.access(EventKind::Get, target, addr);
        self.world.load(target, addr)
    }

    fn barrier(&self) -> Progress<()> {
        let mut l = self.local.borrow_mut();
        if self.resumed(&mut l, Block::BarrierDone) {
            self.trace(&mut l, EventKind::BarrierExit, self.pe, SymAddr(0), 0);
            return Progress::Ready(());
        }
        self.trace(&mut l, EventKind::BarrierEnter, self.pe, SymAddr(0), 0);
        self.enter_barrier(&mut l, true);
        Progress::Pending
    }

    fn lock(&self, addr: SymAddr, target: usize) -> Progress<()> {
        let mut l = self.local.borrow_mut();
        // A grant while parked leaves the clock alone: waiting is free
        // in virtual time, as in the threaded accounting.
        if !self.resumed(&mut l, Block::LockDone) {
            l.stats[self.li].lock_acquires += 1;
            self.charge(&mut l, target);
            let mut locks = self.locks().borrow_mut();
            if !locks.acquire(self.world, self.cfg.lock, self.pe, target, addr) {
                l.block[self.li] = Block::LockWait;
                return Progress::Pending;
            }
        }
        self.trace(&mut l, EventKind::LockAcquire, target, addr, 0);
        Progress::Ready(())
    }

    fn try_lock(&self, addr: SymAddr, target: usize) -> bool {
        let mut l = self.local.borrow_mut();
        l.stats[self.li].lock_tries += 1;
        self.charge(&mut l, target);
        let got = Locks::try_acquire(self.world, self.cfg.lock, self.pe, target, addr);
        self.trace(&mut l, EventKind::LockTry, target, addr, got as u32);
        got
    }

    fn unlock(&self, addr: SymAddr, target: usize) {
        let mut l = self.local.borrow_mut();
        l.stats[self.li].lock_releases += 1;
        self.charge(&mut l, target);
        let mut locks = self.locks().borrow_mut();
        if let Some(g) = locks.release(self.world, self.cfg.lock, self.pe, target, addr) {
            // The grantee resumes at the hand-off with its own clock
            // untouched.
            l.block[g] = Block::LockDone;
            locks.wakes.push((l.vclock[g].max(l.vclock[self.li]), g));
        }
        self.trace(&mut l, EventKind::LockRelease, target, addr, 0);
    }

    fn rand_i64(&self) -> i64 {
        self.local.borrow_mut().rng[self.li].gen_i64_below(1i64 << 31)
    }

    fn rand_f64(&self) -> f64 {
        self.local.borrow_mut().rng[self.li].gen_unit_f64()
    }
}
