//! The resumable stack machine executing compiled modules over any
//! [`Substrate`].
//!
//! Historically the VM ran each PE as a recursive `exec` loop directly
//! against the threaded [`lol_shmem::Pe`] handle — blocking operations
//! simply blocked the OS thread. That shape cannot scale past a few
//! thousand PEs, so the execution loop lives here as an *explicit*
//! machine: frames are a heap-allocated stack (no host recursion), the
//! program counter is data, and every potentially-blocking substrate
//! call ([`Substrate::shmalloc`], [`Substrate::barrier`],
//! [`Substrate::lock`]) may return [`Progress::Pending`], in which
//! case [`Machine::resume`] rewinds the instruction and yields
//! [`Step::Blocked`]. The caller re-invokes `resume` when the
//! substrate says the PE can make progress:
//!
//! * the threaded backends (`run_on_pe`) call it in a loop — the
//!   threaded substrate never pends, so the loop runs each PE to
//!   completion exactly as before;
//! * the discrete-event engine (`lol-sim`) parks the machine and
//!   re-resumes it from a binary-heap event queue, which is what makes
//!   million-PE jobs possible on one thread.
//!
//! # Hot-path layout
//!
//! [`Machine::resume`] destructures `self` into disjoint field borrows
//! and holds `&mut Frame` for the whole frame activation, so a scalar
//! load is one bounds-checked index — not a `frames[fi].slots[s]`
//! double hop — and `pc` lives in a register, written back only at
//! control transfers (call, return, block). Scalar slots are a plain
//! `Vec<Value>` and local arrays live in a separate per-frame table, so
//! the scalar fast path never branches on an array/scalar discriminant
//! and NUMBR/NUMBAR/TROOF moves are plain 24-byte copies that never
//! touch an `Arc`. Superinstructions (see [`Op`]) collapse the
//! compiler's loop-guard, pinned-store and stencil idioms into single
//! dispatches.
//!
//! Typed opcodes read every operand through one tag-checked accessor
//! ([`typed`]) and write typed slots in place ([`typed_mut`]), so a
//! NUMBR/NUMBAR step is native arithmetic with no coercion, no boxed
//! `Result<Value, _>` and no drop glue.
//!
//! Internal invariant violations (operand-stack underflow, slot or
//! constant indices out of range, a typed op meeting a variant the
//! typing analysis ruled out — only reachable with a malformed
//! [`Module`], i.e. a compiler bug) surface as the stable `RUN0192`
//! error code through the normal [`RResult`] channel instead of a
//! panic, so a bad module produces a structured `O NOES!` diagnostic
//! and a FAILED sweep entry rather than tearing down the job with an
//! opaque unwind. After an `Err` the machine is dead: `resume` must
//! not be called again (the `pc` is mid-instruction).
//!
//! The instruction semantics are a line-for-line port of the old
//! recursive loop; the differential tests in `lib.rs` pin VM output to
//! the interpreter's byte-for-byte.

use crate::ops::{ArrLoc, Chunk, Module, Op};
use crate::profile::VmProfile;
use lol_ast::{BinOp, LolType, UnOp};
use lol_interp::value::{
    arith, arith_f64, arith_i64, cast, compare, compare_f64, default_for, RResult, RunError, Value,
};
use lol_shmem::substrate::{Progress, Substrate};
use lol_shmem::SymAddr;
use std::collections::VecDeque;

const MAX_CALL_DEPTH: usize = 200;

/// What a call to [`Machine::resume`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The program ran to completion; collect the output with
    /// [`Machine::take_output`].
    Done,
    /// The PE would block (allocation fence, barrier, or lock). The
    /// substrate has parked it; resume again once it is woken.
    Blocked,
}

/// Internal-invariant violation: only a malformed module (a compiler
/// bug) can reach these, so they carry a dedicated stable code instead
/// of panicking across the substrate.
#[cold]
fn vmbug(what: &str) -> RunError {
    RunError::new("RUN0192", format!("INTERNAL VM BUG: {what} — DIS IZ NOT UR PROGRAMZ FAULT"))
}

/// A local (`I HAS A ... LOTZ`) array.
#[derive(Debug, Clone)]
struct LocalArr {
    elems: Vec<Value>,
    ty: LolType,
}

/// Which chunk a frame executes.
#[derive(Debug, Clone, Copy)]
enum ChunkRef {
    Main,
    Func(u16),
}

#[derive(Debug)]
struct Frame {
    chunk: ChunkRef,
    pc: usize,
    /// Scalar slots (slot 0 = IT).
    slots: Vec<Value>,
    /// Local arrays (separate index space); `None` until `LocalArrNew`.
    arrays: Vec<Option<LocalArr>>,
}

/// How a frame activation ended (other than blocking or erroring).
enum Xfer {
    /// Pop the frame; push the value for the caller (Noob for implicit
    /// returns and `Halt`). If it was the last frame, the program is
    /// done.
    Unwind(Value),
    /// Push the callee frame and enter it.
    Call(Frame),
}

/// One PE's complete execution state, decoupled from any thread.
///
/// Memory footprint is deliberately lean — a fresh machine is a few
/// empty `Vec`s plus the main frame's slots — because the simulator
/// keeps one `Machine` per PE and a million of them must fit in RAM.
pub struct Machine<'a> {
    module: &'a Module,
    base: SymAddr,
    /// Set once the startup allocation (if any) has completed.
    started: bool,
    frames: Vec<Frame>,
    stack: Vec<Value>,
    bff: Vec<usize>,
    out: String,
    input: VecDeque<String>,
    /// Opt-in per-op execution counters; `None` (the default) keeps
    /// the dispatch loop's profiling cost to one predictable branch.
    prof: Option<Box<VmProfile>>,
}

impl<'a> Machine<'a> {
    /// A machine ready to run `module` from the beginning.
    pub fn new(module: &'a Module, input: &[String]) -> Self {
        Machine {
            module,
            base: SymAddr(0),
            started: false,
            frames: Vec::new(),
            // Deliberately empty: a mega-scale simulation holds one
            // Machine per PE, so a fresh machine must cost no heap at
            // all — the stack grows on first use instead of reserving
            // 16 slots (384 bytes) per idle PE.
            stack: Vec::new(),
            bff: Vec::new(),
            out: String::new(),
            input: input.iter().cloned().collect(),
            prof: None,
        }
    }

    /// The captured `VISIBLE` output (call after [`Step::Done`]).
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// Turn on bytecode profiling: every subsequently dispatched op is
    /// counted into a [`VmProfile`] (collect it with
    /// [`Machine::take_profile`]). Call before the first
    /// [`Machine::resume`] for a whole-run profile.
    pub fn enable_profile(&mut self) {
        if self.prof.is_none() {
            self.prof = Some(Box::new(VmProfile::for_module(self.module)));
        }
    }

    /// Detach the collected profile (`None` if profiling was never
    /// enabled). Profiling stops until re-enabled.
    pub fn take_profile(&mut self) -> Option<VmProfile> {
        self.prof.take().map(|b| *b)
    }

    /// Run until the program completes or the PE would block.
    ///
    /// On [`Step::Blocked`] the machine has already rewound to re-issue
    /// the same substrate call; calling `resume` again retries it.
    /// Stats and latency accounting stay exact because substrates
    /// charge them on the first attempt only. On `Err` the machine is
    /// dead and must not be resumed.
    pub fn resume<S: Substrate + ?Sized>(&mut self, sub: &S) -> RResult<Step> {
        let module = self.module;
        if !self.started {
            if module.shared_words > 0 {
                match sub.shmalloc(module.shared_words) {
                    Progress::Ready(a) => self.base = a,
                    Progress::Pending => return Ok(Step::Blocked),
                }
            }
            self.started = true;
            self.frames.push(new_frame(ChunkRef::Main, &module.main));
        }
        let base = self.base;
        // Split `self` into disjoint borrows so the dispatch loop can
        // hold `&mut Frame` (from `frames`) alongside the operand
        // stack and output buffer without going through `self`.
        let Machine { frames, stack, bff, out, input, prof, .. } = self;
        let mut prof = prof.as_deref_mut();
        // Outer loop: one iteration per frame activation. The inner
        // loop keeps `pc` and `chunk` in locals — `chunk` borrows from
        // `module` (not `self`) — and breaks with the control transfer
        // once the activation ends.
        loop {
            let depth = frames.len();
            let Some(frame) = frames.last_mut() else { return Ok(Step::Done) };
            let chunk = chunk_of(module, frame.chunk);
            // Heat-plane index for this activation (0 = main,
            // i + 1 = funcs[i]) — hoisted so the profiled inner loop
            // pays two array increments per op and nothing more.
            let ci = match frame.chunk {
                ChunkRef::Main => 0,
                ChunkRef::Func(i) => i as usize + 1,
            };
            let mut pc = frame.pc;
            let xfer = loop {
                let Some(op) = chunk.code.get(pc) else {
                    // Fell off the end of the chunk: implicit return.
                    break Xfer::Unwind(Value::Noob);
                };
                pc += 1;
                // One predictable branch when profiling is off; the
                // counters live outside the match so every opcode —
                // including superinstructions — is counted exactly once.
                if let Some(p) = prof.as_deref_mut() {
                    p.hit(ci, pc - 1, op.profile_index());
                }
                match op {
                    Op::Const(k) => {
                        let v = konst(module, *k)?.clone();
                        stack.push(v);
                    }
                    Op::LoadLocal(s) => {
                        let v = slot(frame, *s)?.clone();
                        stack.push(v);
                    }
                    Op::StoreLocal(s) => {
                        let v = pop(stack)?;
                        *slot_mut(frame, *s)? = v;
                    }
                    Op::Cast(ty) => {
                        let v = top(stack)?;
                        *v = cast(v, *ty)?;
                    }
                    Op::Pop => {
                        pop(stack)?;
                    }
                    Op::SharedLoad { off, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let v = shared_read(base, sub, *off, 0, *ty, t);
                        stack.push(v);
                    }
                    Op::SharedStore { off, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        pop_with(stack, |v| shared_write(base, sub, *off, 0, *ty, t, v))?;
                    }
                    Op::SharedLoadIdx { off, len, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(pop_with(stack, Value::to_numbr)?, *len)?;
                        let v = shared_read(base, sub, *off, i, *ty, t);
                        stack.push(v);
                    }
                    Op::SharedStoreIdx { off, len, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(pop_with(stack, Value::to_numbr)?, *len)?;
                        pop_with(stack, |v| shared_write(base, sub, *off, i, *ty, t, v))?;
                    }
                    Op::LocalArrNew { arr, ty } => {
                        let n = pop_with(stack, Value::to_numbr)?;
                        if n <= 0 {
                            return Err(RunError::new(
                                "RUN0014",
                                format!("ARRAY SIZE MUST BE POSITIVE, NOT {n}"),
                            ));
                        }
                        *frame
                            .arrays
                            .get_mut(*arr as usize)
                            .ok_or_else(|| vmbug("ARRAY SLOT OUT OF RANGE"))? =
                            Some(LocalArr { elems: vec![default_for(*ty); n as usize], ty: *ty });
                    }
                    Op::LocalArrLoad { arr: a } => {
                        let i = pop_with(stack, Value::to_numbr)?;
                        let v = arr_load(frame, *a, i)?;
                        stack.push(v);
                    }
                    Op::LocalArrStore { arr: a } => {
                        let i = pop_with(stack, Value::to_numbr)?;
                        pop_with(stack, |v| arr_store(frame, *a, i, v))?;
                    }
                    Op::ArrayCopy { dst, src } => array_copy(frame, sub, base, bff, dst, src)?,
                    Op::Bin(op) => {
                        let at = stack_base(stack, 2)?;
                        let r = binop(*op, &stack[at], &stack[at + 1])?;
                        stack.truncate(at + 1);
                        stack[at] = r;
                    }
                    Op::Un(op) => {
                        let v = top(stack)?;
                        *v = unop(*op, v)?;
                    }
                    Op::ConstI(k) => stack.push(Value::Numbr(*k)),
                    Op::ConstD(k) => stack.push(Value::Numbar(*k)),
                    Op::BinI(op) => bin_stack::<i64>(stack, *op)?,
                    Op::BinD(op) => bin_stack::<f64>(stack, *op)?,
                    Op::UnD(op) => {
                        let v = top(stack)?;
                        *v = un_d(*op, typed(v)?);
                    }
                    Op::IToD(depth) => {
                        let at = stack.len().checked_sub(1 + *depth as usize);
                        let v = &mut stack[at.ok_or_else(|| vmbug("OPERAND STACK UNDERFLOW"))?];
                        *v = Value::Numbar(typed::<i64>(v)? as f64);
                    }
                    Op::StoreI(s) => {
                        let x = pop_typed::<i64>(stack)?;
                        *typed_mut::<i64>(slot_mut(frame, *s)?)? = x;
                    }
                    Op::StoreD(s) => {
                        let x = pop_typed::<f64>(stack)?;
                        *typed_mut::<f64>(slot_mut(frame, *s)?)? = x;
                    }
                    Op::SharedLoadIdxI { off, len, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(pop_typed::<i64>(stack)?, *len)?;
                        let v = shared_read(base, sub, *off, i, *ty, t);
                        stack.push(v);
                    }
                    Op::SharedStoreIdxT { off, len, ty, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(pop_typed::<i64>(stack)?, *len)?;
                        pop_with(stack, |v| shared_write_t(base, sub, *off, i, *ty, t, v))?;
                    }
                    Op::LocalArrLoadI { arr: a } => {
                        let i = pop_typed::<i64>(stack)?;
                        let v = arr_load(frame, *a, i)?;
                        stack.push(v);
                    }
                    Op::LocalArrStoreI { arr: a } => {
                        let i = pop_typed::<i64>(stack)?;
                        arr_store_t::<i64>(frame, stack, *a, i)?;
                    }
                    Op::LocalArrStoreD { arr: a } => {
                        let i = pop_typed::<i64>(stack)?;
                        arr_store_t::<f64>(frame, stack, *a, i)?;
                    }
                    Op::BinLL { op, a, b } => {
                        let r = binop(*op, slot(frame, *a)?, slot(frame, *b)?)?;
                        stack.push(r);
                    }
                    Op::BinLC { op, a, k } => {
                        let r = binop(*op, slot(frame, *a)?, konst(module, *k)?)?;
                        stack.push(r);
                    }
                    Op::BinSL { op, b } => {
                        let va = top(stack)?;
                        *va = binop(*op, va, slot(frame, *b)?)?;
                    }
                    Op::BinSC { op, k } => {
                        let va = top(stack)?;
                        *va = binop(*op, va, konst(module, *k)?)?;
                    }
                    Op::BinLLS { op, a, b, dst } => {
                        let r = binop(*op, slot(frame, *a)?, slot(frame, *b)?)?;
                        *slot_mut(frame, *dst)? = r;
                    }
                    Op::BinLCS { op, a, k, dst } => {
                        let r = binop(*op, slot(frame, *a)?, konst(module, *k)?)?;
                        *slot_mut(frame, *dst)? = r;
                    }
                    Op::CastStore { ty, slot: s } => {
                        let c = pop_with(stack, |v| cast(v, *ty))?;
                        *slot_mut(frame, *s)? = c;
                    }
                    Op::JumpIfLocalEqConst { slot: s, k, target } => {
                        if slot(frame, *s)?.saem(konst(module, *k)?) {
                            pc = *target as usize;
                        }
                    }
                    Op::JumpIfLocalEqLocal { a, b, target } => {
                        if slot(frame, *a)?.saem(slot(frame, *b)?) {
                            pc = *target as usize;
                        }
                    }
                    Op::JumpIfLocalFalse { slot: s, target } => {
                        if !slot(frame, *s)?.to_troof() {
                            pc = *target as usize;
                        }
                    }
                    Op::LocalArrLoadL { arr: a, idx } => {
                        let v = arr_load(frame, *a, slot(frame, *idx)?.to_numbr()?)?;
                        stack.push(v);
                    }
                    Op::LocalArrStoreL { arr: a, idx } => {
                        let i = slot(frame, *idx)?.to_numbr()?;
                        pop_with(stack, |v| arr_store(frame, *a, i, v))?;
                    }
                    Op::SharedLoadIdxL { off, len, ty, remote, idx } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(slot(frame, *idx)?.to_numbr()?, *len)?;
                        let v = shared_read(base, sub, *off, i, *ty, t);
                        stack.push(v);
                    }
                    Op::SharedStoreIdxL { off, len, ty, remote, idx } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(slot(frame, *idx)?.to_numbr()?, *len)?;
                        pop_with(stack, |v| shared_write(base, sub, *off, i, *ty, t, v))?;
                    }
                    Op::LocalArrLoadIL { arr: a, idx } => {
                        let v = arr_load(frame, *a, local(frame, *idx)?)?;
                        stack.push(v);
                    }
                    Op::SharedLoadIdxIL { off, len, ty, remote, idx } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(local(frame, *idx)?, *len)?;
                        let v = shared_read(base, sub, *off, i, *ty, t);
                        stack.push(v);
                    }
                    Op::LocalArrStoreIL { arr: a, idx } => {
                        let i = local::<i64>(frame, *idx)?;
                        arr_store_t::<i64>(frame, stack, *a, i)?;
                    }
                    Op::LocalArrStoreDL { arr: a, idx } => {
                        let i = local::<i64>(frame, *idx)?;
                        arr_store_t::<f64>(frame, stack, *a, i)?;
                    }
                    Op::SharedStoreIdxTL { off, len, ty, remote, idx } => {
                        let t = target(bff, sub, *remote)?;
                        let i = bounds(local::<i64>(frame, *idx)?, *len)?;
                        pop_with(stack, |v| shared_write_t(base, sub, *off, i, *ty, t, v))?;
                    }
                    Op::BinILL { op, a, b } => {
                        let r = bin_t::<i64>(*op, local(frame, *a)?, local(frame, *b)?)?;
                        stack.push(r);
                    }
                    Op::BinDLL { op, a, b } => {
                        let r = bin_t::<f64>(*op, local(frame, *a)?, local(frame, *b)?)?;
                        stack.push(r);
                    }
                    Op::BinILC { op, a, k } => {
                        let r = bin_t::<i64>(*op, local(frame, *a)?, *k)?;
                        stack.push(r);
                    }
                    Op::BinDLC { op, a, k } => {
                        let r = bin_t::<f64>(*op, local(frame, *a)?, *k)?;
                        stack.push(r);
                    }
                    Op::BinILLS { op, a, b, dst } => {
                        let r = i64::arith(*op, local(frame, *a)?, local(frame, *b)?)?;
                        *typed_mut::<i64>(slot_mut(frame, *dst)?)? = r;
                    }
                    Op::BinDLLS { op, a, b, dst } => {
                        let r = f64::arith(*op, local(frame, *a)?, local(frame, *b)?)?;
                        *typed_mut::<f64>(slot_mut(frame, *dst)?)? = r;
                    }
                    Op::BinILCS { op, a, k, dst } => {
                        let r = i64::arith(*op, local(frame, *a)?, *k)?;
                        *typed_mut::<i64>(slot_mut(frame, *dst)?)? = r;
                    }
                    Op::BinDLCS { op, a, k, dst } => {
                        let r = f64::arith(*op, local(frame, *a)?, *k)?;
                        *typed_mut::<f64>(slot_mut(frame, *dst)?)? = r;
                    }
                    Op::BinIS { op, dst } => {
                        let y = pop_typed::<i64>(stack)?;
                        let x = pop_typed::<i64>(stack)?;
                        *typed_mut::<i64>(slot_mut(frame, *dst)?)? = i64::arith(*op, x, y)?;
                    }
                    Op::BinDS { op, dst } => {
                        let y = pop_typed::<f64>(stack)?;
                        let x = pop_typed::<f64>(stack)?;
                        *typed_mut::<f64>(slot_mut(frame, *dst)?)? = f64::arith(*op, x, y)?;
                    }
                    Op::JumpIfIEqConst { slot: s, k, target } => {
                        if local::<i64>(frame, *s)? == *k {
                            pc = *target as usize;
                        }
                    }
                    Op::JumpIfIEqLocal { a, b, target } => {
                        if local::<i64>(frame, *a)? == local::<i64>(frame, *b)? {
                            pc = *target as usize;
                        }
                    }
                    Op::IfILL { op, a, b, target } => {
                        let r = cmp_t::<i64>(*op, local(frame, *a)?, local(frame, *b)?)?;
                        *slot_mut(frame, 0)? = Value::Troof(r);
                        if !r {
                            pc = *target as usize;
                        }
                    }
                    Op::IfILC { op, a, k, target } => {
                        let r = cmp_t::<i64>(*op, local(frame, *a)?, *k)?;
                        *slot_mut(frame, 0)? = Value::Troof(r);
                        if !r {
                            pc = *target as usize;
                        }
                    }
                    Op::Smoosh(n) => {
                        let at = stack_base(stack, *n)?;
                        let mut s = String::new();
                        for v in &stack[at..] {
                            s.push_str(&v.to_yarn()?);
                        }
                        stack.truncate(at);
                        stack.push(Value::yarn(s));
                    }
                    Op::AllOf(n) => {
                        let at = stack_base(stack, *n)?;
                        let r = stack[at..].iter().all(|v| v.to_troof());
                        stack.truncate(at);
                        stack.push(Value::Troof(r));
                    }
                    Op::AnyOf(n) => {
                        let at = stack_base(stack, *n)?;
                        let r = stack[at..].iter().any(|v| v.to_troof());
                        stack.truncate(at);
                        stack.push(Value::Troof(r));
                    }
                    Op::Jump(t) => pc = *t as usize,
                    Op::JumpIfFalse(t) => {
                        if !pop_with(stack, |v| Ok(v.to_troof()))? {
                            pc = *t as usize;
                        }
                    }
                    Op::Call { func, argc } => {
                        // depth - 1 = number of active calls.
                        if depth > MAX_CALL_DEPTH {
                            return Err(RunError::new(
                                "RUN0130",
                                format!("2 MUCH RECURSHUN (DEPTH {MAX_CALL_DEPTH})"),
                            ));
                        }
                        let (_, chunk, arity) = module
                            .funcs
                            .get(*func as usize)
                            .ok_or_else(|| vmbug("FUNKSHUN INDEX OUT OF RANGE"))?;
                        debug_assert_eq!(*arity, *argc, "arity checked by sema");
                        let mut callee = new_frame(ChunkRef::Func(*func), chunk);
                        // Args were pushed left-to-right: pop into reverse.
                        for i in (0..*argc).rev() {
                            let v = pop(stack)?;
                            *callee
                                .slots
                                .get_mut(1 + i as usize)
                                .ok_or_else(|| vmbug("ARG SLOT OUT OF RANGE"))? = v;
                        }
                        frame.pc = pc;
                        break Xfer::Call(callee);
                    }
                    Op::Ret => {
                        let v = pop(stack)?;
                        break Xfer::Unwind(v);
                    }
                    Op::Visible { argc, newline } => {
                        let at = stack_base(stack, *argc)?;
                        for v in &stack[at..] {
                            let s = v.to_yarn()?;
                            out.push_str(&s);
                        }
                        stack.truncate(at);
                        if *newline {
                            out.push('\n');
                        }
                    }
                    Op::ReadLine => {
                        let line = input.pop_front().ok_or_else(|| {
                            RunError::new("RUN0140", "GIMMEH BUT THERES NO MOAR INPUT")
                        })?;
                        stack.push(Value::yarn(line));
                    }
                    Op::Barrier => {
                        if let Progress::Pending = sub.barrier() {
                            frame.pc = pc - 1;
                            return Ok(Step::Blocked);
                        }
                    }
                    Op::LockAcquire { off, remote } => {
                        let t = target(bff, sub, *remote)?;
                        if let Progress::Pending = sub.lock(base.offset(*off as usize), t) {
                            frame.pc = pc - 1;
                            return Ok(Step::Blocked);
                        }
                    }
                    Op::LockTry { off, remote } => {
                        let t = target(bff, sub, *remote)?;
                        let got = sub.try_lock(base.offset(*off as usize), t);
                        stack.push(Value::Troof(got));
                    }
                    Op::LockRelease { off, remote } => {
                        let t = target(bff, sub, *remote)?;
                        sub.unlock(base.offset(*off as usize), t);
                    }
                    Op::PushBff => {
                        let k = pop_with(stack, Value::to_numbr)?;
                        if k < 0 || k as usize >= sub.n_pes() {
                            return Err(RunError::new(
                                "RUN0017",
                                format!(
                                    "PE {k} IZ NOT MAH FREN (THERE R ONLY {} OF US)",
                                    sub.n_pes()
                                ),
                            ));
                        }
                        bff.push(k as usize);
                    }
                    Op::PopBff => {
                        bff.pop();
                    }
                    Op::Me => stack.push(Value::Numbr(sub.id() as i64)),
                    Op::MahFrenz => stack.push(Value::Numbr(sub.n_pes() as i64)),
                    Op::RandI => stack.push(Value::Numbr(sub.rand_i64())),
                    Op::RandF => stack.push(Value::Numbar(sub.rand_f64())),
                    Op::Halt => {
                        // Halt inside a function behaves like falling off
                        // the end: the call produced no value.
                        break Xfer::Unwind(Value::Noob);
                    }
                }
            };
            match xfer {
                Xfer::Unwind(v) => {
                    frames.pop();
                    if frames.is_empty() {
                        return Ok(Step::Done);
                    }
                    stack.push(v);
                }
                Xfer::Call(callee) => frames.push(callee),
            }
        }
    }
}

fn chunk_of(module: &Module, c: ChunkRef) -> &Chunk {
    match c {
        ChunkRef::Main => &module.main,
        ChunkRef::Func(i) => &module.funcs[i as usize].1,
    }
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> RResult<Value> {
    stack.pop().ok_or_else(|| vmbug("OPERAND STACK UNDERFLOW"))
}

/// The top of the stack, to replace in place.
#[inline]
fn top(stack: &mut [Value]) -> RResult<&mut Value> {
    stack.last_mut().ok_or_else(|| vmbug("OPERAND STACK UNDERFLOW"))
}

/// Pop the top value through `f`, which reads it where it lies; the
/// slot is then dropped in place rather than moved out.
#[inline(always)]
fn pop_with<R>(stack: &mut Vec<Value>, f: impl FnOnce(&Value) -> RResult<R>) -> RResult<R> {
    let n = stack.len();
    let r = f(stack.last().ok_or_else(|| vmbug("OPERAND STACK UNDERFLOW"))?)?;
    stack.truncate(n - 1);
    Ok(r)
}

/// Start index of the top `n` stack values (for n-ary ops).
#[inline]
fn stack_base(stack: &[Value], n: u8) -> RResult<usize> {
    stack.len().checked_sub(n as usize).ok_or_else(|| vmbug("OPERAND STACK UNDERFLOW"))
}

#[inline]
fn slot(frame: &Frame, s: u16) -> RResult<&Value> {
    frame.slots.get(s as usize).ok_or_else(|| vmbug("SCALAR SLOT OUT OF RANGE"))
}

#[inline]
fn slot_mut(frame: &mut Frame, s: u16) -> RResult<&mut Value> {
    frame.slots.get_mut(s as usize).ok_or_else(|| vmbug("SCALAR SLOT OUT OF RANGE"))
}

#[inline]
fn konst(module: &Module, k: u16) -> RResult<&Value> {
    module.consts.get(k as usize).ok_or_else(|| vmbug("CONSTANT INDEX OUT OF RANGE"))
}

/// A NUMBR or NUMBAR the typed opcodes read and write unboxed.
trait Prim: Copy + PartialEq {
    /// The number inside `v`, if `v` is this type's variant.
    fn get(v: &Value) -> Option<Self>;
    /// The number inside `v`, in place, if `v` is this type's variant.
    fn get_mut(v: &mut Value) -> Option<&mut Self>;
    fn boxed(self) -> Value;
    fn as_f64(self) -> f64;
    /// [`Value::to_troof`] of the boxed value.
    fn truthy(self) -> bool;
    /// An arithmetic operator, exactly as [`arith`] computes it on two
    /// values of this variant.
    fn arith(op: BinOp, x: Self, y: Self) -> RResult<Self>;
}

impl Prim for i64 {
    #[inline(always)]
    fn get(v: &Value) -> Option<i64> {
        match v {
            Value::Numbr(x) => Some(*x),
            _ => None,
        }
    }
    #[inline(always)]
    fn get_mut(v: &mut Value) -> Option<&mut i64> {
        match v {
            Value::Numbr(x) => Some(x),
            _ => None,
        }
    }
    #[inline(always)]
    fn boxed(self) -> Value {
        Value::Numbr(self)
    }
    #[inline(always)]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn truthy(self) -> bool {
        self != 0
    }
    #[inline(always)]
    fn arith(op: BinOp, x: i64, y: i64) -> RResult<i64> {
        if !is_arith(op) {
            return Err(vmbug("TYPED STORE OF A NON-ARITHMETIC RESULT"));
        }
        arith_i64(op, x, y)
    }
}

impl Prim for f64 {
    #[inline(always)]
    fn get(v: &Value) -> Option<f64> {
        match v {
            Value::Numbar(x) => Some(*x),
            _ => None,
        }
    }
    #[inline(always)]
    fn get_mut(v: &mut Value) -> Option<&mut f64> {
        match v {
            Value::Numbar(x) => Some(x),
            _ => None,
        }
    }
    #[inline(always)]
    fn boxed(self) -> Value {
        Value::Numbar(self)
    }
    #[inline(always)]
    fn as_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn truthy(self) -> bool {
        self != 0.0
    }
    #[inline(always)]
    fn arith(op: BinOp, x: f64, y: f64) -> RResult<f64> {
        if !is_arith(op) {
            return Err(vmbug("TYPED STORE OF A NON-ARITHMETIC RESULT"));
        }
        Ok(arith_f64(op, x, y))
    }
}

#[inline(always)]
fn is_arith(op: BinOp) -> bool {
    use BinOp::*;
    matches!(op, Sum | Diff | Produkt | Quoshunt | Mod | BiggrOf | SmallrOf)
}

/// The one tag-checked read of a statically typed value. A variant the
/// typing analysis ruled out is a compiler bug (`RUN0192`), never a
/// coercion — so an analysis bug cannot turn into wrong output.
#[inline(always)]
fn typed<T: Prim>(v: &Value) -> RResult<T> {
    T::get(v).ok_or_else(|| vmbug("TYPED OP MET A VALUE OF ANOTHER TYPE"))
}

/// The in-place counterpart of [`typed`], for typed stores: the slot
/// already holds the variant, so only its number changes (no drop).
#[inline(always)]
fn typed_mut<T: Prim>(v: &mut Value) -> RResult<&mut T> {
    T::get_mut(v).ok_or_else(|| vmbug("TYPED STORE INTO A SLOT OF ANOTHER TYPE"))
}

#[inline(always)]
fn local<T: Prim>(frame: &Frame, s: u16) -> RResult<T> {
    typed(slot(frame, s)?)
}

#[inline(always)]
fn pop_typed<T: Prim>(stack: &mut Vec<Value>) -> RResult<T> {
    pop_with(stack, typed)
}

/// A binary operator on two typed operands, exactly as [`binop`]
/// computes it on their boxed values.
#[inline(always)]
fn bin_t<T: Prim>(op: BinOp, x: T, y: T) -> RResult<Value> {
    use BinOp::*;
    Ok(match op {
        Sum | Diff | Produkt | Quoshunt | Mod | BiggrOf | SmallrOf => T::arith(op, x, y)?.boxed(),
        _ => Value::Troof(cmp_t(op, x, y)?),
    })
}

/// A comparison or logic operator on two typed operands.
#[inline(always)]
fn cmp_t<T: Prim>(op: BinOp, x: T, y: T) -> RResult<bool> {
    use BinOp::*;
    Ok(match op {
        Bigger | Smallr => compare_f64(op, x.as_f64(), y.as_f64()),
        BothSaem => x == y,
        Diffrint => x != y,
        BothOf => x.truthy() && y.truthy(),
        EitherOf => x.truthy() || y.truthy(),
        WonOf => x.truthy() ^ y.truthy(),
        _ => return Err(vmbug("ARITHMETIC WHERE A TROOF WAS EXPECTED")),
    })
}

/// A typed binary operator on the top two stack values, in place.
#[inline(always)]
fn bin_stack<T: Prim>(stack: &mut Vec<Value>, op: BinOp) -> RResult<()> {
    let y = pop_typed::<T>(stack)?;
    let v = top(stack)?;
    *v = bin_t(op, typed(v)?, y)?;
    Ok(())
}

/// A unary operator on a NUMBAR, exactly as [`unop`] computes it.
#[inline(always)]
fn un_d(op: UnOp, x: f64) -> Value {
    match op {
        UnOp::Not => Value::Troof(!x.truthy()),
        UnOp::Squar => Value::Numbar(arith_f64(BinOp::Produkt, x, x)),
        UnOp::Unsquar => Value::Numbar(x.sqrt()),
        UnOp::Flip => Value::Numbar(1.0 / x),
    }
}

fn arr(frame: &Frame, a: u16) -> RResult<&LocalArr> {
    frame
        .arrays
        .get(a as usize)
        .ok_or_else(|| vmbug("ARRAY SLOT OUT OF RANGE"))?
        .as_ref()
        .ok_or_else(|| RunError::new("RUN0122", "NOT LOTZ A THINGZ"))
}

fn arr_mut(frame: &mut Frame, a: u16) -> RResult<&mut LocalArr> {
    frame
        .arrays
        .get_mut(a as usize)
        .ok_or_else(|| vmbug("ARRAY SLOT OUT OF RANGE"))?
        .as_mut()
        .ok_or_else(|| RunError::new("RUN0122", "NOT LOTZ A THINGZ"))
}

fn target<S: Substrate + ?Sized>(bff: &[usize], sub: &S, remote: bool) -> RResult<usize> {
    if remote {
        bff.last().copied().ok_or_else(|| {
            RunError::new("RUN0120", "UR OUTSIDE TXT MAH BFF — WHOS ADDRESS SPACE IZ DIS?")
        })
    } else {
        Ok(sub.id())
    }
}

fn shared_read<S: Substrate + ?Sized>(
    base: SymAddr,
    sub: &S,
    off: u32,
    index: usize,
    ty: LolType,
    target: usize,
) -> Value {
    let addr = base.offset(off as usize + index);
    match ty {
        LolType::Numbar => Value::Numbar(sub.get_f64(addr, target)),
        LolType::Troof => Value::Troof(sub.get_u64(addr, target) != 0),
        _ => Value::Numbr(sub.get_i64(addr, target)),
    }
}

fn shared_write<S: Substrate + ?Sized>(
    base: SymAddr,
    sub: &S,
    off: u32,
    index: usize,
    ty: LolType,
    target: usize,
    v: &Value,
) -> RResult<()> {
    let addr = base.offset(off as usize + index);
    match ty {
        LolType::Numbar => sub.put_f64(addr, target, v.to_numbar()?),
        LolType::Troof => sub.put_u64(addr, target, v.to_troof() as u64),
        _ => sub.put_i64(addr, target, v.to_numbr()?),
    }
    Ok(())
}

/// Element `i` of local array `a`.
#[inline(always)]
fn arr_load(frame: &Frame, a: u16, i: i64) -> RResult<Value> {
    let la = arr(frame, a)?;
    Ok(la.elems[bounds(i, la.elems.len() as u32)?].clone())
}

/// Store `v` into element `i` of local array `a`, cast to its type.
#[inline(always)]
fn arr_store(frame: &mut Frame, a: u16, i: i64, v: &Value) -> RResult<()> {
    let la = arr_mut(frame, a)?;
    let i = bounds(i, la.elems.len() as u32)?;
    la.elems[i] = cast(v, la.ty)?;
    Ok(())
}

/// [`shared_write`] of a value already of the cell's NUMBR/NUMBAR type.
#[inline(always)]
fn shared_write_t<S: Substrate + ?Sized>(
    base: SymAddr,
    sub: &S,
    off: u32,
    index: usize,
    ty: LolType,
    target: usize,
    v: &Value,
) -> RResult<()> {
    let addr = base.offset(off as usize + index);
    match ty {
        LolType::Numbar => sub.put_f64(addr, target, typed(v)?),
        LolType::Troof => return Err(vmbug("TYPED STORE INTO A TROOF CELL")),
        _ => sub.put_i64(addr, target, typed(v)?),
    }
    Ok(())
}

/// Pop a value of the array's own NUMBR/NUMBAR type into element `i`
/// of local array `a`, in place.
#[inline(always)]
fn arr_store_t<T: Prim>(frame: &mut Frame, stack: &mut Vec<Value>, a: u16, i: i64) -> RResult<()> {
    let x = pop_typed::<T>(stack)?;
    let la = arr_mut(frame, a)?;
    let i = bounds(i, la.elems.len() as u32)?;
    *typed_mut::<T>(&mut la.elems[i])? = x;
    Ok(())
}

fn bounds(idx: i64, len: u32) -> RResult<usize> {
    if idx < 0 || idx as u32 >= len {
        Err(RunError::new(
            "RUN0123",
            format!("INDEX {idx} IZ OUTSIDE DA ARRAY (IT HAS {len} THINGZ)"),
        ))
    } else {
        Ok(idx as usize)
    }
}

fn array_copy<S: Substrate + ?Sized>(
    frame: &mut Frame,
    sub: &S,
    base: SymAddr,
    bff: &[usize],
    dst: &ArrLoc,
    src: &ArrLoc,
) -> RResult<()> {
    let values: Vec<Value> = match src {
        ArrLoc::Local { arr: a } => arr(frame, *a)?.elems.clone(),
        ArrLoc::Shared { off, len, ty, remote } => {
            let t = target(bff, sub, *remote)?;
            (0..*len as usize).map(|i| shared_read(base, sub, *off, i, *ty, t)).collect()
        }
    };
    match dst {
        ArrLoc::Local { arr: a } => {
            let ty = arr(frame, *a)?.ty;
            let converted: RResult<Vec<Value>> = values.iter().map(|v| cast(v, ty)).collect();
            arr_mut(frame, *a)?.elems = converted?;
            Ok(())
        }
        ArrLoc::Shared { off, len, ty, remote } => {
            if values.len() != *len as usize {
                return Err(RunError::new(
                    "RUN0013",
                    format!("ARRAY COPY SIZE MISMATCH: {} THINGZ INTO {len}", values.len()),
                ));
            }
            let t = target(bff, sub, *remote)?;
            for (i, v) in values.iter().enumerate() {
                shared_write(base, sub, *off, i, *ty, t, v)?;
            }
            Ok(())
        }
    }
}

#[inline]
fn binop(op: lol_ast::BinOp, a: &Value, b: &Value) -> RResult<Value> {
    use lol_ast::BinOp::*;
    match op {
        Sum | Diff | Produkt | Quoshunt | Mod | BiggrOf | SmallrOf => arith(op, a, b),
        Bigger | Smallr => compare(op, a, b),
        BothSaem => Ok(Value::Troof(a.saem(b))),
        Diffrint => Ok(Value::Troof(!a.saem(b))),
        BothOf => Ok(Value::Troof(a.to_troof() && b.to_troof())),
        EitherOf => Ok(Value::Troof(a.to_troof() || b.to_troof())),
        WonOf => Ok(Value::Troof(a.to_troof() ^ b.to_troof())),
    }
}

#[inline]
fn unop(op: lol_ast::UnOp, v: &Value) -> RResult<Value> {
    use lol_ast::UnOp::*;
    match op {
        Not => Ok(Value::Troof(!v.to_troof())),
        Squar => arith(lol_ast::BinOp::Produkt, v, v),
        Unsquar => Ok(Value::Numbar(v.to_numbar()?.sqrt())),
        Flip => Ok(Value::Numbar(1.0 / v.to_numbar()?)),
    }
}

fn new_frame(cref: ChunkRef, chunk: &Chunk) -> Frame {
    Frame {
        chunk: cref,
        pc: 0,
        slots: vec![Value::Noob; chunk.n_slots as usize],
        arrays: vec![None; chunk.n_arrays as usize],
    }
}
