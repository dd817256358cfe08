//! AST → bytecode compiler.
//!
//! Resolution that the tree-walker repeats on every execution happens
//! exactly once here: variable names become frame slots, shared names
//! become heap offsets, pinned (`ITZ SRSLY A`) types become explicit
//! `Cast` instructions, and control flow becomes jumps. Every
//! expression's static type comes from the one typing analysis
//! ([`lol_sema::types`]); where all operands are NUMBRs or NUMBARs the
//! compiler emits typed opcodes, and a store whose static type already
//! matches the pinned type needs no `Cast`. The dynamic
//! constructs that cannot be resolved statically (`SRS`) are rejected
//! with a compile error (`VMC0001`) — the documented compiled-subset
//! restriction (docs/LANGUAGE.md, "Readings of the paper").

use crate::ops::{ArrLoc, Chunk, Module, Op};
use lol_ast::diag::Diagnostic;
use lol_ast::*;
use lol_interp::Value;
use lol_sema::types::{self, Ty};
use lol_sema::{Analysis, SharedKind, SharedVar};
use std::collections::HashMap;

type CResult<T> = Result<T, Diagnostic>;

/// Compile an analyzed program to bytecode.
pub fn compile(program: &Program, analysis: &Analysis) -> CResult<Module> {
    let mut module = Module::default();
    let mut func_ids: HashMap<Symbol, u16> = HashMap::new();
    for (i, f) in program.funcs.iter().enumerate() {
        func_ids.insert(f.name.sym, i as u16);
    }

    // Main chunk.
    {
        let mut c = FnCompiler::new(analysis, &func_ids, &mut module.consts, false);
        c.enter_scope();
        for s in &program.body {
            c.stmt(s)?;
        }
        c.leave_scope();
        c.code.push(Op::Halt);
        module.main = c.finish();
    }

    // Function chunks.
    for f in &program.funcs {
        let mut c = FnCompiler::new(analysis, &func_ids, &mut module.consts, true);
        c.enter_scope();
        for p in &f.params {
            let slot = c.alloc_slot(p.sym, BOXED);
            debug_assert!(slot >= 1);
        }
        for s in &f.body {
            c.stmt(s)?;
        }
        c.leave_scope();
        // Fall-through returns IT.
        c.code.push(Op::LoadLocal(0));
        c.code.push(Op::Ret);
        module.funcs.push((f.name.sym.as_str().to_string(), c.finish(), f.params.len() as u8));
    }

    module.shared_words = analysis.shared.total_words;
    Ok(module)
}

#[derive(Clone, Copy)]
enum SlotKind {
    /// A scalar of static type `ty`; `pinned` scalars cast every store
    /// to their declared type.
    Scalar { ty: Ty, pinned: Option<LolType> },
    /// A local array whose elements have static type `elem`.
    Array { elem: Ty },
}

/// `IT`, a parameter, or any other untyped, unpinned scalar.
const BOXED: SlotKind = SlotKind::Scalar { ty: Ty::Boxed, pinned: None };

#[derive(Clone)]
struct LocalSlot {
    slot: u16,
    kind: SlotKind,
}

struct FnCompiler<'a> {
    analysis: &'a Analysis,
    func_ids: &'a HashMap<Symbol, u16>,
    consts: &'a mut Vec<Value>,
    code: Vec<Op>,
    scopes: Vec<HashMap<Symbol, LocalSlot>>,
    /// Static type of each scalar slot (`slot_tys.len()` = slot count).
    slot_tys: Vec<Ty>,
    n_arrays: u16,
    /// Jump indices to patch per open loop/switch.
    break_frames: Vec<Vec<usize>>,
    in_function: bool,
}

impl<'a> FnCompiler<'a> {
    fn new(
        analysis: &'a Analysis,
        func_ids: &'a HashMap<Symbol, u16>,
        consts: &'a mut Vec<Value>,
        in_function: bool,
    ) -> Self {
        FnCompiler {
            analysis,
            func_ids,
            consts,
            code: Vec::new(),
            scopes: vec![],
            slot_tys: vec![Ty::Boxed], // slot 0 = IT
            n_arrays: 0,
            break_frames: Vec::new(),
            in_function,
        }
    }

    // -- helpers -------------------------------------------------------

    fn enter_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn leave_scope(&mut self) {
        self.scopes.pop();
    }

    /// Allocate a slot index in the space matching `kind` (scalars and
    /// arrays index disjoint per-frame tables).
    fn alloc_slot(&mut self, name: Symbol, kind: SlotKind) -> u16 {
        let slot = match kind {
            SlotKind::Scalar { ty, .. } => {
                self.slot_tys.push(ty);
                self.slot_tys.len() as u16 - 1
            }
            SlotKind::Array { .. } => {
                self.n_arrays += 1;
                self.n_arrays - 1
            }
        };
        self.scopes.last_mut().expect("scope").insert(name, LocalSlot { slot, kind });
        slot
    }

    /// The finished chunk, superinstructions fused.
    fn finish(self) -> Chunk {
        let n_slots = self.slot_tys.len() as u16;
        let code = peephole(self.code, self.consts);
        Chunk { code, n_slots, n_arrays: self.n_arrays }
    }

    fn lookup(&self, name: Symbol) -> Option<LocalSlot> {
        if let Some(ls) = self.scopes.iter().rev().find_map(|s| s.get(&name)) {
            return Some(ls.clone());
        }
        // `IT` is implicitly slot 0 of every frame.
        if name == Symbol::it() {
            return Some(LocalSlot { slot: 0, kind: BOXED });
        }
        None
    }

    /// Push a constant: NUMBR and NUMBAR immediates inline, anything
    /// else from the pool.
    fn emit_const(&mut self, v: Value) {
        let op = match v {
            Value::Numbr(k) => Op::ConstI(k),
            Value::Numbar(k) => Op::ConstD(k),
            v => Op::Const(intern(self.consts, v)),
        };
        self.code.push(op);
    }

    /// Convert the value on top of the stack, of static type `from`, to
    /// `ty`. No op when it already is one (a cast is then the
    /// identity); a NUMBR or NUMBAR immediate converts at compile time.
    fn cast_to(&mut self, from: Ty, ty: LolType) -> Ty {
        let to = types::cast(ty);
        if from == to && to != Ty::Boxed {
            return to;
        }
        match (from, self.code.last(), to) {
            (Ty::Int, _, Ty::Dbl) => self.widen(0),
            (_, Some(Op::ConstD(k)), Ty::Int) => {
                *self.code.last_mut().expect("an op") = Op::ConstI(*k as i64)
            }
            _ => self.code.push(Op::Cast(ty)),
        }
        to
    }

    /// Widen the NUMBR `depth` values below the top to a NUMBAR.
    fn widen(&mut self, depth: u8) {
        match self.code.last() {
            Some(Op::ConstI(k)) if depth == 0 => {
                *self.code.last_mut().expect("an op") = Op::ConstD(*k as f64)
            }
            _ => self.code.push(Op::IToD(depth)),
        }
    }

    /// Emit binary operator `op` on operands of static types `a` (below)
    /// and `b` (top): typed when both are numbers, on `Value`s
    /// otherwise. Returns the result type.
    fn bin(&mut self, op: BinOp, a: Ty, b: Ty) -> Ty {
        let domain = match op {
            BinOp::BothSaem | BinOp::Diffrint => types::saem_domain(a, b).filter(|t| t.is_number()),
            _ if a.is_number() && b.is_number() => Some(if a == b { a } else { Ty::Dbl }),
            _ => None,
        };
        match domain {
            Some(Ty::Int) => self.code.push(Op::BinI(op)),
            Some(_) => {
                if a == Ty::Int {
                    self.widen(1);
                }
                if b == Ty::Int {
                    self.widen(0);
                }
                self.code.push(Op::BinD(op));
            }
            None => self.code.push(Op::Bin(op)),
        }
        types::bin(op, a, b)
    }

    /// Pop a value of static type `from` into scalar `slot` of type
    /// `ty`, cast to its `pinned` type.
    fn store_slot(&mut self, slot: u16, ty: Ty, pinned: Option<LolType>, from: Ty) {
        let native = match ty {
            Ty::Int => Some(LolType::Numbr),
            Ty::Dbl => Some(LolType::Numbar),
            _ => None,
        };
        if let Some(p) = pinned.or(native) {
            self.cast_to(from, p);
        }
        self.code.push(match ty {
            Ty::Int => Op::StoreI(slot),
            Ty::Dbl => Op::StoreD(slot),
            _ => Op::StoreLocal(slot),
        });
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn emit_jump_placeholder(&mut self, op: fn(u32) -> Op) -> usize {
        let at = self.here();
        self.code.push(op(u32::MAX));
        at
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.here() as u32;
        match &mut self.code[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) => *t = target,
            other => panic!("not a jump at {at}: {other:?}"),
        }
    }

    fn err(&self, code: &'static str, msg: String, span: Span) -> Diagnostic {
        Diagnostic::error(code, msg, span)
    }

    fn shared(&self, name: Symbol) -> Option<&'a SharedVar> {
        self.analysis.shared.get(name)
    }

    fn named(&self, vr: &VarRef) -> CResult<Symbol> {
        match &vr.name {
            VarName::Named(id) => Ok(id.sym),
            VarName::Srs(_) => Err(self.err(
                "VMC0001",
                "SRS IZ 2 DYNAMIC 4 DA COMPILER — RUN DIS WIF DA INTERPRETER".to_string(),
                vr.span,
            )),
        }
    }

    /// Is this reference an array (in its locality)?
    fn is_array_ref(&self, vr: &VarRef) -> CResult<bool> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                return Ok(matches!(ls.kind, SlotKind::Array { .. }));
            }
        }
        Ok(self.shared(name).map(|sv| matches!(sv.kind, SharedKind::Array { .. })).unwrap_or(false))
    }

    fn arr_loc(&self, vr: &VarRef) -> CResult<ArrLoc> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                if matches!(ls.kind, SlotKind::Array { .. }) {
                    return Ok(ArrLoc::Local { arr: ls.slot });
                }
            }
        }
        let sv = self.shared(name).ok_or_else(|| {
            self.err("VMC0002", format!("{name} IZ NOT AN ARRAY I KNOW"), vr.span)
        })?;
        match sv.kind {
            SharedKind::Array { len } => Ok(ArrLoc::Shared {
                off: sv.addr,
                len: len as u32,
                ty: sv.ty,
                remote: vr.locality == Locality::Ur,
            }),
            SharedKind::Scalar => Err(self.err("VMC0002", format!("{name} IZ A SCALAR"), vr.span)),
        }
    }

    // -- expressions ---------------------------------------------------

    /// Compile `e`, leaving its value on the stack; returns its static
    /// type.
    fn expr(&mut self, e: &Expr) -> CResult<Ty> {
        Ok(match &e.kind {
            ExprKind::Lit(l) => self.literal(l, e.span)?,
            ExprKind::Var(vr) => self.var_read(vr)?,
            ExprKind::Index { arr, idx } => {
                let name = self.named(arr)?;
                if arr.locality != Locality::Ur {
                    if let Some(ls) = self.lookup(name) {
                        match ls.kind {
                            SlotKind::Array { elem } => {
                                let arr = ls.slot;
                                let op = match self.expr(idx)? {
                                    Ty::Int => Op::LocalArrLoadI { arr },
                                    _ => Op::LocalArrLoad { arr },
                                };
                                self.code.push(op);
                                return Ok(elem);
                            }
                            SlotKind::Scalar { .. } => {
                                return Err(self.err(
                                    "VMC0002",
                                    format!("{name} IZ NOT LOTZ A THINGZ"),
                                    arr.span,
                                ))
                            }
                        }
                    }
                }
                let sv = self
                    .shared(name)
                    .ok_or_else(|| self.err("VMC0002", format!("WHO IZ {name}?"), arr.span))?;
                let SharedKind::Array { len } = sv.kind else {
                    return Err(self.err("VMC0002", format!("{name} IZ A SCALAR"), arr.span));
                };
                let (off, len, ty) = (sv.addr, len as u32, sv.ty);
                let remote = arr.locality == Locality::Ur;
                let op = match self.expr(idx)? {
                    Ty::Int => Op::SharedLoadIdxI { off, len, ty, remote },
                    _ => Op::SharedLoadIdx { off, len, ty, remote },
                };
                self.code.push(op);
                types::cell(ty)
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                self.bin(*op, a, b)
            }
            ExprKind::Un { op, expr } => {
                let t = self.expr(expr)?;
                match (op, t) {
                    (UnOp::Not, _) | (_, Ty::Bool | Ty::Boxed) | (UnOp::Squar, Ty::Int) => {
                        self.code.push(Op::Un(*op))
                    }
                    (_, t) => {
                        if t == Ty::Int {
                            self.widen(0);
                        }
                        self.code.push(Op::UnD(*op));
                    }
                }
                types::un(*op, t)
            }
            ExprKind::Nary { op, args } => {
                for a in args {
                    self.expr(a)?;
                }
                let n = args.len() as u8;
                self.code.push(match op {
                    NaryOp::AllOf => Op::AllOf(n),
                    NaryOp::AnyOf => Op::AnyOf(n),
                    NaryOp::Smoosh => Op::Smoosh(n),
                });
                types::nary(*op)
            }
            ExprKind::Cast { expr, ty } => {
                let t = self.expr(expr)?;
                self.cast_to(t, *ty)
            }
            ExprKind::Call { name, args } => {
                let Some(&func) = self.func_ids.get(&name.sym) else {
                    return Err(self.err(
                        "VMC0003",
                        format!("I DUNNO HOW IZ I {}", name.sym),
                        name.span,
                    ));
                };
                for a in args {
                    self.expr(a)?;
                }
                self.code.push(Op::Call { func, argc: args.len() as u8 });
                Ty::Boxed
            }
            kind @ (ExprKind::Me | ExprKind::MahFrenz | ExprKind::Whatevr | ExprKind::Whatevar) => {
                self.code.push(match kind {
                    ExprKind::Me => Op::Me,
                    ExprKind::MahFrenz => Op::MahFrenz,
                    ExprKind::Whatevr => Op::RandI,
                    _ => Op::RandF,
                });
                types::query(kind).expect("a PE query or random draw")
            }
        })
    }

    fn literal(&mut self, l: &Lit, span: Span) -> CResult<Ty> {
        match l {
            Lit::Numbr(n) => self.emit_const(Value::Numbr(*n)),
            Lit::Numbar(f) => self.emit_const(Value::Numbar(*f)),
            Lit::Troof(b) => self.emit_const(Value::Troof(*b)),
            Lit::Noob => self.emit_const(Value::Noob),
            Lit::Yarn(parts) => {
                // Pure text folds to one constant; interpolation
                // becomes loads + SMOOSH.
                let needs_interp = parts.iter().any(|p| matches!(p, YarnPart::Var(_)));
                if !needs_interp {
                    let text: String = parts
                        .iter()
                        .map(|p| match p {
                            YarnPart::Text(t) => t.as_str(),
                            YarnPart::Var(_) => unreachable!(),
                        })
                        .collect();
                    self.emit_const(Value::yarn(text));
                } else {
                    let mut n = 0u8;
                    for p in parts {
                        match p {
                            YarnPart::Text(t) => {
                                self.emit_const(Value::yarn(t.clone()));
                            }
                            YarnPart::Var(id) => {
                                let vr = VarRef::named(*id);
                                let vr = VarRef { span, ..vr };
                                self.var_read(&vr)?;
                                self.code.push(Op::Cast(LolType::Yarn));
                            }
                        }
                        n += 1;
                    }
                    self.code.push(Op::Smoosh(n));
                }
            }
        };
        Ok(types::lit(l))
    }

    fn var_read(&mut self, vr: &VarRef) -> CResult<Ty> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                return match ls.kind {
                    SlotKind::Scalar { ty, .. } => {
                        self.code.push(Op::LoadLocal(ls.slot));
                        Ok(ty)
                    }
                    SlotKind::Array { .. } => Err(self.err(
                        "VMC0004",
                        format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"),
                        vr.span,
                    )),
                };
            }
        }
        let Some(sv) = self.shared(name) else {
            return Err(self.err("VMC0005", format!("WHO IZ {name}?"), vr.span));
        };
        match sv.kind {
            SharedKind::Scalar => {
                self.code.push(Op::SharedLoad {
                    off: sv.addr,
                    ty: sv.ty,
                    remote: vr.locality == Locality::Ur,
                });
                Ok(types::cell(sv.ty))
            }
            SharedKind::Array { .. } => {
                Err(self.err("VMC0004", format!("{name} IZ A WHOLE ARRAY, NOT A VALUE"), vr.span))
            }
        }
    }

    /// Store the value on top of the stack, of static type `from`,
    /// into a scalar variable.
    fn var_store(&mut self, vr: &VarRef, from: Ty) -> CResult<()> {
        let name = self.named(vr)?;
        if vr.locality != Locality::Ur {
            if let Some(ls) = self.lookup(name) {
                return match ls.kind {
                    SlotKind::Scalar { ty, pinned } => {
                        self.store_slot(ls.slot, ty, pinned, from);
                        Ok(())
                    }
                    SlotKind::Array { .. } => Err(self.err(
                        "VMC0004",
                        format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS"),
                        vr.span,
                    )),
                };
            }
        }
        let Some(sv) = self.shared(name) else {
            return Err(self.err("VMC0005", format!("WHO IZ {name}?"), vr.span));
        };
        match sv.kind {
            SharedKind::Scalar => {
                self.code.push(Op::SharedStore {
                    off: sv.addr,
                    ty: sv.ty,
                    remote: vr.locality == Locality::Ur,
                });
                Ok(())
            }
            SharedKind::Array { .. } => Err(self.err(
                "VMC0004",
                format!("{name} IZ A WHOLE ARRAY — ASSIGN ELEMENTS"),
                vr.span,
            )),
        }
    }

    /// Store stack-top into an lvalue. For indexed stores the compiler
    /// pushes value first, then the index.
    fn store_lvalue(&mut self, lv: &LValue, from: Ty) -> CResult<()> {
        match lv {
            LValue::Var(vr) => self.var_store(vr, from),
            LValue::Index { arr, idx, .. } => {
                let name = self.named(arr)?;
                // Typed when the index is a NUMBR and the value already
                // has the element type (so the store's cast is a no-op).
                let it = self.expr(idx)?;
                let typed = |elem: Ty| it == Ty::Int && from == elem && elem.is_number();
                if arr.locality != Locality::Ur {
                    if let Some(ls) = self.lookup(name) {
                        return match ls.kind {
                            SlotKind::Array { elem } => {
                                let arr = ls.slot;
                                self.code.push(match elem {
                                    Ty::Int if typed(elem) => Op::LocalArrStoreI { arr },
                                    Ty::Dbl if typed(elem) => Op::LocalArrStoreD { arr },
                                    _ => Op::LocalArrStore { arr },
                                });
                                Ok(())
                            }
                            SlotKind::Scalar { .. } => Err(self.err(
                                "VMC0002",
                                format!("{name} IZ NOT LOTZ A THINGZ"),
                                arr.span,
                            )),
                        };
                    }
                }
                let sv = self
                    .shared(name)
                    .ok_or_else(|| self.err("VMC0005", format!("WHO IZ {name}?"), arr.span))?;
                let SharedKind::Array { len } = sv.kind else {
                    return Err(self.err("VMC0002", format!("{name} IZ A SCALAR"), arr.span));
                };
                let (off, len, ty) = (sv.addr, len as u32, sv.ty);
                let remote = arr.locality == Locality::Ur;
                self.code.push(if typed(types::cell(ty)) {
                    Op::SharedStoreIdxT { off, len, ty, remote }
                } else {
                    Op::SharedStoreIdx { off, len, ty, remote }
                });
                Ok(())
            }
        }
    }

    // -- statements ----------------------------------------------------

    fn block(&mut self, b: &Block) -> CResult<()> {
        self.enter_scope();
        for s in b {
            self.stmt(s)?;
        }
        self.leave_scope();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Declare(d) => self.decl(d),
            StmtKind::Assign { target, value } => self.assign(s, target, value),
            StmtKind::ExprStmt(e) => {
                self.expr(e)?;
                self.code.push(Op::StoreLocal(0));
                Ok(())
            }
            StmtKind::Visible { args, newline } => {
                for a in args {
                    self.expr(a)?;
                }
                self.code.push(Op::Visible { argc: args.len() as u8, newline: *newline });
                Ok(())
            }
            StmtKind::Gimmeh(lv) => {
                self.code.push(Op::ReadLine);
                self.store_lvalue(lv, Ty::Boxed)
            }
            StmtKind::If(ifs) => self.if_stmt(ifs),
            StmtKind::Switch(sw) => self.switch(sw),
            StmtKind::Loop(lp) => self.loop_stmt(lp),
            StmtKind::Gtfo => {
                if !self.break_frames.is_empty() {
                    let at = self.here();
                    self.code.push(Op::Jump(u32::MAX));
                    self.break_frames.last_mut().expect("checked").push(at);
                } else if self.in_function {
                    self.emit_const(Value::Noob);
                    self.code.push(Op::Ret);
                } else {
                    return Err(self.err("VMC0006", "GTFO OF WHERE?".to_string(), s.span));
                }
                Ok(())
            }
            StmtKind::FoundYr(e) => {
                self.expr(e)?;
                if !self.in_function {
                    return Err(self.err(
                        "VMC0006",
                        "FOUND YR OUTSIDE A FUNKSHUN".to_string(),
                        s.span,
                    ));
                }
                self.code.push(Op::Ret);
                Ok(())
            }
            StmtKind::IsNowA { target, ty } => match target {
                LValue::Var(vr) => {
                    let name = self.named(vr)?;
                    match self.lookup(name) {
                        // Sema rejects `IS NOW A` on a `SRSLY` local
                        // (`SEM0024`); a counter its body retypes is boxed.
                        Some(LocalSlot { slot, kind: SlotKind::Scalar { ty: Ty::Boxed, .. } }) => {
                            self.code.push(Op::LoadLocal(slot));
                            self.code.push(Op::Cast(*ty));
                            self.code.push(Op::StoreLocal(slot));
                            Ok(())
                        }
                        _ => Err(self.err(
                            "VMC0007",
                            format!("{name} CANT CHANGE TYPE (SHARED/ARRAY TYPES R FIXED)"),
                            vr.span,
                        )),
                    }
                }
                LValue::Index { span, .. } => Err(self.err(
                    "VMC0007",
                    "ARRAY ELEMENTS KEEP DA ARRAY'S TYPE".to_string(),
                    *span,
                )),
            },
            StmtKind::Hugz => {
                self.code.push(Op::Barrier);
                Ok(())
            }
            StmtKind::LockAcquire(vr) => {
                let (off, remote) = self.lock_cell(vr)?;
                self.code.push(Op::LockAcquire { off, remote });
                self.emit_const(Value::Troof(true));
                self.code.push(Op::StoreLocal(0));
                Ok(())
            }
            StmtKind::LockTry(vr) => {
                let (off, remote) = self.lock_cell(vr)?;
                self.code.push(Op::LockTry { off, remote });
                self.code.push(Op::StoreLocal(0));
                Ok(())
            }
            StmtKind::LockRelease(vr) => {
                let (off, remote) = self.lock_cell(vr)?;
                self.code.push(Op::LockRelease { off, remote });
                Ok(())
            }
            StmtKind::TxtStmt { pe, stmt } => {
                self.expr(pe)?;
                self.code.push(Op::PushBff);
                self.stmt(stmt)?;
                self.code.push(Op::PopBff);
                Ok(())
            }
            StmtKind::TxtBlock { pe, body } => {
                self.expr(pe)?;
                self.code.push(Op::PushBff);
                self.block(body)?;
                self.code.push(Op::PopBff);
                Ok(())
            }
        }
    }

    fn lock_cell(&mut self, vr: &VarRef) -> CResult<(u32, bool)> {
        let name = self.named(vr)?;
        let sv = self
            .shared(name)
            .ok_or_else(|| self.err("VMC0005", format!("{name} IZ NOT SHARED"), vr.span))?;
        let off = sv.lock.ok_or_else(|| {
            self.err(
                "VMC0008",
                format!("{name} HAS NO LOCK — DECLARE IT WIF AN IM SHARIN IT"),
                vr.span,
            )
        })?;
        Ok((off, vr.locality == Locality::Ur))
    }

    fn decl(&mut self, d: &Decl) -> CResult<()> {
        match d.scope {
            DeclScope::We => {
                // Layout is static; compile the per-PE initializer.
                if let Some(init) = &d.init {
                    if let Some(sv) = self.shared(d.name.sym) {
                        if matches!(sv.kind, SharedKind::Scalar) {
                            self.expr(init)?;
                            self.code.push(Op::SharedStore {
                                off: sv.addr,
                                ty: sv.ty,
                                remote: false,
                            });
                        }
                    }
                }
                Ok(())
            }
            DeclScope::I => {
                if let Some(size) = &d.array_size {
                    self.expr(size)?;
                    let elem = types::local_array(d);
                    let arr = self.alloc_slot(d.name.sym, SlotKind::Array { elem });
                    self.code.push(Op::LocalArrNew { arr, ty: d.ty.unwrap_or(LolType::Noob) });
                    Ok(())
                } else {
                    match (&d.init, d.ty) {
                        (Some(init), Some(ty)) => {
                            let t = self.expr(init)?;
                            self.cast_to(t, ty);
                        }
                        (Some(init), None) => {
                            self.expr(init)?;
                        }
                        (None, Some(ty)) => {
                            let v = lol_interp::value::default_for(ty);
                            self.emit_const(v);
                        }
                        (None, None) => self.emit_const(Value::Noob),
                    }
                    let pinned = if d.srsly { d.ty } else { None };
                    let kind = SlotKind::Scalar { ty: types::local(d), pinned };
                    let slot = self.alloc_slot(d.name.sym, kind);
                    // The first store of a declaration initializes the
                    // slot (`Noob` until now), so it is a plain store.
                    self.code.push(Op::StoreLocal(slot));
                    Ok(())
                }
            }
        }
    }

    fn assign(&mut self, s: &Stmt, target: &LValue, value: &Expr) -> CResult<()> {
        if let LValue::Var(dst) = target {
            if let ExprKind::Var(src) = &value.kind {
                let d_arr = self.is_array_ref(dst)?;
                let s_arr = self.is_array_ref(src)?;
                match (d_arr, s_arr) {
                    (true, true) => {
                        let dst = self.arr_loc(dst)?;
                        let src = self.arr_loc(src)?;
                        self.code.push(Op::ArrayCopy { dst, src });
                        return Ok(());
                    }
                    (true, false) | (false, true) => {
                        return Err(self.err(
                            "VMC0009",
                            "U CANT MIX A WHOLE ARRAY AN A SCALAR IN ONE ASSIGNMENT".to_string(),
                            s.span,
                        ))
                    }
                    (false, false) => {}
                }
            } else if self.is_array_ref(dst)? {
                return Err(self.err(
                    "VMC0009",
                    "AN ARRAY CAN ONLY BE ASSIGNED FROM ANOTHER ARRAY".to_string(),
                    s.span,
                ));
            }
        }
        let t = self.expr(value)?;
        self.store_lvalue(target, t)
    }

    fn if_stmt(&mut self, ifs: &IfStmt) -> CResult<()> {
        // IT is the scrutinee.
        self.code.push(Op::LoadLocal(0));
        let to_next = self.emit_jump_placeholder(Op::JumpIfFalse);
        self.block(&ifs.then_block)?;
        let mut to_end = vec![self.emit_jump_placeholder(Op::Jump)];
        self.patch_jump(to_next);
        for m in &ifs.mebbes {
            self.expr(&m.cond)?;
            let skip = self.emit_jump_placeholder(Op::JumpIfFalse);
            self.block(&m.body)?;
            to_end.push(self.emit_jump_placeholder(Op::Jump));
            self.patch_jump(skip);
        }
        if let Some(e) = &ifs.else_block {
            self.block(e)?;
        }
        for j in to_end {
            self.patch_jump(j);
        }
        Ok(())
    }

    fn switch(&mut self, sw: &SwitchStmt) -> CResult<()> {
        // Dispatch: compare IT to each arm literal in turn; on match
        // jump to that arm's body. Bodies are contiguous (fallthrough);
        // GTFO patches to the end.
        self.break_frames.push(Vec::new());
        let mut body_entries = Vec::new();
        for arm in &sw.arms {
            self.code.push(Op::LoadLocal(0));
            self.literal(&arm.value, Span::DUMMY)?;
            self.code.push(Op::Bin(BinOp::BothSaem));
            let no = self.emit_jump_placeholder(Op::JumpIfFalse);
            let to_body = self.emit_jump_placeholder(Op::Jump);
            body_entries.push(to_body);
            self.patch_jump(no);
        }
        // No match: jump to default (or end).
        let to_default = self.emit_jump_placeholder(Op::Jump);
        for (arm, entry) in sw.arms.iter().zip(body_entries) {
            self.patch_jump(entry);
            self.block(&arm.body)?;
            // falls through into the next arm's body
        }
        self.patch_jump(to_default);
        if let Some(d) = &sw.default {
            self.block(d)?;
        }
        let breaks = self.break_frames.pop().expect("switch break frame");
        for b in breaks {
            self.patch_jump(b);
        }
        Ok(())
    }

    fn loop_stmt(&mut self, lp: &LoopStmt) -> CResult<()> {
        self.enter_scope();
        let update_slot = match &lp.update {
            Some((_, var)) => {
                let ty = types::counter(&lp.body, var.sym);
                let slot = self.alloc_slot(var.sym, SlotKind::Scalar { ty, pinned: None });
                self.emit_const(Value::Numbr(0));
                self.code.push(Op::StoreLocal(slot));
                Some((slot, ty))
            }
            None => None,
        };
        self.break_frames.push(Vec::new());
        let start = self.here() as u32;
        let mut guard_exit = None;
        if let Some((kind, guard)) = &lp.guard {
            self.expr(guard)?;
            if matches!(kind, GuardKind::Til) {
                self.code.push(Op::Un(UnOp::Not));
            }
            guard_exit = Some(self.emit_jump_placeholder(Op::JumpIfFalse));
        }
        for st in &lp.body {
            self.stmt(st)?;
        }
        if let (Some((slot, ty)), Some((dir, _))) = (update_slot, &lp.update) {
            self.code.push(Op::LoadLocal(slot));
            self.emit_const(Value::Numbr(1));
            let op = match dir {
                LoopDir::Uppin => BinOp::Sum,
                LoopDir::Nerfin => BinOp::Diff,
            };
            let next = self.bin(op, ty, Ty::Int);
            self.store_slot(slot, ty, None, next);
        }
        self.code.push(Op::Jump(start));
        if let Some(g) = guard_exit {
            self.patch_jump(g);
        }
        let breaks = self.break_frames.pop().expect("loop break frame");
        for b in breaks {
            self.patch_jump(b);
        }
        self.leave_scope();
        Ok(())
    }
}

/// Intern `v` in the constant pool. Linear dedup is fine at compile
/// time for teaching programs.
fn intern(consts: &mut Vec<Value>, v: Value) -> u16 {
    if let Some(i) = consts.iter().position(|c| c == &v) {
        return i as u16;
    }
    consts.push(v);
    (consts.len() - 1) as u16
}

/// Is `op` a constant push (pooled or immediate)?
fn is_const(op: &Op) -> bool {
    matches!(op, Op::Const(_) | Op::ConstI(_) | Op::ConstD(_))
}

/// The pool index of constant push `op`, interning an immediate: the
/// `Value`-path superinstructions read their constant from the pool.
fn pooled(op: &Op, consts: &mut Vec<Value>) -> u16 {
    match op {
        Op::Const(k) => *k,
        Op::ConstI(k) => intern(consts, Value::Numbr(*k)),
        Op::ConstD(k) => intern(consts, Value::Numbar(*k)),
        other => unreachable!("not a constant push: {other:?}"),
    }
}

/// Is `op` a comparison (its result a TROOF)?
fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Bigger | BinOp::Smallr | BinOp::BothSaem | BinOp::Diffrint)
}

/// Fuse common instruction idioms into superinstructions.
///
/// The fuser works on fully patched code (absolute jump targets). Two
/// rules keep it exactly semantics-preserving:
///
/// 1. a fusion window never covers an *interior* jump target — the
///    window's first instruction may be jumped to, the rest may not
///    (otherwise a jump would land mid-superinstruction);
/// 2. after fusion every jump target is remapped through the old→new
///    pc table.
///
/// Each superinstruction performs the identical value operations (same
/// errors, in the same order) as the sequence it replaces, so fused
/// and unfused code are byte-identical in output, stats, and traces.
/// Typed windows fuse into typed superinstructions; a typed operator
/// whose result goes to a boxed slot fuses into the `Value` form, which
/// computes the same result on the same variants.
fn peephole(code: Vec<Op>, consts: &mut Vec<Value>) -> Vec<Op> {
    let n = code.len();
    let mut is_target = vec![false; n + 1];
    for op in &code {
        match op {
            Op::Jump(t) | Op::JumpIfFalse(t) => is_target[*t as usize] = true,
            _ => {}
        }
    }

    let mut out: Vec<Op> = Vec::with_capacity(n);
    // Old pc → new pc, for every instruction boundary (+ end-of-code,
    // a legal jump target for loop exits at the end of a chunk).
    let mut map = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        map[i] = out.len() as u32;
        // A jump to the next instruction (the end of a `YA RLY` with no
        // `NO WAI`) is dropped; jumps to it land on its successor.
        if code[i] == Op::Jump(i as u32 + 1) {
            i += 1;
            continue;
        }
        // No interior instruction of the window [i, i+len) is a target.
        let free = |len: usize| !is_target[i + 1..i + len].iter().any(|&b| b);
        let fused: Option<(Op, usize)> = match &code[i..] {
            // Counted-loop guards (both the TIL and WILE DIFFRINT
            // shapes reduce to "jump out when var SAEMs the bound"),
            // with constant or variable bounds.
            [Op::LoadLocal(s), Op::ConstI(k), Op::BinI(BinOp::BothSaem), Op::Un(UnOp::Not), Op::JumpIfFalse(t), ..]
                if free(5) =>
            {
                Some((Op::JumpIfIEqConst { slot: *s, k: *k, target: *t }, 5))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::BinI(BinOp::BothSaem), Op::Un(UnOp::Not), Op::JumpIfFalse(t), ..]
                if free(5) =>
            {
                Some((Op::JumpIfIEqLocal { a: *a, b: *b, target: *t }, 5))
            }
            [Op::LoadLocal(s), Op::ConstI(k), Op::BinI(BinOp::Diffrint), Op::JumpIfFalse(t), ..]
                if free(4) =>
            {
                Some((Op::JumpIfIEqConst { slot: *s, k: *k, target: *t }, 4))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::BinI(BinOp::Diffrint), Op::JumpIfFalse(t), ..]
                if free(4) =>
            {
                Some((Op::JumpIfIEqLocal { a: *a, b: *b, target: *t }, 4))
            }
            [Op::LoadLocal(s), c, Op::Bin(BinOp::BothSaem) | Op::BinD(BinOp::BothSaem), Op::Un(UnOp::Not), Op::JumpIfFalse(t), ..]
                if is_const(c) && free(5) =>
            {
                Some((Op::JumpIfLocalEqConst { slot: *s, k: pooled(c, consts), target: *t }, 5))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(BinOp::BothSaem) | Op::BinD(BinOp::BothSaem), Op::Un(UnOp::Not), Op::JumpIfFalse(t), ..]
                if free(5) =>
            {
                Some((Op::JumpIfLocalEqLocal { a: *a, b: *b, target: *t }, 5))
            }
            [Op::LoadLocal(s), c, Op::Bin(BinOp::Diffrint) | Op::BinD(BinOp::Diffrint), Op::JumpIfFalse(t), ..]
                if is_const(c) && free(4) =>
            {
                Some((Op::JumpIfLocalEqConst { slot: *s, k: pooled(c, consts), target: *t }, 4))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(BinOp::Diffrint) | Op::BinD(BinOp::Diffrint), Op::JumpIfFalse(t), ..]
                if free(4) =>
            {
                Some((Op::JumpIfLocalEqLocal { a: *a, b: *b, target: *t }, 4))
            }
            // `BOTH SAEM a AN b, O RLY?`: set IT, branch on it.
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::BinI(op), Op::StoreLocal(0), Op::LoadLocal(0), Op::JumpIfFalse(t), ..]
                if is_cmp(*op) && free(6) =>
            {
                Some((Op::IfILL { op: *op, a: *a, b: *b, target: *t }, 6))
            }
            [Op::LoadLocal(a), Op::ConstI(k), Op::BinI(op), Op::StoreLocal(0), Op::LoadLocal(0), Op::JumpIfFalse(t), ..]
                if is_cmp(*op) && free(6) =>
            {
                Some((Op::IfILC { op: *op, a: *a, k: *k, target: *t }, 6))
            }
            // Typed compute-and-store: reductions, increments, index
            // arithmetic over NUMBR/NUMBAR slots.
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::BinI(op), Op::StoreI(d), ..] if free(4) => {
                Some((Op::BinILLS { op: *op, a: *a, b: *b, dst: *d }, 4))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::BinD(op), Op::StoreD(d), ..] if free(4) => {
                Some((Op::BinDLLS { op: *op, a: *a, b: *b, dst: *d }, 4))
            }
            [Op::LoadLocal(a), Op::ConstI(k), Op::BinI(op), Op::StoreI(d), ..] if free(4) => {
                Some((Op::BinILCS { op: *op, a: *a, k: *k, dst: *d }, 4))
            }
            [Op::LoadLocal(a), Op::ConstD(k), Op::BinD(op), Op::StoreD(d), ..] if free(4) => {
                Some((Op::BinDLCS { op: *op, a: *a, k: *k, dst: *d }, 4))
            }
            // Compute-and-store into a boxed slot: reductions
            // (`acc R SUM OF acc AN x`) and loop increments / index
            // arithmetic.
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(op) | Op::BinI(op) | Op::BinD(op), Op::StoreLocal(d), ..]
                if free(4) =>
            {
                Some((Op::BinLLS { op: *op, a: *a, b: *b, dst: *d }, 4))
            }
            [Op::LoadLocal(a), c, Op::Bin(op) | Op::BinI(op) | Op::BinD(op), Op::StoreLocal(d), ..]
                if is_const(c) && free(4) =>
            {
                Some((Op::BinLCS { op: *op, a: *a, k: pooled(c, consts), dst: *d }, 4))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::BinI(op), ..] if free(3) => {
                Some((Op::BinILL { op: *op, a: *a, b: *b }, 3))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::BinD(op), ..] if free(3) => {
                Some((Op::BinDLL { op: *op, a: *a, b: *b }, 3))
            }
            [Op::LoadLocal(a), Op::ConstI(k), Op::BinI(op), ..] if free(3) => {
                Some((Op::BinILC { op: *op, a: *a, k: *k }, 3))
            }
            [Op::LoadLocal(a), Op::ConstD(k), Op::BinD(op), ..] if free(3) => {
                Some((Op::BinDLC { op: *op, a: *a, k: *k }, 3))
            }
            [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(op), ..] if free(3) => {
                Some((Op::BinLL { op: *op, a: *a, b: *b }, 3))
            }
            [Op::LoadLocal(a), c, Op::Bin(op), ..] if is_const(c) && free(3) => {
                Some((Op::BinLC { op: *op, a: *a, k: pooled(c, consts) }, 3))
            }
            [Op::BinI(op), Op::StoreI(d), ..] if free(2) => {
                Some((Op::BinIS { op: *op, dst: *d }, 2))
            }
            [Op::BinD(op), Op::StoreD(d), ..] if free(2) => {
                Some((Op::BinDS { op: *op, dst: *d }, 2))
            }
            // Array / symmetric-heap accesses indexed by a variable.
            [Op::LoadLocal(idx), Op::LocalArrLoad { arr }, ..] if free(2) => {
                Some((Op::LocalArrLoadL { arr: *arr, idx: *idx }, 2))
            }
            [Op::LoadLocal(idx), Op::LocalArrLoadI { arr }, ..] if free(2) => {
                Some((Op::LocalArrLoadIL { arr: *arr, idx: *idx }, 2))
            }
            [Op::LoadLocal(idx), Op::SharedLoadIdxI { off, len, ty, remote }, ..] if free(2) => {
                Some((
                    Op::SharedLoadIdxIL {
                        off: *off,
                        len: *len,
                        ty: *ty,
                        remote: *remote,
                        idx: *idx,
                    },
                    2,
                ))
            }
            [Op::LoadLocal(idx), Op::LocalArrStoreI { arr }, ..] if free(2) => {
                Some((Op::LocalArrStoreIL { arr: *arr, idx: *idx }, 2))
            }
            [Op::LoadLocal(idx), Op::LocalArrStoreD { arr }, ..] if free(2) => {
                Some((Op::LocalArrStoreDL { arr: *arr, idx: *idx }, 2))
            }
            [Op::LoadLocal(idx), Op::SharedStoreIdxT { off, len, ty, remote }, ..] if free(2) => {
                Some((
                    Op::SharedStoreIdxTL {
                        off: *off,
                        len: *len,
                        ty: *ty,
                        remote: *remote,
                        idx: *idx,
                    },
                    2,
                ))
            }
            [Op::LoadLocal(idx), Op::LocalArrStore { arr }, ..] if free(2) => {
                Some((Op::LocalArrStoreL { arr: *arr, idx: *idx }, 2))
            }
            [Op::LoadLocal(idx), Op::SharedLoadIdx { off, len, ty, remote }, ..] if free(2) => {
                Some((
                    Op::SharedLoadIdxL {
                        off: *off,
                        len: *len,
                        ty: *ty,
                        remote: *remote,
                        idx: *idx,
                    },
                    2,
                ))
            }
            [Op::LoadLocal(idx), Op::SharedStoreIdx { off, len, ty, remote }, ..] if free(2) => {
                Some((
                    Op::SharedStoreIdxL {
                        off: *off,
                        len: *len,
                        ty: *ty,
                        remote: *remote,
                        idx: *idx,
                    },
                    2,
                ))
            }
            // `O RLY?` dispatch on IT (or any branch on a local).
            [Op::LoadLocal(s), Op::JumpIfFalse(t), ..] if free(2) => {
                Some((Op::JumpIfLocalFalse { slot: *s, target: *t }, 2))
            }
            [Op::LoadLocal(b), Op::Bin(op), ..] if free(2) => {
                Some((Op::BinSL { op: *op, b: *b }, 2))
            }
            [c, Op::Bin(op), ..] if is_const(c) && free(2) => {
                Some((Op::BinSC { op: *op, k: pooled(c, consts) }, 2))
            }
            // Casting stores to pinned (`ITZ SRSLY A`) variables.
            [Op::Cast(ty), Op::StoreLocal(s) | Op::StoreI(s) | Op::StoreD(s), ..] if free(2) => {
                Some((Op::CastStore { ty: *ty, slot: *s }, 2))
            }
            _ => None,
        };
        match fused {
            Some((op, len)) => {
                for j in 1..len {
                    map[i + j] = out.len() as u32;
                }
                out.push(op);
                i += len;
            }
            None => {
                out.push(code[i].clone());
                i += 1;
            }
        }
    }
    map[n] = out.len() as u32;

    for op in &mut out {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfLocalEqConst { target: t, .. }
            | Op::JumpIfLocalEqLocal { target: t, .. }
            | Op::JumpIfLocalFalse { target: t, .. }
            | Op::JumpIfIEqConst { target: t, .. }
            | Op::JumpIfIEqLocal { target: t, .. }
            | Op::IfILL { target: t, .. }
            | Op::IfILC { target: t, .. } => {
                *t = map[*t as usize];
            }
            _ => {}
        }
    }
    out
}
