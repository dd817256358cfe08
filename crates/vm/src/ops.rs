//! The bytecode instruction set.
//!
//! A compact stack machine: expressions leave values on the operand
//! stack, locals live in a per-frame slot array (slot 0 is `IT`), and
//! shared (symmetric) accesses carry their resolved heap offset, type
//! and length — everything the semantic analysis could pin down ahead
//! of time, which is exactly where the speedup over the tree-walker
//! comes from.
//!
//! Typed opcodes (`ConstI`, `BinI`, `StoreD`, `BinDLLS`, …) run where
//! the typing analysis ([`lol_sema::types`]) proves every operand a
//! NUMBR (`I`) or a NUMBAR (`D`): they read the `i64`/`f64` straight
//! out of the value through one tag-checked accessor and compute
//! without any coercion. Slots stay one `Value` file per frame; a typed
//! store overwrites the number inside its slot's variant in place.

use lol_ast::{BinOp, LolType, UnOp};
use lol_interp::Value;

/// Where an array lives, for whole-array copies.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrLoc {
    /// A frame-local array (index into the frame's array table, a
    /// separate space from scalar slots).
    Local { arr: u16 },
    /// A symmetric array; `remote` selects the current BFF instead of
    /// the own instance.
    Shared { off: u32, len: u32, ty: LolType, remote: bool },
}

/// One instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push constant `k`.
    Const(u16),
    /// Push local slot.
    LoadLocal(u16),
    /// Pop into local slot.
    StoreLocal(u16),
    /// Pop, cast, push (for `MAEK` / pinned stores / `IS NOW A`).
    Cast(LolType),
    /// Pop and discard.
    Pop,

    /// Load a shared scalar (own or BFF instance).
    SharedLoad {
        off: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop value, store to a shared scalar.
    SharedStore {
        off: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop index, push element of a shared array.
    SharedLoadIdx {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop index then value, store element of a shared array.
    SharedStoreIdx {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
    },

    /// Pop size, create local array `arr`.
    LocalArrNew {
        arr: u16,
        ty: LolType,
    },
    /// Pop index, push element of local array `arr`.
    LocalArrLoad {
        arr: u16,
    },
    /// Pop index then value, store element of local array `arr`.
    LocalArrStore {
        arr: u16,
    },
    /// Whole-array copy (Section VI.A).
    ArrayCopy {
        dst: ArrLoc,
        src: ArrLoc,
    },

    /// Binary operator on the top two values (lhs below rhs).
    Bin(BinOp),
    /// Unary operator on the top value.
    Un(UnOp),

    // Typed ops: every operand is statically a NUMBR (`I`) or a NUMBAR
    // (`D`). Each computes exactly what its `Value` counterpart does on
    // those variants, and fails with `RUN0192` on any other.
    /// Push a NUMBR immediate.
    ConstI(i64),
    /// Push a NUMBAR immediate.
    ConstD(f64),
    /// Binary operator on two NUMBRs (lhs below rhs).
    BinI(BinOp),
    /// Binary operator on two NUMBARs (lhs below rhs).
    BinD(BinOp),
    /// Unary operator on a NUMBAR.
    UnD(UnOp),
    /// Widen the NUMBR `depth` values below the top to a NUMBAR (the
    /// NUMBR side of a mixed NUMBR/NUMBAR operation).
    IToD(u8),
    /// Pop a NUMBR into a NUMBR slot.
    StoreI(u16),
    /// Pop a NUMBAR into a NUMBAR slot.
    StoreD(u16),
    /// Pop a NUMBR index, push that element of a shared array.
    SharedLoadIdxI {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop a NUMBR index, then a value of the shared array's own
    /// NUMBR/NUMBAR type, and store it.
    SharedStoreIdxT {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
    },
    /// Pop a NUMBR index, push that element of local array `arr`.
    LocalArrLoadI {
        arr: u16,
    },
    /// Pop a NUMBR index, then a NUMBR, into NUMBR local array `arr`.
    LocalArrStoreI {
        arr: u16,
    },
    /// Pop a NUMBR index, then a NUMBAR, into NUMBAR local array `arr`.
    LocalArrStoreD {
        arr: u16,
    },

    // Superinstructions — peephole fusions of the idioms the compiler
    // emits for loop guards, stencil index arithmetic and reductions.
    // Each is exactly equivalent to the op sequence it replaces; the
    // fuser never folds across an interior jump target.
    /// `LoadLocal a; LoadLocal b; Bin(op)`.
    BinLL {
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// `LoadLocal a; Const k; Bin(op)`.
    BinLC {
        op: BinOp,
        a: u16,
        k: u16,
    },
    /// `LoadLocal b; Bin(op)` — rhs from a slot, lhs on the stack.
    BinSL {
        op: BinOp,
        b: u16,
    },
    /// `Const k; Bin(op)` — rhs from the pool, lhs on the stack.
    BinSC {
        op: BinOp,
        k: u16,
    },
    /// `LoadLocal a; LoadLocal b; Bin(op); StoreLocal dst` — the
    /// reduction idiom (`acc R SUM OF acc AN x`).
    BinLLS {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `LoadLocal a; Const k; Bin(op); StoreLocal dst` — counted-loop
    /// increments and index arithmetic.
    BinLCS {
        op: BinOp,
        a: u16,
        k: u16,
        dst: u16,
    },
    /// `Cast(ty); StoreLocal(slot)` — every store to a pinned
    /// (`ITZ SRSLY A`) variable.
    CastStore {
        ty: LolType,
        slot: u16,
    },
    /// Counted-loop guard: jump when `slots[slot]` SAEMs `consts[k]`.
    /// Fuses both guard shapes the compiler emits (`TIL BOTH SAEM`
    /// via `Bin(BothSaem); Un(Not); JumpIfFalse` and `WILE DIFFRINT`
    /// via `Bin(Diffrint); JumpIfFalse`).
    JumpIfLocalEqConst {
        slot: u16,
        k: u16,
        target: u32,
    },
    /// Same guard shapes with a variable bound: jump when `slots[a]`
    /// SAEMs `slots[b]`.
    JumpIfLocalEqLocal {
        a: u16,
        b: u16,
        target: u32,
    },
    /// `LoadLocal slot; JumpIfFalse target` — `O RLY?` on `IT`.
    JumpIfLocalFalse {
        slot: u16,
        target: u32,
    },
    /// `LoadLocal idx; LocalArrLoad { arr }` — stencil reads.
    LocalArrLoadL {
        arr: u16,
        idx: u16,
    },
    /// `LoadLocal idx; LocalArrStore { arr }` — stencil writes.
    LocalArrStoreL {
        arr: u16,
        idx: u16,
    },
    /// `LoadLocal idx; SharedLoadIdx { .. }` — symmetric-array reads
    /// indexed by a loop variable.
    SharedLoadIdxL {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },
    /// `LoadLocal idx; SharedStoreIdx { .. }`.
    SharedStoreIdxL {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },
    /// `LoadLocal idx; LocalArrLoadI { arr }`.
    LocalArrLoadIL {
        arr: u16,
        idx: u16,
    },
    /// `LoadLocal idx; SharedLoadIdxI { .. }`.
    SharedLoadIdxIL {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },
    /// `LoadLocal idx; LocalArrStoreI { arr }`.
    LocalArrStoreIL {
        arr: u16,
        idx: u16,
    },
    /// `LoadLocal idx; LocalArrStoreD { arr }`.
    LocalArrStoreDL {
        arr: u16,
        idx: u16,
    },
    /// `LoadLocal idx; SharedStoreIdxT { .. }`.
    SharedStoreIdxTL {
        off: u32,
        len: u32,
        ty: LolType,
        remote: bool,
        idx: u16,
    },
    /// `LoadLocal a; LoadLocal b; BinI(op)`.
    BinILL {
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// `LoadLocal a; LoadLocal b; BinD(op)`.
    BinDLL {
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// `LoadLocal a; ConstI(k); BinI(op)`.
    BinILC {
        op: BinOp,
        a: u16,
        k: i64,
    },
    /// `LoadLocal a; ConstD(k); BinD(op)`.
    BinDLC {
        op: BinOp,
        a: u16,
        k: f64,
    },
    /// `LoadLocal a; LoadLocal b; BinI(op); StoreI(dst)`.
    BinILLS {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `LoadLocal a; LoadLocal b; BinD(op); StoreD(dst)`.
    BinDLLS {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `LoadLocal a; ConstI(k); BinI(op); StoreI(dst)` — the typed
    /// counter increment.
    BinILCS {
        op: BinOp,
        a: u16,
        k: i64,
        dst: u16,
    },
    /// `LoadLocal a; ConstD(k); BinD(op); StoreD(dst)`.
    BinDLCS {
        op: BinOp,
        a: u16,
        k: f64,
        dst: u16,
    },
    /// `BinI(op); StoreI(dst)`.
    BinIS {
        op: BinOp,
        dst: u16,
    },
    /// `BinD(op); StoreD(dst)`.
    BinDS {
        op: BinOp,
        dst: u16,
    },
    /// The typed counted-loop guard: jump when NUMBR `slots[slot]`
    /// equals `k` (both guard shapes, as [`Op::JumpIfLocalEqConst`]).
    JumpIfIEqConst {
        slot: u16,
        k: i64,
        target: u32,
    },
    /// Jump when NUMBRs `slots[a]` and `slots[b]` are equal.
    JumpIfIEqLocal {
        a: u16,
        b: u16,
        target: u32,
    },
    /// `LoadLocal a; LoadLocal b; BinI(op); StoreLocal(0);
    /// JumpIfLocalFalse(0, target)` for a comparison `op` — the
    /// `BOTH SAEM a AN b, O RLY?` idiom: set `IT`, branch on it.
    IfILL {
        op: BinOp,
        a: u16,
        b: u16,
        target: u32,
    },
    /// `LoadLocal a; ConstI(k); BinI(op); StoreLocal(0);
    /// JumpIfLocalFalse(0, target)` for a comparison `op`.
    IfILC {
        op: BinOp,
        a: u16,
        k: i64,
        target: u32,
    },
    /// N-ary string concat.
    Smoosh(u8),
    /// N-ary AND / OR.
    AllOf(u8),
    AnyOf(u8),

    /// Unconditional jump (absolute pc).
    Jump(u32),
    /// Pop; jump when FAIL-y.
    JumpIfFalse(u32),

    /// Call function `func` with `argc` stack arguments.
    Call {
        func: u16,
        argc: u8,
    },
    /// Return the top of stack from the current function.
    Ret,

    /// Pop `argc` printed values (pushed left-to-right), emit.
    Visible {
        argc: u8,
        newline: bool,
    },
    /// Push one input line as a YARN.
    ReadLine,

    /// `HUGZ`.
    Barrier,
    /// Locks on the resolved lock cell.
    LockAcquire {
        off: u32,
        remote: bool,
    },
    /// Pushes WIN/FAIL.
    LockTry {
        off: u32,
        remote: bool,
    },
    LockRelease {
        off: u32,
        remote: bool,
    },

    /// Pop PE number, validate, push onto the BFF (predication) stack.
    PushBff,
    /// Pop the BFF stack.
    PopBff,

    /// Environment queries / randomness.
    Me,
    MahFrenz,
    RandI,
    RandF,

    /// End of the main chunk.
    Halt,
}

/// Stable profile names, indexed by [`Op::profile_index`]. Kept in the
/// enum's declaration order, superinstructions contiguous (see
/// [`Op::is_superinstruction`]).
const PROFILE_NAMES: [&str; Op::COUNT] = [
    "Const",
    "LoadLocal",
    "StoreLocal",
    "Cast",
    "Pop",
    "SharedLoad",
    "SharedStore",
    "SharedLoadIdx",
    "SharedStoreIdx",
    "LocalArrNew",
    "LocalArrLoad",
    "LocalArrStore",
    "ArrayCopy",
    "Bin",
    "Un",
    "ConstI",
    "ConstD",
    "BinI",
    "BinD",
    "UnD",
    "IToD",
    "StoreI",
    "StoreD",
    "SharedLoadIdxI",
    "SharedStoreIdxT",
    "LocalArrLoadI",
    "LocalArrStoreI",
    "LocalArrStoreD",
    "BinLL",
    "BinLC",
    "BinSL",
    "BinSC",
    "BinLLS",
    "BinLCS",
    "CastStore",
    "JumpIfLocalEqConst",
    "JumpIfLocalEqLocal",
    "JumpIfLocalFalse",
    "LocalArrLoadL",
    "LocalArrStoreL",
    "SharedLoadIdxL",
    "SharedStoreIdxL",
    "LocalArrLoadIL",
    "SharedLoadIdxIL",
    "LocalArrStoreIL",
    "LocalArrStoreDL",
    "SharedStoreIdxTL",
    "BinILL",
    "BinDLL",
    "BinILC",
    "BinDLC",
    "BinILLS",
    "BinDLLS",
    "BinILCS",
    "BinDLCS",
    "BinIS",
    "BinDS",
    "JumpIfIEqConst",
    "JumpIfIEqLocal",
    "IfILL",
    "IfILC",
    "Smoosh",
    "AllOf",
    "AnyOf",
    "Jump",
    "JumpIfFalse",
    "Call",
    "Ret",
    "Visible",
    "ReadLine",
    "Barrier",
    "LockAcquire",
    "LockTry",
    "LockRelease",
    "PushBff",
    "PopBff",
    "Me",
    "MahFrenz",
    "RandI",
    "RandF",
    "Halt",
];

/// Profile indices `28..61` are the superinstructions.
const SUPER_FIRST: usize = 28;
const SUPER_LAST: usize = 60;

impl Op {
    /// Number of distinct opcodes (the length of a per-opcode profile
    /// counter array).
    pub const COUNT: usize = 81;

    /// This op's dense profile index (`0..Op::COUNT`), operand-blind:
    /// every `Bin` counts in the same cell regardless of operator.
    /// [`Op::profile_name`] maps it back to the opcode name.
    #[inline]
    pub fn profile_index(&self) -> usize {
        match self {
            Op::Const(_) => 0,
            Op::LoadLocal(_) => 1,
            Op::StoreLocal(_) => 2,
            Op::Cast(_) => 3,
            Op::Pop => 4,
            Op::SharedLoad { .. } => 5,
            Op::SharedStore { .. } => 6,
            Op::SharedLoadIdx { .. } => 7,
            Op::SharedStoreIdx { .. } => 8,
            Op::LocalArrNew { .. } => 9,
            Op::LocalArrLoad { .. } => 10,
            Op::LocalArrStore { .. } => 11,
            Op::ArrayCopy { .. } => 12,
            Op::Bin(_) => 13,
            Op::Un(_) => 14,
            Op::ConstI(_) => 15,
            Op::ConstD(_) => 16,
            Op::BinI(_) => 17,
            Op::BinD(_) => 18,
            Op::UnD(_) => 19,
            Op::IToD(_) => 20,
            Op::StoreI(_) => 21,
            Op::StoreD(_) => 22,
            Op::SharedLoadIdxI { .. } => 23,
            Op::SharedStoreIdxT { .. } => 24,
            Op::LocalArrLoadI { .. } => 25,
            Op::LocalArrStoreI { .. } => 26,
            Op::LocalArrStoreD { .. } => 27,
            Op::BinLL { .. } => 28,
            Op::BinLC { .. } => 29,
            Op::BinSL { .. } => 30,
            Op::BinSC { .. } => 31,
            Op::BinLLS { .. } => 32,
            Op::BinLCS { .. } => 33,
            Op::CastStore { .. } => 34,
            Op::JumpIfLocalEqConst { .. } => 35,
            Op::JumpIfLocalEqLocal { .. } => 36,
            Op::JumpIfLocalFalse { .. } => 37,
            Op::LocalArrLoadL { .. } => 38,
            Op::LocalArrStoreL { .. } => 39,
            Op::SharedLoadIdxL { .. } => 40,
            Op::SharedStoreIdxL { .. } => 41,
            Op::LocalArrLoadIL { .. } => 42,
            Op::SharedLoadIdxIL { .. } => 43,
            Op::LocalArrStoreIL { .. } => 44,
            Op::LocalArrStoreDL { .. } => 45,
            Op::SharedStoreIdxTL { .. } => 46,
            Op::BinILL { .. } => 47,
            Op::BinDLL { .. } => 48,
            Op::BinILC { .. } => 49,
            Op::BinDLC { .. } => 50,
            Op::BinILLS { .. } => 51,
            Op::BinDLLS { .. } => 52,
            Op::BinILCS { .. } => 53,
            Op::BinDLCS { .. } => 54,
            Op::BinIS { .. } => 55,
            Op::BinDS { .. } => 56,
            Op::JumpIfIEqConst { .. } => 57,
            Op::JumpIfIEqLocal { .. } => 58,
            Op::IfILL { .. } => 59,
            Op::IfILC { .. } => 60,
            Op::Smoosh(_) => 61,
            Op::AllOf(_) => 62,
            Op::AnyOf(_) => 63,
            Op::Jump(_) => 64,
            Op::JumpIfFalse(_) => 65,
            Op::Call { .. } => 66,
            Op::Ret => 67,
            Op::Visible { .. } => 68,
            Op::ReadLine => 69,
            Op::Barrier => 70,
            Op::LockAcquire { .. } => 71,
            Op::LockTry { .. } => 72,
            Op::LockRelease { .. } => 73,
            Op::PushBff => 74,
            Op::PopBff => 75,
            Op::Me => 76,
            Op::MahFrenz => 77,
            Op::RandI => 78,
            Op::RandF => 79,
            Op::Halt => 80,
        }
    }

    /// The opcode name for a profile index (inverse of
    /// [`Op::profile_index`]).
    pub fn profile_name(idx: usize) -> &'static str {
        PROFILE_NAMES[idx]
    }

    /// Is profile index `idx` a superinstruction (a peephole fusion of
    /// several plain ops)?
    pub fn is_superinstruction(idx: usize) -> bool {
        (SUPER_FIRST..=SUPER_LAST).contains(&idx)
    }
}

/// A compiled chunk: code plus frame size.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    pub code: Vec<Op>,
    /// Number of scalar slots (slot 0 = IT).
    pub n_slots: u16,
    /// Number of local-array slots (a separate index space, so scalar
    /// loads never branch on an array/scalar discriminant).
    pub n_arrays: u16,
}

/// A compiled module: main chunk, function chunks, constant pool.
#[derive(Debug, Clone, Default)]
pub struct Module {
    pub consts: Vec<Value>,
    pub main: Chunk,
    /// Function chunks; `funcs[i].1.n_slots` includes IT + params.
    pub funcs: Vec<(String, Chunk, u8)>,
    /// Symmetric words to allocate at startup (from the sema layout).
    pub shared_words: usize,
}

impl Module {
    /// Total instruction count (diagnostics / tests).
    pub fn code_len(&self) -> usize {
        self.main.code.len() + self.funcs.iter().map(|(_, c, _)| c.code.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_small() {
        // The dispatch loop copies ops; keep them cache-friendly.
        assert!(std::mem::size_of::<Op>() <= 48, "Op grew to {} bytes", std::mem::size_of::<Op>());
    }

    #[test]
    fn module_code_len_counts_everything() {
        let mut m = Module::default();
        m.main.code = vec![Op::Halt];
        m.funcs.push((
            "f".into(),
            Chunk { code: vec![Op::Ret, Op::Ret], n_slots: 1, n_arrays: 0 },
            0,
        ));
        assert_eq!(m.code_len(), 3);
    }
}
