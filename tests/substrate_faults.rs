//! A substrate fault reads the same on every engine.
//!
//! Hand-assembled modules trip each substrate diagnostic on the
//! threaded VM (`run_spmd` + `lol_vm::run_on_pe`) and on the
//! simulator's sequential and sharded schedulers; the resulting
//! `SpmdError { pe, message }` must be byte-identical. Only one PE
//! faults where the others could otherwise run on, so the threaded
//! world's root cause is never a race.

use lol_ast::{BinOp, LolType};
use lol_interp::Value;
use lol_shmem::{run_spmd, ClockMode, ShmemConfig, SpmdError};
use lol_sim::run_module_jobs;
use lol_vm::ops::{Chunk, Op};
use lol_vm::Module;

const PES: usize = 8;

fn cfg() -> ShmemConfig {
    ShmemConfig::new(PES).clock(ClockMode::Virtual).heap_words(16)
}

/// `shared_words` of symmetric storage, then `faulty` runs on PE
/// `culprit` only.
fn module(shared_words: usize, culprit: i64, faulty: Vec<Op>) -> Module {
    let skip = 4 + faulty.len() as u32;
    let mut code = vec![Op::Me, Op::Const(0), Op::Bin(BinOp::BothSaem), Op::JumpIfFalse(skip)];
    code.extend(faulty);
    code.push(Op::Halt);
    Module {
        consts: vec![Value::Numbr(culprit), Value::Numbr(0)],
        main: Chunk { code, n_slots: 1, n_arrays: 0 },
        funcs: vec![],
        shared_words,
    }
}

fn threaded(m: &Module, cfg: ShmemConfig) -> SpmdError {
    run_spmd(cfg, |pe| lol_vm::run_on_pe(m, pe, &[]).unwrap_or_else(|e| pe.fail(e.to_string())))
        .unwrap_err()
}

fn sim(m: &Module, cfg: &ShmemConfig, jobs: usize) -> SpmdError {
    run_module_jobs(m, cfg, &[], jobs).unwrap_err()
}

/// The threaded VM, sim `jobs=1` and sim `jobs=4` agree on `want`.
fn same_everywhere(m: &Module, cfg: ShmemConfig, want: &SpmdError) {
    assert_eq!(&threaded(m, cfg.clone()), want, "threaded vm");
    for jobs in [1, 4] {
        assert_eq!(&sim(m, &cfg, jobs), want, "sim jobs={jobs}");
    }
}

#[test]
fn run0100_load_past_the_heap() {
    let load = Op::SharedLoad { off: 100, ty: LolType::Numbr, remote: false };
    let m = module(1, 5, vec![load, Op::Visible { argc: 1, newline: true }]);
    let want = SpmdError {
        pe: 5,
        message: "O NOES! [RUN0100] SYMMETRIC ADDRESS 100 IZ OUTSIDE DA HEAP (16 WORDS)".into(),
    };
    same_everywhere(&m, cfg(), &want);
}

#[test]
fn run0111_shared_words_beyond_the_heap() {
    let m = module(32, 0, vec![]);
    let want = SpmdError {
        pe: 0,
        message: "O NOES! [RUN0111] NOT ENUF SYMMETRIC HEAP: PE 0 NEEDS 32 WORDS BUT ONLY HAS 16 \
                  (GROW heap_words)"
            .into(),
    };
    same_everywhere(&m, cfg(), &want);
}

#[test]
fn run0180_unlock_of_a_free_lock() {
    let unlock =
        vec![Op::Const(1), Op::PushBff, Op::LockRelease { off: 0, remote: true }, Op::PopBff];
    let m = module(3, 3, unlock);
    let want = SpmdError {
        pe: 3,
        message: "O NOES! [RUN0180] PE 3 DID DUN MESIN WIF BUT NOBODY WUZ MESIN WIF IT".into(),
    };
    assert_eq!(threaded(&m, cfg()), want, "threaded vm");
    assert_eq!(sim(&m, &cfg(), 1), want, "sim");
}
