//! # lol-vm — the compiled execution path for parallel LOLCODE
//!
//! The paper argues that "using a compiler for LOLCODE is more flexible
//! and efficient than an interpreter" (§II.B). Its compiler emits C;
//! ours has two back ends: the C emitter (`lol-c-codegen`, faithful to
//! the paper's output) and this bytecode VM, which is the *measurable*
//! compiled path in an environment without an OpenSHMEM C toolchain.
//!
//! [`compile`] lowers an analyzed program to a [`Module`] (slots
//! resolved, shared offsets baked in, control flow as jumps); the VM
//! executes modules SPMD over [`lol_shmem`], byte-for-byte matching the
//! interpreter's output (see the differential tests below, and the
//! benchmark's `kernels_interp` and `kernels_vm` workloads for the
//! paper's compiled-vs-interpreted claim).
//!
//! Restriction: `SRS` (dynamic identifiers) is interpreter-only; the
//! compiler rejects it with `VMC0001` (docs/LANGUAGE.md).

#![forbid(unsafe_code)]

mod compile;
pub mod machine;
pub mod ops;
pub mod profile;

pub use compile::compile;
pub use machine::{Machine, Step};
pub use ops::{Chunk, Module, Op};
pub use profile::{HotRange, VmProfile};

use lol_interp::RunError;
use lol_shmem::Pe;

/// Run a compiled module on one PE; returns captured output.
///
/// Drives a [`Machine`] against the threaded substrate, which never
/// reports `Pending` — one `resume` runs the program to completion.
/// SPMD launching, output collection and statistics gathering live in
/// the `lolcode` driver's `VmEngine`; the discrete-event `lol-sim`
/// engine drives the same [`Machine`] from an event queue instead.
pub fn run_on_pe(module: &Module, pe: &Pe<'_>, input: &[String]) -> Result<String, RunError> {
    let mut m = Machine::new(module, input);
    match m.resume(pe)? {
        Step::Done => Ok(m.take_output()),
        Step::Blocked => unreachable!("the threaded substrate never reports Pending"),
    }
}

/// [`run_on_pe`] with bytecode profiling on: additionally returns the
/// PE's [`VmProfile`] (merge the per-PE profiles for a job-wide view).
pub fn run_on_pe_profiled(
    module: &Module,
    pe: &Pe<'_>,
    input: &[String],
) -> Result<(String, VmProfile), RunError> {
    let mut m = Machine::new(module, input);
    m.enable_profile();
    match m.resume(pe)? {
        Step::Done => {
            let out = m.take_output();
            let prof = m.take_profile().expect("profiling was enabled");
            Ok((out, prof))
        }
        Step::Blocked => unreachable!("the threaded substrate never reports Pending"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lol_ast::Program;
    use lol_parser::parse;
    use lol_sema::{analyze, Analysis};
    use lol_shmem::{run_spmd, ShmemConfig, SpmdError};
    use std::time::Duration;

    fn cfg(n: usize) -> ShmemConfig {
        ShmemConfig::new(n).timeout(Duration::from_secs(15))
    }

    fn build(src: &str) -> (lol_ast::Program, lol_sema::Analysis) {
        let p = parse(src).expect_program(src);
        let a = analyze(&p);
        assert!(a.is_ok(), "sema: {:?}", a.diags.iter().collect::<Vec<_>>());
        (p, a)
    }

    /// SPMD launch helper (what `lolcode`'s `VmEngine` does, minus the
    /// stats/timing plumbing).
    fn run_parallel(module: &Module, cfg: ShmemConfig) -> Result<Vec<String>, SpmdError> {
        run_spmd(cfg, |pe| match run_on_pe(module, pe, &[]) {
            Ok(out) => out,
            Err(e) => pe.fail(e.to_string()),
        })
    }

    /// Interpreter-side launch helper for the differential tests.
    fn interp_parallel(
        program: &Program,
        analysis: &Analysis,
        cfg: ShmemConfig,
    ) -> Result<Vec<String>, SpmdError> {
        run_spmd(cfg, |pe| match lol_interp::run_on_pe(program, analysis, pe, &[]) {
            Ok(out) => out,
            Err(e) => pe.fail(e.to_string()),
        })
    }

    fn run_vm(n: usize, src: &str) -> Vec<String> {
        let (p, a) = build(src);
        let m = compile(&p, &a).expect("compile failed");
        run_parallel(&m, cfg(n)).expect("vm run failed")
    }

    fn vm1(src: &str) -> String {
        run_vm(1, src).pop().unwrap()
    }

    fn prog(body: &str) -> String {
        format!("HAI 1.2\n{body}\nKTHXBYE")
    }

    /// Interpreter and VM must produce byte-identical output.
    fn differential(n: usize, src: &str) {
        let (p, a) = build(src);
        let m = compile(&p, &a).expect("compile failed");
        let vm_out = run_parallel(&m, cfg(n).seed(7)).expect("vm failed");
        let in_out = interp_parallel(&p, &a, cfg(n).seed(7)).expect("interp failed");
        assert_eq!(vm_out, in_out, "interp/VM divergence on:\n{src}");
    }

    // -----------------------------------------------------------------
    // Basics
    // -----------------------------------------------------------------

    #[test]
    fn hello_world() {
        assert_eq!(vm1(&prog("VISIBLE \"HAI WORLD\"")), "HAI WORLD\n");
    }

    #[test]
    fn arithmetic_and_it() {
        assert_eq!(vm1(&prog("SUM OF 40 AN 2\nVISIBLE IT")), "42\n");
        assert_eq!(vm1(&prog("VISIBLE QUOSHUNT OF 7 AN 2")), "3\n");
        assert_eq!(vm1(&prog("VISIBLE QUOSHUNT OF 7.0 AN 2")), "3.50\n");
    }

    #[test]
    fn control_flow() {
        let src = prog(
            "I HAS A x ITZ 2\n\
             BOTH SAEM x AN 1, O RLY?\nYA RLY\nVISIBLE \"one\"\n\
             MEBBE BOTH SAEM x AN 2\nVISIBLE \"two\"\n\
             NO WAI\nVISIBLE \"other\"\nOIC",
        );
        assert_eq!(vm1(&src), "two\n");
    }

    #[test]
    fn switch_fallthrough_gtfo() {
        let src = prog(
            "I HAS A x ITZ 1\nx, WTF?\n\
             OMG 1\nVISIBLE \"one\"\n\
             OMG 2\nVISIBLE \"two\"\nGTFO\n\
             OMG 3\nVISIBLE \"three\"\n\
             OMGWTF\nVISIBLE \"default\"\nOIC",
        );
        assert_eq!(vm1(&src), "one\ntwo\n");
    }

    #[test]
    fn loops() {
        assert_eq!(
            vm1(&prog("IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\nVISIBLE i!\nIM OUTTA YR l")),
            "0123"
        );
    }

    #[test]
    fn functions_recursion() {
        let src = "HAI 1.2\n\
            HOW IZ I fib YR n\n\
            SMALLR n AN 2, O RLY?\nYA RLY\nFOUND YR n\nOIC\n\
            FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY AN I IZ fib YR DIFF OF n AN 2 MKAY\n\
            IF U SAY SO\n\
            VISIBLE I IZ fib YR 15 MKAY\nKTHXBYE";
        assert_eq!(vm1(src), "610\n");
    }

    #[test]
    fn local_arrays() {
        let src = prog(
            "I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 5\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n\
             a'Z i R SQUAR OF i\nIM OUTTA YR l\nVISIBLE a'Z 4",
        );
        assert_eq!(vm1(&src), "16\n");
    }

    #[test]
    fn srs_is_rejected_at_compile_time() {
        let (p, a) = build(&prog("I HAS A x ITZ 1\nVISIBLE SRS \"x\""));
        let err = compile(&p, &a).unwrap_err();
        assert_eq!(err.code, "VMC0001");
    }

    #[test]
    fn pinned_types_coerce() {
        assert_eq!(vm1(&prog("I HAS A x ITZ SRSLY A NUMBR\nx R \"42\"\nVISIBLE x")), "42\n");
    }

    #[test]
    fn yarn_interpolation() {
        assert_eq!(
            vm1(&prog("I HAS A cat ITZ \"CEILING\"\nVISIBLE \"HAI :{cat} CAT\"")),
            "HAI CEILING CAT\n"
        );
    }

    // -----------------------------------------------------------------
    // Parallel ops
    // -----------------------------------------------------------------

    #[test]
    fn me_and_frenz() {
        let outs = run_vm(4, &prog("VISIBLE \"PE \" ME \" OF \" MAH FRENZ"));
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o, &format!("PE {i} OF 4\n"));
        }
    }

    #[test]
    fn figure2_barrier_example() {
        let src = prog(
            "WE HAS A a ITZ SRSLY A NUMBR\n\
             WE HAS A b ITZ SRSLY A NUMBR\n\
             a R SUM OF ME AN 1\nHUGZ\n\
             I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF k, UR b R MAH a\nHUGZ\n\
             VISIBLE SUM OF a AN b",
        );
        let n = 5;
        let outs = run_vm(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let left = (me + n - 1) % n;
            assert_eq!(o, &format!("{}\n", me + 1 + left + 1));
        }
    }

    #[test]
    fn locks_remote_increment() {
        let src = prog(
            "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\nHUGZ\n\
             IM IN YR l UPPIN YR j TIL BOTH SAEM j AN 25\n\
             TXT MAH BFF 0 AN STUFF\n\
             IM SRSLY MESIN WIF UR x\n\
             UR x R SUM OF UR x AN 1\n\
             DUN MESIN WIF UR x\n\
             TTYL\nIM OUTTA YR l\nHUGZ\nVISIBLE x",
        );
        let outs = run_vm(4, &src);
        assert_eq!(outs[0], "100\n");
    }

    #[test]
    fn whole_array_copy() {
        let src = prog(
            "WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n\
             array'Z i R SUM OF PRODUKT OF ME AN 100 AN i\nIM OUTTA YR l\nHUGZ\n\
             I HAS A mine ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
             I HAS A next ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF next, MAH mine R UR array\n\
             VISIBLE mine'Z 7",
        );
        let n = 3;
        let outs = run_vm(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let next = (me + 1) % n;
            assert_eq!(o, &format!("{}\n", next * 100 + 7));
        }
    }

    // -----------------------------------------------------------------
    // Differential: VM ≡ interpreter
    // -----------------------------------------------------------------

    #[test]
    fn differential_sequential_corpus() {
        let corpus = [
            prog("VISIBLE \"HAI\""),
            prog("I HAS A x ITZ 5\nx R SUM OF x AN 1\nVISIBLE x"),
            prog("VISIBLE SMOOSH 1 AN \" \" AN 2.5 AN \" \" AN WIN MKAY"),
            prog("IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\nVISIBLE SQUAR OF i!\nIM OUTTA YR l"),
            prog("I HAS A n ITZ 17\nMOD OF n AN 2, WTF?\nOMG 0\nVISIBLE \"even\"\nGTFO\nOMG 1\nVISIBLE \"odd\"\nOIC"),
            prog("I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\na'Z 0 R 1.5\na'Z 1 R 2.5\nVISIBLE SUM OF a'Z 0 AN a'Z 1"),
            prog("VISIBLE BIGGR OF 3 AN 7\nVISIBLE SMALLR OF 3 AN 7\nVISIBLE BIGGER 3 AN 7\nVISIBLE SMALLR 3 AN 7"),
            prog("VISIBLE WHATEVR\nVISIBLE WHATEVAR"),
            prog("VISIBLE MAEK \"3.5\" A NUMBAR\nVISIBLE MAEK 9 A YARN\nVISIBLE MAEK 0 A TROOF"),
            "HAI 1.2\nHOW IZ I gcd YR a AN YR b\nBOTH SAEM b AN 0, O RLY?\nYA RLY\nFOUND YR a\nOIC\nFOUND YR I IZ gcd YR b AN YR MOD OF a AN b MKAY\nIF U SAY SO\nVISIBLE I IZ gcd YR 252 AN YR 105 MKAY\nKTHXBYE".to_string(),
        ];
        for src in &corpus {
            differential(1, src);
        }
    }

    #[test]
    fn differential_parallel_corpus() {
        let corpus = [
            prog("VISIBLE \"PE \" ME \"/\" MAH FRENZ"),
            prog(
                "WE HAS A x ITZ SRSLY A NUMBR\nx R PRODUKT OF ME AN 3\nHUGZ\n\
                 I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
                 I HAS A y\nTXT MAH BFF k, y R UR x\nVISIBLE y",
            ),
            prog(
                "WE HAS A arr ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 6\n\
                 IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 6\n\
                 arr'Z i R SUM OF ME AN WHATEVAR\nIM OUTTA YR l\nHUGZ\n\
                 I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
                 I HAS A got\nTXT MAH BFF k, got R UR arr'Z 3\nVISIBLE got",
            ),
            prog(
                "WE HAS A c ITZ A NUMBR AN IM SHARIN IT\nHUGZ\n\
                 IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n\
                 TXT MAH BFF 0 AN STUFF\nIM SRSLY MESIN WIF UR c\n\
                 UR c R SUM OF UR c AN 1\nDUN MESIN WIF UR c\nTTYL\nIM OUTTA YR l\n\
                 HUGZ\nVISIBLE c",
            ),
        ];
        for src in &corpus {
            differential(4, src);
        }
    }

    #[test]
    fn differential_nbody_style_kernel() {
        // A miniature of the paper's Section VI.D structure.
        let src = prog(
            "I HAS A x ITZ SRSLY A NUMBAR\n\
             I HAS A dx ITZ SRSLY A NUMBAR\n\
             I HAS A inv ITZ SRSLY A NUMBAR\n\
             WE HAS A pos ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 8\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n\
             pos'Z i R SUM OF ME AN WHATEVAR\nIM OUTTA YR l\nHUGZ\n\
             I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0\n\
             IM IN YR l UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ\n\
             DIFFRINT k AN ME, O RLY?\nYA RLY\n\
             IM IN YR m UPPIN YR j TIL BOTH SAEM j AN 8\n\
             TXT MAH BFF k, dx R DIFF OF pos'Z 0 AN UR pos'Z j\n\
             inv R FLIP OF UNSQUAR OF SUM OF PRODUKT OF dx AN dx AN 0.001\n\
             acc R SUM OF acc AN inv\n\
             IM OUTTA YR m\nOIC\nIM OUTTA YR l\n\
             VISIBLE acc",
        );
        differential(4, &src);
    }

    // -----------------------------------------------------------------
    // Typed opcodes: every corner against the interpreter
    // -----------------------------------------------------------------

    /// Does any chunk of `src`'s module hold an op matching `pred`?
    fn emits(src: &str, pred: impl Fn(&Op) -> bool) -> bool {
        let (p, a) = build(src);
        let m = compile(&p, &a).unwrap();
        m.main.code.iter().chain(m.funcs.iter().flat_map(|f| &f.1.code)).any(pred)
    }

    fn is_typed(op: &Op) -> bool {
        let name = Op::profile_name(op.profile_index());
        matches!(op, Op::ConstI(_) | Op::ConstD(_) | Op::IToD(_) | Op::StoreI(_) | Op::StoreD(_))
            || name.contains("BinI")
            || name.contains("BinD")
            || name.starts_with("UnD")
            || name.contains("IEq")
            || name.starts_with("IfI")
    }

    /// Both engines fail, with the same stable code.
    fn both_fail_with(src: &str, code: &str) {
        let (p, a) = build(src);
        let m = compile(&p, &a).unwrap();
        let vm = run_parallel(&m, cfg(1)).expect_err("vm should fail");
        let interp = interp_parallel(&p, &a, cfg(1)).expect_err("interp should fail");
        assert!(vm.message.contains(code), "vm: {vm}");
        assert!(interp.message.contains(code), "interp: {interp}");
    }

    const TYPED_DECLS: &str =
        "I HAS A n ITZ SRSLY A NUMBR AN ITZ DIFF OF -9223372036854775807 AN 1\n\
        I HAS A m ITZ SRSLY A NUMBR AN ITZ -1\n\
        I HAS A z ITZ SRSLY A NUMBR\n\
        I HAS A f ITZ SRSLY A NUMBAR AN ITZ -2.75\n\
        I HAS A g ITZ SRSLY A NUMBAR\n";

    #[test]
    fn typed_numbr_wraps_at_the_rim() {
        let src = prog(&format!(
            "{TYPED_DECLS}VISIBLE QUOSHUNT OF n AN m\nVISIBLE MOD OF n AN m\n\
             VISIBLE SUM OF n AN m\nVISIBLE PRODUKT OF n AN m\n\
             z R DIFF OF n AN 1\nVISIBLE z\nz R PRODUKT OF n AN n\nVISIBLE z"
        ));
        assert!(emits(&src, |op| matches!(op, Op::BinILL { op: lol_ast::BinOp::Quoshunt, .. })));
        differential(1, &src);
        assert_eq!(
            vm1(&src),
            "-9223372036854775808\n0\n9223372036854775807\n-9223372036854775808\n\
             9223372036854775807\n0\n"
        );
    }

    #[test]
    fn typed_division_and_mod_by_zero_fault() {
        for expr in ["QUOSHUNT OF m AN z", "MOD OF m AN z", "QUOSHUNT OF 1 AN z", "MOD OF n AN 0"] {
            let src = prog(&format!("{TYPED_DECLS}z R {expr}\nVISIBLE z"));
            assert!(emits(&src, is_typed), "{expr} should run typed");
            both_fail_with(&src, "RUN0001");
        }
    }

    #[test]
    fn typed_numbar_follows_ieee_and_nan_min_max() {
        let src = prog(&format!(
            "{TYPED_DECLS}I HAS A nan ITZ SRSLY A NUMBAR AN ITZ UNSQUAR OF f\n\
             I HAS A inf ITZ SRSLY A NUMBAR AN ITZ QUOSHUNT OF 1.0 AN g\n\
             VISIBLE nan \" \" inf \" \" DIFF OF g AN inf \" \" PRODUKT OF inf AN g\n\
             VISIBLE BIGGR OF nan AN f \" \" SMALLR OF f AN nan \" \" BIGGR OF inf AN nan\n\
             VISIBLE SMALLR OF nan AN nan \" \" MOD OF f AN g \" \" FLIP OF g\n\
             VISIBLE BOTH SAEM nan AN nan \" \" DIFFRINT nan AN nan \" \" BIGGER inf AN nan\n\
             VISIBLE SQUAR OF f \" \" SUM OF f AN 3 \" \" BOTH SAEM 3 AN SUM OF g AN 3"
        ));
        assert!(emits(&src, |op| matches!(op, Op::BinDLL { op: lol_ast::BinOp::BiggrOf, .. })));
        differential(1, &src);
        assert_eq!(
            vm1(&src),
            "nan inf -inf nan\n-2.75 -2.75 inf\nnan nan inf\nFAIL WIN FAIL\n7.56 0.25 WIN\n"
        );
    }

    #[test]
    fn typed_pinned_store_truncates_numbar_to_numbr() {
        let src = prog(&format!(
            "{TYPED_DECLS}z R f\nVISIBLE z\nz R 3.9\nVISIBLE z\n\
             z R UNSQUAR OF f\nVISIBLE z\nz R QUOSHUNT OF 1.0 AN g\nVISIBLE z\n\
             g R z\nVISIBLE g"
        ));
        differential(1, &src);
        assert_eq!(vm1(&src), "-2\n3\n0\n9223372036854775807\n9223372036854775808.00\n");
    }

    #[test]
    fn counter_assigned_by_its_body_stays_on_the_value_path() {
        let own = "IM IN YR l UPPIN YR i TIL BIGGER i AN 5\nVISIBLE i\ni R SUM OF i AN 0.5\nIM OUTTA YR l";
        let src = prog(own);
        // Only the counter is in play: no typed op may touch it.
        assert!(!emits(&src, |op| is_typed(op) && !matches!(op, Op::ConstI(_))), "{own}");
        differential(1, &src);
        assert_eq!(vm1(&src), "0\n1.50\n3.00\n4.50\n");
        // The same loop without the assignment runs typed.
        let plain = prog("IM IN YR l UPPIN YR i TIL BIGGER i AN 5\nVISIBLE i\nIM OUTTA YR l");
        assert!(emits(&plain, |op| matches!(op, Op::BinILCS { .. })));
        differential(1, &plain);
    }

    #[test]
    fn it_is_written_by_typed_comparisons() {
        let src = prog(&format!(
            "{TYPED_DECLS}BOTH SAEM m AN -1, O RLY?\nYA RLY\nVISIBLE IT\nNO WAI\nVISIBLE \"NO\"\nOIC\n\
             VISIBLE IT\nDIFFRINT m AN z, O RLY?\nYA RLY\nVISIBLE IT\nOIC\n\
             BIGGER f AN g, O RLY?\nYA RLY\nVISIBLE \"NO\"\nNO WAI\nVISIBLE IT\nOIC\n\
             SUM OF m AN 1\nVISIBLE IT"
        ));
        assert!(emits(&src, |op| matches!(op, Op::IfILC { .. })));
        differential(1, &src);
        assert_eq!(vm1(&src), "WIN\nWIN\nWIN\nFAIL\n0\n");
    }

    #[test]
    fn typed_arrays_and_shared_cells_match_the_interpreter() {
        let src = prog(
            "WE HAS A s ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n\
             WE HAS A c ITZ SRSLY A NUMBR\n\
             I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n\
             I HAS A d ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n\
             a'Z i R PRODUKT OF i AN SUM OF ME AN 3\nd'Z i R QUOSHUNT OF a'Z i AN 4\n\
             s'Z SUM OF 0 AN i R SUM OF d'Z i AN 0.5\nc R SUM OF c AN a'Z i\n\
             IM OUTTA YR l\nHUGZ\n\
             VISIBLE a'Z 3 \" \" d'Z 3 \" \" s'Z 3 \" \" c \" \" s'Z DIFF OF c AN c",
        );
        assert!(emits(&src, |op| matches!(op, Op::LocalArrStoreIL { .. })));
        assert!(emits(&src, |op| matches!(op, Op::SharedStoreIdxT { .. })));
        differential(3, &src);
    }

    #[test]
    fn module_structure_is_reasonable() {
        let (p, a) = build(&prog("VISIBLE \"x\"\nHUGZ"));
        let m = compile(&p, &a).unwrap();
        assert!(m.code_len() >= 3); // const+visible, barrier, halt
        assert!(m.main.code.contains(&Op::Barrier));
        assert!(matches!(m.main.code.last(), Some(Op::Halt)));
    }

    // -----------------------------------------------------------------
    // Fault paths: malformed bytecode must die with RUN0192, not a
    // naked panic
    // -----------------------------------------------------------------

    /// Hand-built broken modules (the compiler never emits these — they
    /// model compiler bugs / corrupted bytecode). Each must surface the
    /// stable `RUN0192` internal-bug diagnostic from `resume`.
    fn malformed_modules() -> Vec<(&'static str, Module)> {
        use lol_ast::BinOp;
        let with_main = |code: Vec<Op>| Module {
            main: Chunk { code, n_slots: 1, n_arrays: 1 },
            ..Default::default()
        };
        vec![
            ("binop on empty stack", with_main(vec![Op::Bin(BinOp::Sum), Op::Halt])),
            ("load of out-of-range slot", with_main(vec![Op::LoadLocal(99), Op::Halt])),
            ("store to out-of-range slot", with_main(vec![Op::StoreLocal(7), Op::Halt])),
            ("const index out of range", with_main(vec![Op::Const(3), Op::Halt])),
            ("call of missing funkshun", with_main(vec![Op::Call { func: 0, argc: 0 }, Op::Halt])),
            ("ret with empty stack", with_main(vec![Op::Ret])),
            // Typed ops meeting a variant the typing analysis ruled out.
            (
                "typed store into a NOOB slot",
                with_main(vec![Op::ConstI(1), Op::StoreI(0), Op::Halt]),
            ),
            (
                "NUMBAR store of a NUMBR",
                with_main(vec![Op::ConstD(0.5), Op::StoreLocal(0), Op::ConstI(1), Op::StoreD(0)]),
            ),
            (
                "typed add of a NUMBAR",
                with_main(vec![Op::ConstI(1), Op::ConstD(2.0), Op::BinI(BinOp::Sum), Op::Halt]),
            ),
            (
                "typed guard on a NOOB slot",
                with_main(vec![Op::JumpIfIEqConst { slot: 0, k: 0, target: 0 }, Op::Halt]),
            ),
            ("widening a NUMBAR", with_main(vec![Op::ConstD(1.0), Op::IToD(0), Op::Halt])),
            (
                "typed index of a NUMBAR",
                with_main(vec![
                    Op::ConstI(3),
                    Op::LocalArrNew { arr: 0, ty: lol_ast::LolType::Numbar },
                    Op::ConstD(1.0),
                    Op::ConstD(1.0),
                    Op::LocalArrStoreD { arr: 0 },
                    Op::Halt,
                ]),
            ),
        ]
    }

    #[test]
    fn malformed_bytecode_is_a_structured_vm_bug_error() {
        for (what, m) in malformed_modules() {
            let err = run_spmd(cfg(1), |pe| {
                run_on_pe(&m, pe, &[]).expect_err(&format!("{what}: expected an error"))
            })
            .unwrap()
            .pop()
            .unwrap();
            assert_eq!(err.code, "RUN0192", "{what}: wrong code: {err}");
            assert!(
                err.to_string().contains("DIS IZ NOT UR PROGRAMZ FAULT"),
                "{what}: message should disown the user program: {err}"
            );
        }
    }

    #[test]
    fn malformed_bytecode_surfaces_through_spmd_error() {
        // The engine path: the PE converts the RunError into `pe.fail`,
        // and the job reports a structured SpmdError (what the sweep
        // driver records as FAILED) rather than propagating a panic.
        let (_, m) = malformed_modules().pop().unwrap();
        let err = run_parallel(&m, cfg(2)).expect_err("job should fail");
        assert!(err.message.contains("RUN0192"), "missing code in: {err}");
        assert!(err.to_string().starts_with("PE "), "should name the failing PE: {err}");
    }

    #[test]
    fn machine_is_dead_after_vm_bug() {
        use lol_ast::BinOp;
        let m = Module {
            main: Chunk { code: vec![Op::Bin(BinOp::Sum), Op::Halt], n_slots: 1, n_arrays: 0 },
            ..Default::default()
        };
        run_spmd(cfg(1), |pe| {
            let mut mach = Machine::new(&m, &[]);
            assert_eq!(mach.resume(pe).unwrap_err().code, "RUN0192");
            // A second resume must not continue past the fault.
            assert!(mach.resume(pe).is_err(), "machine must stay dead after an error");
        })
        .unwrap();
    }

    #[test]
    fn consts_are_deduped() {
        // NUMBR/NUMBAR literals are inline immediates; everything else
        // shares one pool entry per distinct value.
        let (p, a) = build(&prog("VISIBLE \"7\"\nVISIBLE \"7\"\nVISIBLE \"7\"\nVISIBLE 7"));
        let m = compile(&p, &a).unwrap();
        let sevens = m.consts.iter().filter(|v| **v == lol_interp::Value::yarn("7")).count();
        assert_eq!(sevens, 1);
        assert!(m.main.code.contains(&Op::ConstI(7)), "NUMBR literals are immediates");
        assert!(!m.consts.contains(&lol_interp::Value::Numbr(7)));
    }
}
