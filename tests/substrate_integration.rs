//! Cross-crate integration at the substrate level: the raw PGAS API
//! driven the way the generated code drives it, plus a property-based
//! check of one-sided put/get.

use icanhas::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

fn cfg(n: usize) -> ShmemConfig {
    ShmemConfig::new(n).timeout(Duration::from_secs(30))
}

#[test]
fn shmem_api_matches_language_semantics() {
    // The Figure 2 example, hand-written against the raw API (this is
    // what the emitted C does through shmem_*).
    let n = 6;
    let raw = run_spmd(cfg(n), |pe| {
        let a = pe.shmalloc(1);
        let b = pe.shmalloc(1);
        pe.put_i64(a, pe.id(), pe.id() as i64 + 1);
        pe.barrier_all();
        let k = (pe.id() + 1) % pe.n_pes();
        let mine = pe.get_i64(a, pe.id());
        pe.put_i64(b, k, mine);
        pe.barrier_all();
        pe.get_i64(a, pe.id()) + pe.get_i64(b, pe.id())
    })
    .unwrap();

    let artifact = compile(corpus::BARRIER_EXAMPLE).unwrap();
    let lang = engine_for(Backend::Interp).run(&artifact, &lolcode::RunConfig::new(n)).unwrap();
    for (pe, (r, l)) in raw.iter().zip(lang.outputs.iter()).enumerate() {
        let printed: i64 = l.trim().rsplit(' ').next().unwrap().parse().expect("numeric");
        assert_eq!(*r, printed, "substrate and language disagree on PE {pe}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Put-then-barrier-then-get returns exactly what was put, for any
    /// word pattern (no tearing, no truncation).
    #[test]
    fn put_get_roundtrip(words in proptest::collection::vec(any::<u64>(), 1..32)) {
        let words2 = words.clone();
        let got = run_spmd(cfg(2), move |pe| {
            let a = pe.shmalloc(words2.len());
            if pe.id() == 0 {
                for (i, &w) in words2.iter().enumerate() {
                    pe.put_u64(a.offset(i), 1, w);
                }
            }
            pe.barrier_all();
            let mut out = vec![0u64; words2.len()];
            if pe.id() == 1 {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = pe.get_u64(a.offset(i), 1);
                }
            }
            out
        }).unwrap();
        prop_assert_eq!(&got[1], &words);
    }
}
