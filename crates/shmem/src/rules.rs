//! The substrate rules every engine shares.
//!
//! The threaded world ([`crate::Pe`]) and the discrete-event simulator
//! (`lol-sim`) implement the same PGAS contract over different storage
//! and scheduling. What must read the same on both lives here, once:
//! the virtual-time charge of a remote access, collective-allocation
//! bookkeeping, the fault texts, the per-PE RNG seed and trace buffer,
//! and the conversion of a caught panic into a fault message. A fault
//! therefore reads byte-for-byte the same on every engine.

use crate::heap::SymAddr;
use crate::latency::LatencyModel;
use crate::rng::PeRng;
use crate::world::ShmemConfig;
use lol_trace::{TraceBuffer, VIRT_OP_NS};

/// What a PE waits at in a barrier, as `RUN0190`/`RUN0191` name it.
pub const AT_BARRIER: &str = "HUGZ (barrier)";

/// What a PE waits at in a blocking lock acquire.
pub const AT_LOCK: &str = "IM SRSLY MESIN WIF (lock)";

/// Virtual-clock cost of an access by `me` to `target`'s partition:
/// free when local, the latency model's delay plus [`VIRT_OP_NS`]
/// when remote.
#[inline]
pub fn virtual_charge_ns(latency: &LatencyModel, me: usize, target: usize) -> u64 {
    if target == me {
        0
    } else {
        latency.delay_ns(me, target) + VIRT_OP_NS
    }
}

/// Collective-allocation bookkeeping: the words each call asked for,
/// the offset each call resolved to, and the shared cursor.
#[derive(Debug, Default)]
pub struct AllocLog {
    sizes: Vec<u32>,
    offsets: Vec<u32>,
    cursor: usize,
}

impl AllocLog {
    /// PE `pe`'s `seq`-th collective allocation of `words` words on a
    /// heap of `heap_words` words per PE. The first claim of a call
    /// fixes its size; a later claim that disagrees is `RUN0110`. The
    /// first claim that fits fixes its offset; one that does not fit
    /// is `RUN0111` (and the next claim of the call tries again).
    pub fn claim(
        &mut self,
        seq: usize,
        pe: usize,
        words: usize,
        heap_words: usize,
    ) -> Result<SymAddr, String> {
        match self.sizes.get(seq) {
            Some(&prev) if prev as usize != words => {
                return Err(format!(
                    "O NOES! [RUN0110] COLLECTIVE ALLOCASHUN MISMATCH AT CALL #{seq}: PE {pe} \
                     WANTS {words} WORDS BUT DA JOB ALREADY AGREED ON {prev}"
                ));
            }
            Some(_) => {}
            None => self.sizes.push(words as u32),
        }
        if let Some(&off) = self.offsets.get(seq) {
            return Ok(SymAddr(off));
        }
        let end = self.cursor + words;
        if end > heap_words {
            return Err(format!(
                "O NOES! [RUN0111] NOT ENUF SYMMETRIC HEAP: PE {pe} NEEDS {end} WORDS BUT ONLY \
                 HAS {heap_words} (GROW heap_words)"
            ));
        }
        let off = SymAddr(self.cursor as u32);
        self.offsets.push(off.0);
        self.cursor = end;
        Ok(off)
    }

    /// The offset call `seq` resolved to (it must have been claimed).
    pub fn offset(&self, seq: usize) -> SymAddr {
        SymAddr(self.offsets[seq])
    }

    /// Words allocated so far (identical on every PE).
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

/// `RUN0100`: `addr` lies outside a heap of `heap_words` words.
pub fn out_of_heap(addr: SymAddr, heap_words: usize) -> String {
    format!(
        "O NOES! [RUN0100] SYMMETRIC ADDRESS {} IZ OUTSIDE DA HEAP ({heap_words} WORDS)",
        addr.0
    )
}

/// A lock's owner-word value while `pe` holds it (0 means free).
#[inline]
pub fn lock_owner(pe: usize) -> u64 {
    pe as u64 + 1
}

/// `RUN0180`/`RUN0181`: the fault of PE `me` releasing a lock whose
/// owner word reads `owner`, or `None` when `me` holds it.
pub fn unlock_fault(me: usize, owner: u64) -> Option<String> {
    if owner == lock_owner(me) {
        None
    } else if owner == 0 {
        Some(format!("O NOES! [RUN0180] PE {me} DID DUN MESIN WIF BUT NOBODY WUZ MESIN WIF IT"))
    } else {
        Some(format!(
            "O NOES! [RUN0181] PE {me} TRIED TO DUN MESIN WIF A LOCK HELD BY PE {}",
            owner - 1
        ))
    }
}

/// `RUN0191`: PE `pe` waits at `what` for a partner that never comes.
pub fn waited_too_long(pe: usize, what: &str) -> String {
    format!(
        "O NOES! [RUN0191] PE {pe} WAITED 2 LONG AT {what} — SUM PE NEVER SHOWED UP (DEADLOCK?)"
    )
}

/// PE `pe`'s `WHATEVR`/`WHATEVAR` stream.
pub fn pe_rng(cfg: &ShmemConfig, pe: usize) -> PeRng {
    PeRng::seed_from_u64(cfg.seed ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// PE `pe`'s trace buffer: `None` unless the job traces; zero-capacity
/// for PEs the sampling stride leaves out, so they record nothing but
/// still count every event as dropped.
pub fn pe_tracer(cfg: &ShmemConfig, pe: usize) -> Option<TraceBuffer> {
    cfg.trace.then(|| TraceBuffer::new(pe, if cfg.traces_pe(pe) { cfg.trace_capacity } else { 0 }))
}

/// The message of a caught PE panic (substrate faults panic with
/// their `O NOES!` text).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "PE panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_log_agrees_on_offsets() {
        let mut log = AllocLog::default();
        assert_eq!(log.claim(0, 0, 10, 64), Ok(SymAddr(0)));
        assert_eq!(log.claim(0, 1, 10, 64), Ok(SymAddr(0)));
        assert_eq!(log.claim(1, 1, 3, 64), Ok(SymAddr(10)));
        assert_eq!(log.claim(1, 0, 3, 64), Ok(SymAddr(10)));
        assert_eq!(log.offset(1), SymAddr(10));
        assert_eq!(log.cursor(), 13);
    }

    #[test]
    fn alloc_log_mismatch_is_run0110() {
        let mut log = AllocLog::default();
        log.claim(0, 0, 4, 64).unwrap();
        assert_eq!(
            log.claim(0, 3, 8, 64).unwrap_err(),
            "O NOES! [RUN0110] COLLECTIVE ALLOCASHUN MISMATCH AT CALL #0: PE 3 WANTS 8 WORDS \
             BUT DA JOB ALREADY AGREED ON 4"
        );
    }

    #[test]
    fn alloc_log_exhaustion_is_run0111_for_every_claimant() {
        let mut log = AllocLog::default();
        log.claim(0, 0, 10, 16).unwrap();
        for pe in [0, 1] {
            assert_eq!(
                log.claim(1, pe, 7, 16).unwrap_err(),
                format!(
                    "O NOES! [RUN0111] NOT ENUF SYMMETRIC HEAP: PE {pe} NEEDS 17 WORDS BUT \
                     ONLY HAS 16 (GROW heap_words)"
                )
            );
        }
        assert_eq!(log.cursor(), 10, "a failed claim allocates nothing");
    }

    #[test]
    fn unlock_faults_name_the_holder() {
        assert_eq!(unlock_fault(2, lock_owner(2)), None);
        assert!(unlock_fault(2, 0).unwrap().contains("[RUN0180] PE 2 DID DUN"));
        assert!(unlock_fault(2, lock_owner(5)).unwrap().contains("[RUN0181] PE 2 TRIED"));
        assert!(unlock_fault(2, lock_owner(5)).unwrap().ends_with("HELD BY PE 5"));
    }

    #[test]
    fn virtual_charge_is_free_locally() {
        let lat = LatencyModel::Uniform { remote_ns: 700 };
        assert_eq!(virtual_charge_ns(&lat, 3, 3), 0);
        assert_eq!(virtual_charge_ns(&lat, 3, 4), 700 + VIRT_OP_NS);
    }
}
