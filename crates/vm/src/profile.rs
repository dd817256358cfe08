//! Opt-in bytecode execution profiling (`lolrun --profile`).
//!
//! A [`VmProfile`] holds two counter planes, both sized once up front
//! so the hot-path hook (the crate-internal `hit`) is two array
//! increments — no allocation, no hashing, no branching beyond the
//! caller's single "is profiling on?" check:
//!
//! * **per-opcode counts** — one cell per [`Op`] discriminant
//!   ([`Op::COUNT`] of them), operand-blind, so "how much of this
//!   program is superinstructions?" is a table lookup;
//! * **per-pc heat** — one cell per bytecode offset per chunk, from
//!   which [`VmProfile::hot_ranges`] recovers the top-N contiguous hot
//!   bytecode ranges (inner loops show up as single ranges, not a
//!   smear of individual pcs).
//!
//! Profiles from different PEs of the same module share a shape and
//! [merge](VmProfile::merge) by element-wise addition, so a threaded
//! run reports one job-wide profile.

use crate::ops::{Module, Op};

/// Execution counters for one run of a [`Module`] (see module docs).
#[derive(Clone, Debug)]
pub struct VmProfile {
    /// `ops[Op::profile_index()]` = times that opcode executed.
    ops: Vec<u64>,
    /// `heat[chunk][pc]` = times the op at `pc` executed. Chunk 0 is
    /// `main`, chunk `i + 1` is `funcs[i]`.
    heat: Vec<Vec<u64>>,
}

/// One contiguous run of executed bytecode, scored by total op count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotRange {
    /// Chunk index (0 = `main`, `i + 1` = `funcs[i]`).
    pub chunk: usize,
    /// First bytecode offset of the range.
    pub start: usize,
    /// One past the last bytecode offset of the range.
    pub end: usize,
    /// Total op executions inside the range.
    pub count: u64,
}

impl VmProfile {
    /// An all-zero profile shaped for `module`.
    pub fn for_module(module: &Module) -> Self {
        let mut heat = Vec::with_capacity(1 + module.funcs.len());
        heat.push(vec![0u64; module.main.code.len()]);
        for (_, chunk, _) in &module.funcs {
            heat.push(vec![0u64; chunk.code.len()]);
        }
        VmProfile { ops: vec![0u64; Op::COUNT], heat }
    }

    /// Record one op execution. Two bounds-checked array increments —
    /// cheap enough for every dispatched op when profiling is on, and
    /// never called when it is off.
    #[inline]
    pub(crate) fn hit(&mut self, chunk: usize, pc: usize, op_idx: usize) {
        self.ops[op_idx] += 1;
        self.heat[chunk][pc] += 1;
    }

    /// Fold another PE's profile of the same module into this one.
    pub fn merge(&mut self, other: &VmProfile) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            *a += b;
        }
        for (a, b) in self.heat.iter_mut().zip(&other.heat) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Total ops executed.
    pub fn total(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Executed opcodes as `(name, count, is_superinstruction)`,
    /// descending by count (ties broken by profile index, so the
    /// order is deterministic).
    pub fn op_counts(&self) -> Vec<(&'static str, u64, bool)> {
        let mut rows: Vec<(usize, u64)> =
            self.ops.iter().copied().enumerate().filter(|&(_, n)| n > 0).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.into_iter()
            .map(|(i, n)| (Op::profile_name(i), n, Op::is_superinstruction(i)))
            .collect()
    }

    /// The share of executed ops that were fused superinstructions,
    /// in parts per 10 000 (avoids float in the report plumbing).
    pub fn super_bp(&self) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let fused: u64 = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| Op::is_superinstruction(*i))
            .map(|(_, n)| n)
            .sum();
        fused * 10_000 / total
    }

    /// The top-`n` contiguous executed bytecode ranges, hottest first
    /// (ties broken by chunk then start, so the order is
    /// deterministic). A range is a maximal run of pcs that all
    /// executed at least once — a loop body surfaces as one range.
    pub fn hot_ranges(&self, n: usize) -> Vec<HotRange> {
        let mut ranges = Vec::new();
        for (chunk, heat) in self.heat.iter().enumerate() {
            let mut pc = 0;
            while pc < heat.len() {
                if heat[pc] == 0 {
                    pc += 1;
                    continue;
                }
                let start = pc;
                let mut count = 0u64;
                while pc < heat.len() && heat[pc] > 0 {
                    count += heat[pc];
                    pc += 1;
                }
                ranges.push(HotRange { chunk, start, end: pc, count });
            }
        }
        ranges.sort_by(|a, b| {
            b.count.cmp(&a.count).then(a.chunk.cmp(&b.chunk)).then(a.start.cmp(&b.start))
        });
        ranges.truncate(n);
        ranges
    }

    /// Human label for a heat-plane chunk index (`main` or the
    /// function's source name).
    pub fn chunk_label(module: &Module, chunk: usize) -> String {
        if chunk == 0 {
            "main".to_string()
        } else {
            module.funcs.get(chunk - 1).map_or_else(|| format!("chunk{chunk}"), |f| f.0.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_indices_are_a_dense_permutation() {
        // Names table and index space agree; supers are a contiguous
        // block strictly inside the range.
        assert_eq!(Op::profile_name(0), "Const");
        assert_eq!(Op::profile_name(Op::COUNT - 1), "Halt");
        assert_eq!(Op::Halt.profile_index(), Op::COUNT - 1);
        let sum = lol_ast::BinOp::Sum;
        assert!(Op::is_superinstruction(Op::BinLL { op: sum, a: 0, b: 0 }.profile_index()));
        assert!(!Op::is_superinstruction(Op::Bin(sum).profile_index()));
        let n_super = (0..Op::COUNT).filter(|&i| Op::is_superinstruction(i)).count();
        assert_eq!(n_super, 33);
    }

    #[test]
    fn merge_and_hot_ranges_are_deterministic() {
        let module = Module {
            consts: Vec::new(),
            main: crate::ops::Chunk { code: vec![Op::Halt; 8], n_slots: 0, n_arrays: 0 },
            funcs: Vec::new(),
            shared_words: 0,
        };
        let mut a = VmProfile::for_module(&module);
        let mut b = VmProfile::for_module(&module);
        // a executes pcs 1..=3 heavily, b executes pc 6 once.
        for _ in 0..10 {
            a.hit(0, 1, Op::Halt.profile_index());
            a.hit(0, 2, Op::Halt.profile_index());
            a.hit(0, 3, Op::Halt.profile_index());
        }
        b.hit(0, 6, Op::Halt.profile_index());
        a.merge(&b);
        assert_eq!(a.total(), 31);
        let ranges = a.hot_ranges(10);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], HotRange { chunk: 0, start: 1, end: 4, count: 30 });
        assert_eq!(ranges[1], HotRange { chunk: 0, start: 6, end: 7, count: 1 });
        let counts = a.op_counts();
        assert_eq!(counts, vec![("Halt", 31, false)]);
        assert_eq!(VmProfile::chunk_label(&module, 0), "main");
    }
}
