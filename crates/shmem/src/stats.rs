//! Per-PE communication statistics.
//!
//! Every PGAS operation a PE performs is counted (local vs remote
//! separately). For a teaching tool this is half the point: students
//! can *see* the communication volume of their algorithm — e.g. that
//! the paper's n-body does O(P·n²) remote gets per step while the ring
//! example pulls one neighbour's array.
//!
//! Counters live in plain `Cell`s on the [`crate::Pe`] handle (one
//! writer each, zero synchronization cost) and are snapshotted with
//! [`crate::Pe::stats`].

use std::cell::Cell;
use std::fmt;

/// Snapshot of one PE's operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Scalar gets from the PE's own partition.
    pub local_gets: u64,
    /// Scalar gets from another PE's partition.
    pub remote_gets: u64,
    /// Scalar puts to the PE's own partition.
    pub local_puts: u64,
    /// Scalar puts to another PE's partition.
    pub remote_puts: u64,
    /// Words moved by block gets (any target). No substrate operation
    /// moves blocks, so this reads 0; it stays so the report shape is
    /// stable.
    pub block_get_words: u64,
    /// Words moved by block puts (any target); 0, like
    /// `block_get_words`.
    pub block_put_words: u64,
    /// Atomic memory operations. Only the C stub counts these (the
    /// AMOs its locks are built from); the threaded and simulated
    /// substrates report 0.
    pub amos: u64,
    /// Barrier episodes entered.
    pub barriers: u64,
    /// Blocking lock acquisitions.
    pub lock_acquires: u64,
    /// Trylock attempts (successful or not).
    pub lock_tries: u64,
    /// Lock releases.
    pub lock_releases: u64,
}

impl CommStats {
    /// Total one-sided scalar operations.
    pub fn scalar_ops(&self) -> u64 {
        self.local_gets + self.remote_gets + self.local_puts + self.remote_puts
    }

    /// Fraction of scalar traffic that crossed a partition boundary.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.scalar_ops();
        if total == 0 {
            0.0
        } else {
            (self.remote_gets + self.remote_puts) as f64 / total as f64
        }
    }

    /// Fold another PE's counts into this one (job-wide totals).
    pub fn absorb(&mut self, other: &CommStats) {
        self.local_gets += other.local_gets;
        self.remote_gets += other.remote_gets;
        self.local_puts += other.local_puts;
        self.remote_puts += other.remote_puts;
        self.block_get_words += other.block_get_words;
        self.block_put_words += other.block_put_words;
        self.amos += other.amos;
        self.barriers += other.barriers;
        self.lock_acquires += other.lock_acquires;
        self.lock_tries += other.lock_tries;
        self.lock_releases += other.lock_releases;
    }
}

impl std::ops::Add for CommStats {
    type Output = CommStats;
    fn add(mut self, rhs: CommStats) -> CommStats {
        self.absorb(&rhs);
        self
    }
}

impl std::iter::Sum for CommStats {
    fn sum<I: Iterator<Item = CommStats>>(iter: I) -> CommStats {
        iter.fold(CommStats::default(), |acc, s| acc + s)
    }
}

impl<'a> std::iter::Sum<&'a CommStats> for CommStats {
    fn sum<I: Iterator<Item = &'a CommStats>>(iter: I) -> CommStats {
        iter.fold(CommStats::default(), |mut acc, s| {
            acc.absorb(s);
            acc
        })
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gets {}/{} (local/remote), puts {}/{}, block words {}/{} (get/put), \
             amos {}, barriers {}, locks {}+{}t/{}r",
            self.local_gets,
            self.remote_gets,
            self.local_puts,
            self.remote_puts,
            self.block_get_words,
            self.block_put_words,
            self.amos,
            self.barriers,
            self.lock_acquires,
            self.lock_tries,
            self.lock_releases,
        )
    }
}

/// The live counters on a `Pe` (single-threaded cells).
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    pub local_gets: Cell<u64>,
    pub remote_gets: Cell<u64>,
    pub local_puts: Cell<u64>,
    pub remote_puts: Cell<u64>,
    pub barriers: Cell<u64>,
    pub lock_acquires: Cell<u64>,
    pub lock_tries: Cell<u64>,
    pub lock_releases: Cell<u64>,
}

impl StatCells {
    #[inline]
    pub(crate) fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            local_gets: self.local_gets.get(),
            remote_gets: self.remote_gets.get(),
            local_puts: self.local_puts.get(),
            remote_puts: self.remote_puts.get(),
            barriers: self.barriers.get(),
            lock_acquires: self.lock_acquires.get(),
            lock_tries: self.lock_tries.get(),
            lock_releases: self.lock_releases.get(),
            ..CommStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_helpers() {
        let cells = StatCells::default();
        StatCells::bump(&cells.local_gets);
        StatCells::bump(&cells.remote_gets);
        StatCells::bump(&cells.remote_gets);
        StatCells::bump(&cells.local_puts);
        let s = cells.snapshot();
        assert_eq!(s.local_gets, 1);
        assert_eq!(s.remote_gets, 2);
        assert_eq!(s.scalar_ops(), 4);
        assert!((s.remote_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_fraction_is_zero() {
        assert_eq!(CommStats::default().remote_fraction(), 0.0);
    }

    #[test]
    fn sum_aggregates_per_pe_counts() {
        let a = CommStats { local_gets: 2, remote_puts: 3, barriers: 1, ..Default::default() };
        let b = CommStats { local_gets: 5, amos: 7, barriers: 1, ..Default::default() };
        let total: CommStats = [a, b].iter().sum();
        assert_eq!(total.local_gets, 7);
        assert_eq!(total.remote_puts, 3);
        assert_eq!(total.amos, 7);
        assert_eq!(total.barriers, 2);
        assert_eq!(a + b, total);
    }

    #[test]
    fn display_is_compact_single_line() {
        let s = CommStats { local_gets: 5, barriers: 2, ..Default::default() };
        let txt = s.to_string();
        assert!(txt.contains("gets 5/0"));
        assert!(txt.contains("barriers 2"));
        assert!(!txt.contains('\n'));
    }
}
