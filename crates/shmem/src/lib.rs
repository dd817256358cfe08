//! # lol-shmem — an OpenSHMEM-style PGAS substrate on threads
//!
//! The paper runs parallel LOLCODE on OpenSHMEM over two machines: a
//! 16-core Adapteva Epiphany-III (Parallella board) and a Cray XC40.
//! Neither is available here, so this crate is the substitution
//! (docs/ARCHITECTURE.md, "The substrate"): processing elements (PEs)
//! are OS threads, and the partitioned global address space is a
//! per-PE **symmetric heap** of `AtomicU64` words.
//!
//! The API is the OpenSHMEM subset the paper's language extensions
//! compile to (its Tables I/II):
//!
//! * PE enumeration — [`Pe::id`], [`Pe::n_pes`] (`ME`, `MAH FRENZ`),
//! * symmetric allocation — [`Pe::shmalloc`] / [`Pe::shmalloc_lock`]
//!   (collective, like `shmem_malloc`),
//! * one-sided remote access — [`Pe::put_i64`]/[`Pe::get_i64`] and
//!   friends (`shmem_p`/`shmem_g`),
//! * synchronization — [`Pe::barrier_all`] (`HUGZ`) and global locks
//!   ([`Pe::lock`]/[`Pe::try_lock`]/[`Pe::unlock`] — `IM (SRSLY) MESIN
//!   WIF` / `DUN MESIN WIF`, like `shmem_set_lock`/`shmem_test_lock`/
//!   `shmem_clear_lock`),
//! * per-PE random streams — [`Pe::rand_i64`]/[`Pe::rand_f64`]
//!   (`WHATEVR`/`WHATEVAR`),
//! * introspection — [`Pe::stats`] and [`Pe::take_trace`].
//!
//! [`run_spmd`] launches a job; the [`Substrate`] trait is the
//! non-blocking view of the same contract that the resumable VM (and
//! the simulator's PEs) drive.
//!
//! ## Memory model
//!
//! All symmetric memory is word-granular atomic. Plain `put`/`get` use
//! `Relaxed` ordering — concurrent conflicting puts yield unspecified
//! *values*, exactly like unsynchronized OpenSHMEM puts, but never tear
//! and never produce undefined behaviour (the whole crate is
//! `#![forbid(unsafe_code)]`). Ordering is established only by the
//! synchronization operations: barriers and lock acquire/release edges,
//! mirroring how `shmem_barrier_all`/`shmem_set_lock` order memory.
//!
//! ## Fidelity knobs
//!
//! [`LatencyModel`] optionally charges every remote access a delay —
//! `Mesh2D` models the Epiphany eMesh (Manhattan-distance hops),
//! `Uniform` models a flat interconnect (Cray Aries analog). Barriers
//! and locks each come in two algorithms (see [`BarrierKind`],
//! [`LockKind`]) so sweeps and the benchmark can ablate the design
//! choices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod heap;
pub mod latency;
pub mod lock;
pub mod pad;
pub mod rng;
pub mod rules;
pub mod shard;
pub mod stats;
pub mod substrate;
pub mod world;

pub use barrier::BarrierKind;
pub use heap::SymAddr;
pub use latency::LatencyModel;
pub use lock::LockKind;
// Tracing/virtual-time vocabulary (defined in the leaf `lol-trace`
// crate; re-exported because `ShmemConfig` and `Pe` speak it).
pub use lol_trace::{ClockMode, EventKind, PeTrace, Trace, TraceBuffer, TraceEvent};
pub use stats::CommStats;
pub use substrate::{Progress, Substrate};
pub use world::{run_spmd, Pe, ShmemConfig, SpmdError, World};
