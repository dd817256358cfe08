//! Build-and-run driver for the C backend: the part of the paper's
//! `lcc code.lol -o executable.x && coprsh -np 16 ./executable.x`
//! workflow that happens *after* code generation.
//!
//! [`build`] writes the generated C and the stub header
//! ([`SHMEM_STUB_H`]) into a fresh temp directory, compiles it with
//! the system C compiler (probed **once** per process — [`cc`]) and
//! links it with the stub library ([`SHMEM_STUB_C`]). Like an
//! installed OpenSHMEM library, the stub library is compiled once per
//! process, and its object is linked into every program; the first
//! build compiles it alongside the program. The resulting [`CBinary`]
//! can then be [run][CBinary::run] any number of times across PE
//! counts, seeds, inputs, interconnect models and barrier/lock
//! algorithms. Each run talks to the stub over a small env protocol
//! (`LOL_STUB_NPES` / `LOL_STUB_SEED` / `LOL_STUB_OUT` /
//! `LOL_STUB_LATENCY` / `LOL_STUB_BARRIER` / `LOL_STUB_LOCK`) and
//! reads the per-PE outputs and operation counters back from capture
//! files, so a C-backend run reports the same per-PE shape as the
//! in-process engines.
//!
//! Everything here degrades cleanly: no compiler on the machine is
//! [`DriverError::NoCompiler`] (callers surface it as "unsupported",
//! not a failure), and a hung binary is killed at the caller's
//! deadline.

use crate::runtime::{SHMEM_STUB_C, SHMEM_STUB_H};
use lol_shmem::{BarrierKind, CommStats, LatencyModel, LockKind};
use lol_trace::{ClockMode, EventKind, PeTrace, TraceEvent};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The stub's hard PE-thread cap (`LOL_STUB_MAX_PES` in
/// [`SHMEM_STUB_H`]); callers should treat wider configs as
/// unsupported rather than spawn a binary that will refuse to start.
pub const MAX_PES: usize = 256;

/// The probed system C compiler.
#[derive(Debug, Clone)]
pub struct CcInfo {
    /// Invocable name or path (`cc`, `gcc`, `clang`, or `$LOL_CC`).
    pub path: String,
    /// First line of `--version` output.
    pub version: String,
}

/// Probe for a working C compiler, once per process. Honors `LOL_CC`,
/// then tries `cc`, `gcc`, `clang`. `None` means the C backend is
/// unsupported on this machine.
pub fn cc() -> Option<&'static CcInfo> {
    static PROBE: OnceLock<Option<CcInfo>> = OnceLock::new();
    PROBE
        .get_or_init(|| {
            let env = std::env::var("LOL_CC").ok();
            let candidates: Vec<&str> =
                env.as_deref().into_iter().chain(["cc", "gcc", "clang"]).collect();
            for cand in candidates {
                if let Ok(out) = Command::new(cand).arg("--version").output() {
                    if out.status.success() {
                        let version = String::from_utf8_lossy(&out.stdout)
                            .lines()
                            .next()
                            .unwrap_or("")
                            .to_string();
                        return Some(CcInfo { path: cand.to_string(), version });
                    }
                }
            }
            None
        })
        .as_ref()
}

/// Anything the build-and-run pipeline can fail with.
#[derive(Debug, Clone)]
pub enum DriverError {
    /// No usable C compiler on this machine (probe failed).
    NoCompiler,
    /// The C compiler rejected the generated translation unit or the
    /// stub library, or the link failed.
    Build(String),
    /// Filesystem / process-spawn trouble.
    Io(String),
    /// The binary outlived the caller's deadline and was killed.
    Timeout(Duration),
    /// The binary exited nonzero (a LOLCODE runtime fault, rendered on
    /// stderr by `lol_die`).
    Program {
        /// Exit code when the process exited normally.
        status: Option<i32>,
        /// Captured stderr (the `O NOES! [RUNxxxx]` message).
        stderr: String,
    },
    /// The binary exited zero but the capture files are missing or
    /// malformed — a stub/driver protocol bug, not a user error.
    Protocol(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NoCompiler => {
                write!(f, "NO C COMPILER ON DIS MACHINE (TRIED $LOL_CC, cc, gcc, clang)")
            }
            DriverError::Build(msg) => write!(f, "DA C COMPILER SEZ NO WAI:\n{msg}"),
            DriverError::Io(msg) => write!(f, "I/O HAZ A SAD: {msg}"),
            DriverError::Timeout(d) => write!(f, "DA BINARY RAN 2 LONG (> {d:?}) AN GOT KILLED"),
            DriverError::Program { status, stderr } => {
                write!(f, "DA BINARY EXITED {:?}: {}", status, stderr.trim())
            }
            DriverError::Protocol(msg) => write!(f, "STUB PROTOCOL HAZ A SAD: {msg}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// One execution request against a built binary.
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    /// Number of PE threads the stub spawns.
    pub n_pes: usize,
    /// Seed mixed into every PE's `WHATEVR` stream.
    pub seed: u64,
    /// `GIMMEH` input lines; every PE replays the same stream.
    pub input: &'a [String],
    /// Kill-and-report deadline for the whole SPMD job.
    pub timeout: Duration,
    /// Interconnect latency model the stub charges at its remote-access
    /// choke point (`LOL_STUB_LATENCY`; the model's canonical
    /// `Display` token crosses the process boundary).
    pub latency: LatencyModel,
    /// Barrier algorithm for `shmem_barrier_all` (`LOL_STUB_BARRIER`).
    pub barrier: BarrierKind,
    /// Lock algorithm for the Table II implicit locks (`LOL_STUB_LOCK`).
    pub lock: LockKind,
    /// Which clock the latency model charges (`LOL_STUB_CLOCK`):
    /// busy-waited wall time or the deterministic virtual clock, whose
    /// final per-PE values come back on the stats protocol.
    pub clock: ClockMode,
    /// Record communication events (`LOL_STUB_TRACE`); per-PE trace
    /// files are parsed back into [`CRunOutput::traces`].
    pub trace: bool,
}

impl Default for RunRequest<'_> {
    /// One PE, default seed/knobs, 30s watchdog — the base tests and
    /// sweeps override from.
    fn default() -> Self {
        RunRequest {
            n_pes: 1,
            seed: 0xC47_F00D,
            input: &[],
            timeout: Duration::from_secs(30),
            latency: LatencyModel::Off,
            barrier: BarrierKind::default(),
            lock: LockKind::default(),
            clock: ClockMode::default(),
            trace: false,
        }
    }
}

/// What one run of the binary produced (the C analog of a `RunReport`).
#[derive(Debug, Clone)]
pub struct CRunOutput {
    /// Per-PE `VISIBLE` output, in PE order.
    pub outputs: Vec<String>,
    /// Per-PE operation counts, in PE order. The stub counts scalar
    /// gets/puts (local vs remote), atomics and barriers; counters it
    /// has no instrumentation for stay zero.
    pub stats: Vec<CommStats>,
    /// Wall-clock time from spawn to exit.
    pub wall: Duration,
    /// The job's virtual wall (max final per-PE logical clock), when
    /// the request ran under [`ClockMode::Virtual`].
    pub virtual_ns: Option<u64>,
    /// Per-PE event streams parsed from the stub's trace files, when
    /// the request enabled tracing.
    pub traces: Option<Vec<PeTrace>>,
}

/// A compiled C-backend binary in its own temp directory; the
/// directory (sources, binary, per-run capture files) is removed on
/// drop. Safe to run concurrently — each run gets a private capture
/// prefix.
#[derive(Debug)]
pub struct CBinary {
    dir: PathBuf,
    bin: PathBuf,
    runs: AtomicU64,
}

impl Drop for CBinary {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The flags of every C compile. The stub library and each program
/// build with the same ones, so the two objects agree on feature
/// macros. `_POSIX_C_SOURCE` unhides clock_gettime/nanosleep under
/// `-std=c99`: the stub's latency models busy-wait on the monotonic
/// clock (and degrade to zero delay when the host genuinely lacks it).
const CFLAGS: [&str; 4] = ["-std=c99", "-D_POSIX_C_SOURCE=200809L", "-O1", "-pthread"];

/// Sequence numbers for [`fresh_dir`] names.
static SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(e: std::io::Error) -> DriverError {
    DriverError::Io(e.to_string())
}

/// Create a new directory `<tmp>/<prefix>-<pid>-<seq>`. A name that
/// already exists (a stale dir of a recycled pid, or one planted by
/// another user of a shared temp dir) is skipped, never reused.
fn fresh_dir(prefix: &str) -> Result<PathBuf, DriverError> {
    loop {
        let dir = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
}

/// Turn a finished `cc` into a result: a nonzero exit is the
/// compiler's complaint.
fn cc_result(out: std::io::Result<Output>) -> Result<(), DriverError> {
    let out = out.map_err(io_err)?;
    if out.status.success() {
        Ok(())
    } else {
        Err(DriverError::Build(String::from_utf8_lossy(&out.stderr).into_owned()))
    }
}

/// The object code of the stub library ([`SHMEM_STUB_C`]), compiled
/// with [`CFLAGS`] once per process. Callers that arrive during the
/// compile wait for it; a failed compile is returned, not cached, so
/// the next build retries.
fn stub_object(cc: &CcInfo) -> Result<Arc<[u8]>, DriverError> {
    static OBJECT: Mutex<Option<Arc<[u8]>>> = Mutex::new(None);
    let mut object = OBJECT.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(bytes) = &*object {
        return Ok(bytes.clone());
    }
    let dir = fresh_dir("lolstub")?;
    let compile = || {
        std::fs::write(dir.join("shmem.h"), SHMEM_STUB_H).map_err(io_err)?;
        std::fs::write(dir.join("shmem_stub.c"), SHMEM_STUB_C).map_err(io_err)?;
        #[cfg(test)]
        tests::STUB_COMPILES.fetch_add(1, Ordering::Relaxed);
        cc_result(
            Command::new(&cc.path)
                .args(CFLAGS)
                .arg("-c")
                .arg(dir.join("shmem_stub.c"))
                .arg("-o")
                .arg(dir.join("shmem_stub.o"))
                .output(),
        )?;
        std::fs::read(dir.join("shmem_stub.o")).map_err(io_err)
    };
    let built = compile();
    let _ = std::fs::remove_dir_all(&dir);
    let bytes: Arc<[u8]> = built?.into();
    *object = Some(bytes.clone());
    Ok(bytes)
}

/// Compile a generated translation unit and link it with the stub
/// library into a binary in a fresh directory of its own.
pub fn build(c_source: &str) -> Result<CBinary, DriverError> {
    let cc = cc().ok_or(DriverError::NoCompiler)?;
    let dir = fresh_dir("lolcc")?;
    match compile_and_link(cc, &dir, c_source) {
        Ok(bin) => Ok(CBinary { dir, bin, runs: AtomicU64::new(0) }),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

/// `cc -c prog.c`, then link it with the stub library's object, all
/// inside `dir`. The program's compile starts before the library is
/// asked for, so a process's first build compiles both side by side.
fn compile_and_link(cc: &CcInfo, dir: &Path, c_source: &str) -> Result<PathBuf, DriverError> {
    std::fs::write(dir.join("shmem.h"), SHMEM_STUB_H).map_err(io_err)?;
    std::fs::write(dir.join("prog.c"), c_source).map_err(io_err)?;
    let prog = Command::new(&cc.path)
        .args(CFLAGS)
        .arg("-I")
        .arg(dir)
        .arg("-c")
        .arg(dir.join("prog.c"))
        .arg("-o")
        .arg(dir.join("prog.o"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(io_err)?;
    let stub = stub_object(cc);
    cc_result(prog.wait_with_output())?;
    std::fs::write(dir.join("shmem_stub.o"), &*stub?).map_err(io_err)?;
    let bin = dir.join("prog");
    cc_result(
        Command::new(&cc.path)
            .args(CFLAGS)
            .arg(dir.join("prog.o"))
            .arg(dir.join("shmem_stub.o"))
            .arg("-lm")
            .arg("-o")
            .arg(&bin)
            .output(),
    )?;
    Ok(bin)
}

impl CBinary {
    /// Path of the compiled executable (inside the temp dir).
    pub fn path(&self) -> &std::path::Path {
        &self.bin
    }

    /// Execute the binary once and collect per-PE outputs and stats.
    pub fn run(&self, req: &RunRequest<'_>) -> Result<CRunOutput, DriverError> {
        let run_id = self.runs.fetch_add(1, Ordering::Relaxed);
        let out_dir = self.dir.join(format!("run{run_id}"));
        std::fs::create_dir_all(&out_dir).map_err(io_err)?;
        let prefix = out_dir.join("out");

        let mut child = Command::new(&self.bin)
            .env("LOL_STUB_NPES", req.n_pes.to_string())
            .env("LOL_STUB_SEED", req.seed.to_string())
            .env("LOL_STUB_OUT", &prefix)
            .env("LOL_STUB_LATENCY", req.latency.to_string())
            .env("LOL_STUB_BARRIER", req.barrier.to_string())
            .env("LOL_STUB_LOCK", req.lock.to_string())
            .env("LOL_STUB_CLOCK", req.clock.to_string())
            .env("LOL_STUB_TRACE", if req.trace { TRACE_CAP } else { "0" })
            .stdin(Stdio::piped())
            .stdout(Stdio::null()) // VISIBLE goes to the capture files
            .stderr(Stdio::piped())
            .spawn()
            .map_err(io_err)?;
        let t0 = Instant::now();
        {
            // Feed GIMMEH from a detached thread and close stdin so an
            // over-reading program sees EOF instead of blocking. The
            // thread matters: input larger than the OS pipe buffer
            // against a child that deadlocks before reading would
            // otherwise block *this* thread on write_all and keep the
            // timeout watchdog below from ever running. A dead child
            // (broken pipe) just ends the writer; the exit status
            // reports the failure.
            use std::io::Write as _;
            let mut stdin = child.stdin.take().expect("piped stdin");
            let mut text = req.input.join("\n");
            if !text.is_empty() {
                text.push('\n');
            }
            std::thread::spawn(move || {
                let _ = stdin.write_all(text.as_bytes());
            });
        }
        // Wake when the child exits rather than polling for it: a thread
        // drains stderr (so a chatty child never blocks on a full pipe)
        // and reports at EOF, which the child's exit brings about.
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pipe = child.stderr.take().expect("piped stderr");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            let _ = tx.send(text);
        });
        let stderr = rx.recv_timeout(req.timeout.saturating_sub(t0.elapsed())).ok();
        let mut status = None;
        if stderr.is_some() {
            // The pipe closes a moment before the exit status is ready.
            while status.is_none() && t0.elapsed() <= req.timeout {
                status = child.try_wait().map_err(io_err)?;
                if status.is_none() {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
        }
        let (Some(stderr), Some(status)) = (stderr, status) else {
            // Killing the child closes the pipe, so the reader ends too.
            let _ = child.kill();
            let _ = child.wait();
            reader.join().expect("the stderr reader does not panic");
            let _ = std::fs::remove_dir_all(&out_dir);
            return Err(DriverError::Timeout(req.timeout));
        };
        reader.join().expect("the stderr reader does not panic");
        let wall = t0.elapsed();
        if !status.success() {
            let _ = std::fs::remove_dir_all(&out_dir);
            return Err(DriverError::Program { status: status.code(), stderr });
        }

        let mut outputs = Vec::with_capacity(req.n_pes);
        for pe in 0..req.n_pes {
            let path = out_dir.join(format!("out.pe{pe}.out"));
            outputs.push(
                std::fs::read_to_string(&path).map_err(|e| {
                    DriverError::Protocol(format!("missing capture for PE {pe}: {e}"))
                })?,
            );
        }
        let stats_text = std::fs::read_to_string(out_dir.join("out.stats"))
            .map_err(|e| DriverError::Protocol(format!("missing stats file: {e}")))?;
        let (stats, vclocks) = parse_stats(&stats_text, req.n_pes)?;
        let virtual_ns =
            (req.clock == ClockMode::Virtual).then(|| vclocks.iter().copied().max().unwrap_or(0));
        let traces = if req.trace {
            let mut pes = Vec::with_capacity(req.n_pes);
            for pe in 0..req.n_pes {
                let path = out_dir.join(format!("out.pe{pe}.trace"));
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    DriverError::Protocol(format!("missing trace for PE {pe}: {e}"))
                })?;
                pes.push(parse_trace(&text, pe)?);
            }
            Some(pes)
        } else {
            None
        };
        let _ = std::fs::remove_dir_all(&out_dir);
        Ok(CRunOutput { outputs, stats, wall, virtual_ns, traces })
    }
}

/// Per-PE event cap the driver asks the stub for (`LOL_STUB_TRACE`);
/// matches the Rust substrate's default `trace_capacity`.
const TRACE_CAP: &str = "65536";

/// Parse one stub trace file: `<code> <peer> <addr> <bytes> <t_ns>`
/// event lines in issue order, then a `= <dropped> <end_ns>` trailer.
fn parse_trace(text: &str, pe: usize) -> Result<PeTrace, DriverError> {
    let bad = |line: &str| DriverError::Protocol(format!("bad trace line {line:?}"));
    let mut out = PeTrace::default();
    let mut sealed = false;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if sealed {
            return Err(DriverError::Protocol("trace data after trailer".to_string()));
        }
        match fields.as_slice() {
            ["=", dropped, end] => {
                out.dropped = dropped.parse().map_err(|_| bad(line))?;
                out.end_ns = end.parse().map_err(|_| bad(line))?;
                sealed = true;
            }
            [code, peer, addr, bytes, t_ns] => {
                let mut chars = code.chars();
                let (Some(c), None) = (chars.next(), chars.next()) else {
                    return Err(bad(line));
                };
                let kind = EventKind::from_code(c).ok_or_else(|| bad(line))?;
                out.events.push(TraceEvent {
                    kind,
                    pe: pe as u32,
                    peer: peer.parse().map_err(|_| bad(line))?,
                    addr: addr.parse().map_err(|_| bad(line))?,
                    bytes: bytes.parse().map_err(|_| bad(line))?,
                    seq: out.events.len() as u32,
                    t_ns: t_ns.parse().map_err(|_| bad(line))?,
                });
            }
            _ => return Err(bad(line)),
        }
    }
    if !sealed {
        return Err(DriverError::Protocol(format!("trace for PE {pe} has no trailer")));
    }
    Ok(out)
}

/// Parse the stub's stats file: one line per PE,
/// `pe local_gets remote_gets local_puts remote_puts amos barriers
/// [vclock_ns]` — the optional 8th column is the PE's final virtual
/// clock (0 under the wall clock; absent in legacy 7-column files).
fn parse_stats(text: &str, n_pes: usize) -> Result<(Vec<CommStats>, Vec<u64>), DriverError> {
    let mut out = vec![CommStats::default(); n_pes];
    let mut vclocks = vec![0u64; n_pes];
    let mut filled = vec![false; n_pes];
    for line in text.lines() {
        let fields: Vec<u64> = line
            .split_whitespace()
            .map(|f| f.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|e| DriverError::Protocol(format!("bad stats line {line:?}: {e}")))?;
        let (pe, local_gets, remote_gets, local_puts, remote_puts, amos, barriers, vclock) =
            match *fields.as_slice() {
                [a, b, c, d, e, f, g] => (a, b, c, d, e, f, g, 0),
                [a, b, c, d, e, f, g, v] => (a, b, c, d, e, f, g, v),
                _ => return Err(DriverError::Protocol(format!("bad stats line {line:?}"))),
            };
        let slot = out
            .get_mut(pe as usize)
            .ok_or_else(|| DriverError::Protocol(format!("stats for unknown PE {pe}")))?;
        if std::mem::replace(&mut filled[pe as usize], true) {
            return Err(DriverError::Protocol(format!("duplicate stats row for PE {pe}")));
        }
        *slot = CommStats {
            local_gets,
            remote_gets,
            local_puts,
            remote_puts,
            amos,
            barriers,
            ..CommStats::default()
        };
        vclocks[pe as usize] = vclock;
    }
    if let Some(pe) = filled.iter().position(|&f| !f) {
        return Err(DriverError::Protocol(format!("stats file has no row for PE {pe}")));
    }
    Ok((out, vclocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stub-library compiles so far: the library must compile once per
    /// process.
    pub(super) static STUB_COMPILES: AtomicU64 = AtomicU64::new(0);

    /// Held by every test that builds, so no other build takes a
    /// directory name while a test relies on which name comes next.
    fn building() -> std::sync::MutexGuard<'static, ()> {
        static BUILDS: Mutex<()> = Mutex::new(());
        BUILDS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn parse_stats_round_trip() {
        // Legacy 7-column rows parse with a zero virtual clock.
        let text = "0 1 2 3 4 5 6\n1 10 20 30 40 50 60\n";
        let (stats, vclocks) = parse_stats(text, 2).unwrap();
        assert_eq!(stats[0].local_gets, 1);
        assert_eq!(stats[0].barriers, 6);
        assert_eq!(stats[1].remote_puts, 40);
        assert_eq!(stats[1].amos, 50);
        assert_eq!(vclocks, vec![0, 0]);
        // 8-column rows carry the per-PE final virtual clock.
        let (_, vclocks) = parse_stats("0 1 2 3 4 5 6 777\n1 1 2 3 4 5 6 999\n", 2).unwrap();
        assert_eq!(vclocks, vec![777, 999]);
    }

    #[test]
    fn parse_stats_rejects_short_files_and_junk() {
        assert!(matches!(parse_stats("0 1 2 3 4 5 6\n", 2), Err(DriverError::Protocol(_))));
        assert!(matches!(parse_stats("0 1 2\n", 1), Err(DriverError::Protocol(_))));
        assert!(matches!(parse_stats("zero 1 2 3 4 5 6\n", 1), Err(DriverError::Protocol(_))));
        assert!(matches!(parse_stats("7 1 2 3 4 5 6\n", 1), Err(DriverError::Protocol(_))));
        // A duplicated PE row must not masquerade as full coverage.
        assert!(matches!(
            parse_stats("0 1 2 3 4 5 6\n0 9 9 9 9 9 9\n", 2),
            Err(DriverError::Protocol(_))
        ));
    }

    #[test]
    fn parse_trace_round_trip_and_rejects_junk() {
        let text = "P 1 3 8 150\nB 0 0 0 150\nb 0 0 0 300\n= 2 321\n";
        let pt = parse_trace(text, 0).unwrap();
        assert_eq!(pt.events.len(), 3);
        assert_eq!(pt.events[0].kind, EventKind::Put);
        assert_eq!(pt.events[0].peer, 1);
        assert_eq!(pt.events[0].addr, 3);
        assert_eq!(pt.events[0].bytes, 8);
        assert_eq!(pt.events[0].t_ns, 150);
        assert_eq!((pt.events[1].seq, pt.events[2].seq), (1, 2));
        assert_eq!(pt.dropped, 2);
        assert_eq!(pt.end_ns, 321);
        for junk in [
            "P 1 3 8\n= 0 0\n",     // short event line
            "? 1 3 8 150\n= 0 0\n", // unknown code
            "P 1 3 8 150\n",        // missing trailer
            "= 0 0\nP 1 3 8 150\n", // data after trailer
        ] {
            assert!(matches!(parse_trace(junk, 0), Err(DriverError::Protocol(_))), "{junk:?}");
        }
    }

    #[test]
    fn probe_is_cached_and_consistent() {
        // Two calls must agree (OnceLock) whatever the machine has.
        let a = cc().map(|c| c.path.clone());
        let b = cc().map(|c| c.path.clone());
        assert_eq!(a, b);
    }

    /// A program's generated C and its per-PE outputs on the VM.
    fn c_and_vm_outputs(src: &str, n_pes: usize) -> (String, Vec<String>) {
        let p = lol_parser::parse(src).expect_program(src);
        let a = lol_sema::analyze(&p);
        let c = crate::emit_c(&p, &a).expect("codegen");
        let module = lol_vm::compile(&p, &a).expect("vm compile");
        let cfg = lol_shmem::ShmemConfig::new(n_pes).timeout(Duration::from_secs(30));
        let want = lol_shmem::run_spmd(cfg, |pe| {
            lol_vm::run_on_pe(&module, pe, &[]).unwrap_or_else(|e| pe.fail(e.to_string()))
        })
        .expect("vm run");
        (c, want)
    }

    #[test]
    fn concurrent_builds_compile_the_stub_library_once() {
        if cc().is_none() {
            return;
        }
        let _building = building();
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let builders: Vec<_> = (0..4)
            .map(|i| {
                let start = start.clone();
                std::thread::spawn(move || {
                    let src = format!(
                        "HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nx R PRODUKT OF ME AN {i}\nHUGZ\n\
                         VISIBLE \"PROGRAM {i} PE \" ME \" HAS \" x\nKTHXBYE\n"
                    );
                    let (c, want) = c_and_vm_outputs(&src, 2);
                    start.wait();
                    let bin = build(&c).unwrap_or_else(|e| panic!("program {i}: {e}"));
                    let req = RunRequest { n_pes: 2, ..RunRequest::default() };
                    assert_eq!(bin.run(&req).expect("run").outputs, want, "program {i}");
                })
            })
            .collect();
        for b in builders {
            b.join().expect("builder thread");
        }
        assert_eq!(STUB_COMPILES.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn builds_skip_dirs_they_did_not_create() {
        if cc().is_none() {
            return;
        }
        /// Removes the planted dirs however the test ends.
        struct Planted(Vec<PathBuf>);
        impl Drop for Planted {
            fn drop(&mut self) {
                for dir in &self.0 {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
        let _building = building();
        // Plant the next few names, as a stale dir of a recycled pid or
        // another user of the temp dir would.
        let next = SEQ.load(Ordering::Relaxed);
        let name = |seq| std::env::temp_dir().join(format!("lolcc-{}-{seq}", std::process::id()));
        let planted = Planted((next..next + 8).map(name).collect());
        for dir in &planted.0 {
            std::fs::create_dir(dir).expect("plant a dir");
            std::fs::write(dir.join("prog.c"), "planted").expect("plant a file");
        }
        let (c, want) = c_and_vm_outputs("HAI 1.2\nVISIBLE \"HAI\"\nKTHXBYE\n", 1);
        let bin = build(&c).expect("build");
        assert_eq!(bin.dir, name(next + 8), "the first name past the planted ones");
        assert_eq!(bin.run(&RunRequest::default()).expect("run").outputs, want);
        for dir in &planted.0 {
            let entries = std::fs::read_dir(dir).expect("planted dir kept").count();
            assert_eq!(entries, 1, "{} gained files", dir.display());
            let text = std::fs::read_to_string(dir.join("prog.c")).expect("planted file kept");
            assert_eq!(text, "planted");
        }
    }

    #[test]
    fn a_chatty_stderr_does_not_stall_the_run() {
        if cc().is_none() {
            return;
        }
        let _building = building();
        // Far more than a pipe buffer of stderr, then a fault exit.
        let c = "#include <stdio.h>\nint main(void) {\n    int i;\n\
                 for (i = 0; i < 100000; i++) fputs(\"O NOES! [RUN0000]\\n\", stderr);\n\
                 return 3;\n}\n";
        let bin = build(c).expect("build");
        let req = RunRequest { timeout: Duration::from_secs(10), ..RunRequest::default() };
        match bin.run(&req) {
            Err(DriverError::Program { status: Some(3), stderr }) => {
                assert_eq!(stderr.len(), 18 * 100_000)
            }
            other => panic!("expected the fault with its whole stderr, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_lolcode_style() {
        assert!(DriverError::NoCompiler.to_string().contains("NO C COMPILER"));
        assert!(DriverError::Timeout(Duration::from_secs(3)).to_string().contains("KILLED"));
    }
}
