//! Section VI.A — initialization, symmetric memory allocation and the
//! circular (ring) whole-array transfer: every PE copies its right
//! neighbour's symmetric array with a single predicated assignment,
//! `TXT MAH BFF next_pe, MAH mine R UR array`.
//!
//! ```text
//! cargo run --release --example ring [n_pes]
//! ```

use icanhas::prelude::*;

fn main() {
    let n_pes: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);

    println!("ring transfer on {n_pes} PEs (paper Section VI.A)\n");
    let artifact = compile(corpus::RING_EXAMPLE).expect("compile failed");
    let report =
        engine_for(Backend::Interp).run(&artifact, &RunConfig::new(n_pes)).expect("run failed");
    for out in &report.outputs {
        print!("{out}");
    }

    // Verify the ring: PE p must have received PE (p+1)%n's data.
    for (pe, out) in report.outputs.iter().enumerate() {
        let next = (pe + 1) % n_pes;
        let want = format!("PE {pe} GOT {} .. {}\n", next * 1000, next * 1000 + 31);
        assert_eq!(out, &want, "ring broken at PE {pe}");
    }

    // The report counts the copy's traffic: each PE pulls its
    // neighbour's 32 words.
    let total = report.total_stats();
    println!(
        "\nremote words copied: {} ({} per PE)",
        total.remote_gets,
        total.remote_gets / n_pes as u64
    );
    println!("ring verified: each PE holds its neighbour's 32 NUMBRs — KTHXBYE");
}
