//! Interconnect latency models.
//!
//! The paper demonstrates the same programs on a 16-core Epiphany-III
//! (a 2D mesh network-on-chip) and a Cray XC40 (Aries, essentially flat
//! latency at these scales). On a shared-memory host every "remote"
//! access costs the same, so to reproduce the *shape* of locality
//! effects the runtime can charge a configurable delay per remote
//! access. `Off` (the default) adds zero overhead.

use std::time::{Duration, Instant};

/// Largest accepted mesh/torus dimension. The sim backend tops out at
/// ~1M PEs, so a 2^24-wide grid is already absurd; the cap turns a
/// fat-fingered (or u64-overflowing) spec into a clear error on every
/// platform instead of a silently truncated grid on 32-bit targets.
pub const MAX_DIM: usize = 1 << 24;

/// How much a remote access costs, as a function of source/target PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LatencyModel {
    /// No artificial delay (pure shared-memory speed). Default.
    #[default]
    Off,
    /// Every remote access costs `remote_ns` (flat network — Cray
    /// Aries analog).
    Uniform {
        /// Cost of every remote access, in nanoseconds.
        remote_ns: u64,
    },
    /// 2D mesh NoC (Epiphany eMesh analog): PEs are laid out
    /// row-major on a `width`-wide grid; an access costs
    /// `base_ns + hops * hop_ns` where `hops` is Manhattan distance.
    ///
    /// `width` must be ≥ 1 — enforced by [`LatencyModel::validate`],
    /// which every config-construction path calls before a job runs.
    Mesh2D {
        /// Grid width (PEs per row, row-major layout).
        width: usize,
        /// Fixed cost of any remote access, in nanoseconds.
        base_ns: u64,
        /// Additional cost per mesh hop, in nanoseconds.
        hop_ns: u64,
    },
    /// 2D torus: like [`LatencyModel::Mesh2D`] but with wraparound
    /// links in both dimensions, so the worst-case hop count halves.
    /// PEs are laid out row-major on a `width × height` grid (PE ids
    /// beyond `width * height` wrap around in the vertical dimension).
    ///
    /// `width` and `height` must be ≥ 1 — enforced by
    /// [`LatencyModel::validate`].
    Torus2D {
        /// Grid width (PEs per row, row-major layout).
        width: usize,
        /// Grid height (rows before the vertical wraparound).
        height: usize,
        /// Fixed cost of any remote access, in nanoseconds.
        base_ns: u64,
        /// Additional cost per torus hop, in nanoseconds.
        hop_ns: u64,
    },
}

impl LatencyModel {
    /// Check the model's parameters. Config-construction paths
    /// ([`crate::ShmemConfig`] consumers, CLI/spec parsers) call this
    /// so a zero-width mesh is rejected up front with a proper error
    /// instead of being silently clamped per-access.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LatencyModel::Off | LatencyModel::Uniform { .. } => Ok(()),
            LatencyModel::Mesh2D { width, .. } => {
                if width == 0 {
                    Err("O NOES! [RUN0120] MESH WIDTH MUST BE AT LEAST 1, NOT 0".to_string())
                } else if width > MAX_DIM {
                    Err(format!("O NOES! [RUN0120] MESH WIDTH {width} IZ 2 BIG (MAX {MAX_DIM})"))
                } else {
                    Ok(())
                }
            }
            LatencyModel::Torus2D { width, height, .. } => {
                if width == 0 || height == 0 {
                    Err(format!(
                        "O NOES! [RUN0120] TORUS DIMENSHUNS MUST BE AT LEAST 1x1, NOT {width}x{height}"
                    ))
                } else if width > MAX_DIM || height > MAX_DIM {
                    Err(format!(
                        "O NOES! [RUN0120] TORUS DIMENSHUNS {width}x{height} R 2 BIG (MAX {MAX_DIM})"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Delay in nanoseconds for an access from `from` to `to`.
    ///
    /// Requires a valid model (see [`LatencyModel::validate`]); a
    /// zero-width grid panics here rather than silently degrading.
    #[inline]
    pub fn delay_ns(&self, from: usize, to: usize) -> u64 {
        if from == to {
            return 0;
        }
        match *self {
            LatencyModel::Off => 0,
            LatencyModel::Uniform { remote_ns } => remote_ns,
            LatencyModel::Mesh2D { width, base_ns, hop_ns } => {
                let (fx, fy) = (from % width, from / width);
                let (tx, ty) = (to % width, to / width);
                let hops = fx.abs_diff(tx) + fy.abs_diff(ty);
                base_ns + hops as u64 * hop_ns
            }
            LatencyModel::Torus2D { width, height, base_ns, hop_ns } => {
                let (fx, fy) = (from % width, (from / width) % height);
                let (tx, ty) = (to % width, (to / width) % height);
                let dx = fx.abs_diff(tx);
                let dy = fy.abs_diff(ty);
                let hops = dx.min(width - dx) + dy.min(height - dy);
                base_ns + hops as u64 * hop_ns
            }
        }
    }

    /// Busy-wait for the modelled delay (no syscalls; sub-microsecond
    /// delays need spinning, not sleeping).
    #[inline]
    pub fn charge(&self, from: usize, to: usize) {
        let ns = self.delay_ns(from, to);
        if ns == 0 {
            return;
        }
        let dur = Duration::from_nanos(ns);
        let t0 = Instant::now();
        while t0.elapsed() < dur {
            std::hint::spin_loop();
        }
    }

    /// The Epiphany-III configuration used by the paper's Parallella
    /// demos: 16 cores on a 4×4 mesh, ~11ns per hop relative to a
    /// cheap local access.
    pub fn epiphany16() -> Self {
        LatencyModel::Mesh2D { width: 4, base_ns: 50, hop_ns: 11 }
    }

    /// A flat "big machine" network (Cray XC40 analog): every remote
    /// access costs about a microsecond.
    pub fn xc40() -> Self {
        LatencyModel::Uniform { remote_ns: 1_000 }
    }

    /// A 4×4 torus with Epiphany-like per-hop costs — the "what if the
    /// eMesh had wraparound links" counterfactual for latency sweeps.
    pub fn torus16() -> Self {
        LatencyModel::Torus2D { width: 4, height: 4, base_ns: 50, hop_ns: 11 }
    }
}

/// Compact, round-trippable label: `off`, `flat:1000`, `mesh:4:50:11`,
/// `torus:4x4:50:11`; the `FromStr` impl parses the same forms.
impl std::fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LatencyModel::Off => write!(f, "off"),
            LatencyModel::Uniform { remote_ns } => write!(f, "flat:{remote_ns}"),
            LatencyModel::Mesh2D { width, base_ns, hop_ns } => {
                write!(f, "mesh:{width}:{base_ns}:{hop_ns}")
            }
            LatencyModel::Torus2D { width, height, base_ns, hop_ns } => {
                write!(f, "torus:{width}x{height}:{base_ns}:{hop_ns}")
            }
        }
    }
}

/// Parse a latency-model token (as used by `lolrun --latency` and
/// `--sweep "latency=..."`):
///
/// * `off`
/// * `flat` (Cray XC40 analog) or `flat:<remote_ns>`
/// * `mesh` (Epiphany-III 4×4) or `mesh:<width>[:<base_ns>:<hop_ns>]`
/// * `torus` (4×4) or `torus:<w>[x<h>][:<base_ns>:<hop_ns>]`
impl std::str::FromStr for LatencyModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bad = |what: &str| format!("O NOES! I DUNNO DIS LATENCY MODEL: {what}");
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let parse_u64 =
            |tok: &str| tok.parse::<u64>().map_err(|_| bad(&format!("{s} ({tok} NOT A NUMBR)")));
        // Grid dimensions become `usize` indices: convert checked, so a
        // value that doesn't fit the platform word is an error instead
        // of a silent `as` truncation to some small bogus grid.
        let parse_dim = |tok: &str| -> Result<usize, String> {
            let n = parse_u64(tok)?;
            usize::try_from(n).map_err(|_| bad(&format!("{s} ({tok} 2 BIG 4 DIS MACHINE)")))
        };
        let model = match head {
            "off" if rest.is_empty() => LatencyModel::Off,
            "flat" => match rest.as_slice() {
                [] => LatencyModel::xc40(),
                [ns] => LatencyModel::Uniform { remote_ns: parse_u64(ns)? },
                _ => return Err(bad(s)),
            },
            "mesh" => match rest.as_slice() {
                [] => LatencyModel::epiphany16(),
                [w] => LatencyModel::Mesh2D { width: parse_dim(w)?, base_ns: 50, hop_ns: 11 },
                [w, base, hop] => LatencyModel::Mesh2D {
                    width: parse_dim(w)?,
                    base_ns: parse_u64(base)?,
                    hop_ns: parse_u64(hop)?,
                },
                _ => return Err(bad(s)),
            },
            "torus" => {
                let dims = |tok: &str| -> Result<(usize, usize), String> {
                    match tok.split_once('x') {
                        Some((w, h)) => Ok((parse_dim(w)?, parse_dim(h)?)),
                        None => {
                            let w = parse_dim(tok)?;
                            Ok((w, w))
                        }
                    }
                };
                match rest.as_slice() {
                    [] => LatencyModel::torus16(),
                    [d] => {
                        let (width, height) = dims(d)?;
                        LatencyModel::Torus2D { width, height, base_ns: 50, hop_ns: 11 }
                    }
                    [d, base, hop] => {
                        let (width, height) = dims(d)?;
                        LatencyModel::Torus2D {
                            width,
                            height,
                            base_ns: parse_u64(base)?,
                            hop_ns: parse_u64(hop)?,
                        }
                    }
                    _ => return Err(bad(s)),
                }
            }
            _ => return Err(bad(s)),
        };
        model.validate()?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_access_is_free_in_every_model() {
        for m in [
            LatencyModel::Off,
            LatencyModel::Uniform { remote_ns: 500 },
            LatencyModel::epiphany16(),
            LatencyModel::torus16(),
        ] {
            assert_eq!(m.delay_ns(3, 3), 0);
        }
    }

    #[test]
    fn uniform_is_distance_independent() {
        let m = LatencyModel::Uniform { remote_ns: 700 };
        assert_eq!(m.delay_ns(0, 1), 700);
        assert_eq!(m.delay_ns(0, 15), 700);
    }

    #[test]
    fn mesh_charges_manhattan_distance() {
        let m = LatencyModel::Mesh2D { width: 4, base_ns: 50, hop_ns: 10 };
        // PE 0 = (0,0); PE 5 = (1,1): 2 hops.
        assert_eq!(m.delay_ns(0, 5), 50 + 2 * 10);
        // PE 0 -> PE 15 = (3,3): 6 hops.
        assert_eq!(m.delay_ns(0, 15), 50 + 6 * 10);
        // Neighbours: 1 hop.
        assert_eq!(m.delay_ns(0, 1), 50 + 10);
        // Symmetry.
        assert_eq!(m.delay_ns(15, 0), m.delay_ns(0, 15));
    }

    #[test]
    fn mesh_monotone_in_distance() {
        let m = LatencyModel::epiphany16();
        let d1 = m.delay_ns(0, 1);
        let d2 = m.delay_ns(0, 5);
        let d3 = m.delay_ns(0, 15);
        assert!(d1 < d2 && d2 < d3);
    }

    #[test]
    fn torus_wraps_both_dimensions() {
        let m = LatencyModel::Torus2D { width: 4, height: 4, base_ns: 50, hop_ns: 10 };
        // PE 0 = (0,0) -> PE 3 = (3,0): 1 hop via the wraparound link.
        assert_eq!(m.delay_ns(0, 3), 50 + 10);
        // PE 0 -> PE 12 = (0,3): 1 hop vertically.
        assert_eq!(m.delay_ns(0, 12), 50 + 10);
        // PE 0 -> PE 15 = (3,3): corner is 2 wrap hops.
        assert_eq!(m.delay_ns(0, 15), 50 + 2 * 10);
        // PE 0 -> PE 10 = (2,2): true middle, no shortcut (2+2 hops).
        assert_eq!(m.delay_ns(0, 10), 50 + 4 * 10);
        // Symmetry.
        assert_eq!(m.delay_ns(15, 0), m.delay_ns(0, 15));
    }

    #[test]
    fn torus_never_costs_more_than_mesh() {
        let mesh = LatencyModel::Mesh2D { width: 4, base_ns: 50, hop_ns: 11 };
        let torus = LatencyModel::Torus2D { width: 4, height: 4, base_ns: 50, hop_ns: 11 };
        for from in 0..16 {
            for to in 0..16 {
                assert!(
                    torus.delay_ns(from, to) <= mesh.delay_ns(from, to),
                    "torus beat by mesh for {from}->{to}"
                );
            }
        }
    }

    #[test]
    fn charge_actually_waits() {
        let m = LatencyModel::Uniform { remote_ns: 200_000 }; // 200µs
        let t0 = Instant::now();
        m.charge(0, 1);
        assert!(t0.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn off_charge_is_instant_path() {
        let m = LatencyModel::Off;
        m.charge(0, 1); // must not hang
        assert_eq!(m.delay_ns(0, 1), 0);
    }

    #[test]
    fn zero_width_is_rejected_not_clamped() {
        let m = LatencyModel::Mesh2D { width: 0, base_ns: 1, hop_ns: 1 };
        let err = m.validate().unwrap_err();
        assert!(err.contains("RUN0120"), "{err}");
        for m in [
            LatencyModel::Torus2D { width: 0, height: 4, base_ns: 1, hop_ns: 1 },
            LatencyModel::Torus2D { width: 4, height: 0, base_ns: 1, hop_ns: 1 },
        ] {
            assert!(m.validate().unwrap_err().contains("RUN0120"));
        }
        // Valid models pass.
        for m in [
            LatencyModel::Off,
            LatencyModel::xc40(),
            LatencyModel::epiphany16(),
            LatencyModel::torus16(),
        ] {
            m.validate().unwrap();
        }
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for m in [
            LatencyModel::Off,
            LatencyModel::Uniform { remote_ns: 1234 },
            LatencyModel::Mesh2D { width: 7, base_ns: 5, hop_ns: 3 },
            LatencyModel::Torus2D { width: 3, height: 5, base_ns: 9, hop_ns: 2 },
        ] {
            let label = m.to_string();
            assert_eq!(label.parse::<LatencyModel>().unwrap(), m, "{label}");
        }
    }

    #[test]
    fn from_str_accepts_shorthand_and_rejects_junk() {
        assert_eq!("off".parse::<LatencyModel>().unwrap(), LatencyModel::Off);
        assert_eq!("flat".parse::<LatencyModel>().unwrap(), LatencyModel::xc40());
        assert_eq!("mesh".parse::<LatencyModel>().unwrap(), LatencyModel::epiphany16());
        assert_eq!(
            "mesh:8".parse::<LatencyModel>().unwrap(),
            LatencyModel::Mesh2D { width: 8, base_ns: 50, hop_ns: 11 }
        );
        assert_eq!("torus".parse::<LatencyModel>().unwrap(), LatencyModel::torus16());
        assert_eq!(
            "torus:2x3:7:1".parse::<LatencyModel>().unwrap(),
            LatencyModel::Torus2D { width: 2, height: 3, base_ns: 7, hop_ns: 1 }
        );
        for junk in ["", "wat", "mesh:0", "torus:0x3", "flat:abc", "mesh:1:2", "off:1"] {
            assert!(junk.parse::<LatencyModel>().is_err(), "{junk} should be rejected");
        }
    }

    #[test]
    fn from_str_rejects_oversized_dimensions_instead_of_truncating() {
        // A u64 that wraps to a tiny width under `as usize` on 32-bit
        // targets (2^32 + 2 = 4294967298) and values past MAX_DIM must
        // all be hard errors — never a silently shrunken grid.
        for spec in [
            "mesh:4294967298",
            "mesh:18446744073709551615:1:1",
            "mesh:99999999999999999999999", // > u64::MAX: not a NUMBR at all
            "torus:4294967298x4",
            "torus:4x4294967298:1:1",
            "torus:16777217", // MAX_DIM + 1
        ] {
            let err = spec.parse::<LatencyModel>().unwrap_err();
            assert!(err.starts_with("O NOES!"), "{spec}: {err}");
        }
        // The cap itself is fine.
        let m = format!("mesh:{MAX_DIM}").parse::<LatencyModel>().unwrap();
        assert_eq!(m, LatencyModel::Mesh2D { width: MAX_DIM, base_ns: 50, hop_ns: 11 });
    }

    #[test]
    fn validate_rejects_oversized_grids() {
        assert!(LatencyModel::Mesh2D { width: MAX_DIM + 1, base_ns: 1, hop_ns: 1 }
            .validate()
            .is_err());
        assert!(LatencyModel::Torus2D { width: 2, height: MAX_DIM + 1, base_ns: 1, hop_ns: 1 }
            .validate()
            .is_err());
    }
}
