//! Seeded input generation. Every generated program, request mix and
//! run order depends on the command-line seed alone.

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the inputs
    /// of one part of a workload do not shift when another part draws
    /// more numbers.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffle `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

/// A lock-contention program: every PE takes the implicit lock of two
/// shared counters on PEs picked by a seeded rotation, many times, then
/// prints the totals. No corpus program takes a lock. The totals depend
/// only on the program text, so every barrier and lock algorithm, and
/// every engine, must print the same lines. The seed picks the rotation
/// and the increments but not the amount of work: every PE takes the
/// same number of locks, every other one remote, whatever the seed.
pub fn lock_program(seed: u64) -> String {
    let mut rng = Rng::new(seed, 0x10C6);
    let iters = 2000;
    let off = rng.range(0, 1 << 16);
    let (inc0, inc1) = (rng.range(1, 10), rng.range(1, 10));
    format!(
        "HAI 1.2
BTW generated lock-contention program (seed {seed})
WE HAS A c0 ITZ A NUMBR AN IM SHARIN IT
WE HAS A c1 ITZ A NUMBR AN IM SHARIN IT
I HAS A k ITZ 0
HUGZ
IM IN YR work UPPIN YR i TIL BOTH SAEM i AN {iters}
  k R MOD OF SUM OF ME AN SUM OF i AN {off} AN MAH FRENZ
  TXT MAH BFF k AN STUFF
    IM SRSLY MESIN WIF UR c0
    UR c0 R SUM OF UR c0 AN {inc0}
    DUN MESIN WIF UR c0
  TTYL
  k R MOD OF SUM OF ME AN 1 AN MAH FRENZ
  TXT MAH BFF k AN STUFF
    IM SRSLY MESIN WIF UR c1
    UR c1 R SUM OF UR c1 AN {inc1}
    DUN MESIN WIF UR c1
  TTYL
IM OUTTA YR work
HUGZ
VISIBLE \"PE \" ME \" C0 \" c0 \" C1 \" c1
KTHXBYE
"
    )
}

/// A fresh student program: a small seeded loop whose text, and so
/// whose artifact-cache key, differs for every `(seed, idx)`.
pub fn variant_program(seed: u64, idx: u64) -> String {
    let mut rng = Rng::new(seed ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D), 0x5A1A);
    let n = rng.range(20, 200);
    let (a, m) = (rng.range(1, 1000), rng.range(2, 50));
    format!(
        "HAI 1.2
BTW student variant {idx} (seed {seed})
I HAS A acc ITZ {a}
IM IN YR spin UPPIN YR i TIL BOTH SAEM i AN {n}
  acc R MOD OF SUM OF PRODUKT OF acc AN {m} AN i AN 1000003
IM OUTTA YR spin
VISIBLE \"V{idx} PE \" ME \" ACC \" acc
KTHXBYE
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        assert_eq!(lock_program(7), lock_program(7));
        assert_ne!(lock_program(7), lock_program(8));
        assert_eq!(variant_program(7, 3), variant_program(7, 3));
        assert_ne!(variant_program(7, 3), variant_program(7, 4));
        let (mut a, mut b) = (Rng::new(1, 2), Rng::new(1, 2));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
