//! Seeded inputs and the output check.
//!
//! Everything random in a run — keys, lane mixes, the fault-plan seed —
//! comes from [`Rng`] streams derived from the `--seed` argument, so the
//! same seed gives the same inputs.

use pns_order::Shape;
use pns_simulator::netsort::{is_snake_sorted, read_snake_order};
use pns_simulator::verify::snake_positions;

/// SplitMix64: small, fast, and good enough for benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of seed `seed`; distinct streams are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` uniform keys.
    pub fn keys(&mut self, len: usize) -> Vec<u64> {
        (0..len).map(|_| self.next_u64()).collect()
    }
}

/// The library lane mix: lanes `0, 1 (mod 4)` are uniform, lane
/// `2 (mod 4)` is already snake-sorted, lane `3 (mod 4)` draws from
/// four distinct values.
pub fn mixed_lane(rng: &mut Rng, shape: Shape, lane: usize) -> Vec<u64> {
    let len = usize::try_from(shape.len()).expect("shape fits in memory");
    match lane % 4 {
        2 => {
            let mut sorted = rng.keys(len);
            sorted.sort_unstable();
            snake_positions(shape)
                .into_iter()
                .map(|pos| sorted[usize::try_from(pos).expect("position < len")])
                .collect()
        }
        3 => {
            let values = [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ];
            #[allow(clippy::cast_possible_truncation)]
            (0..len)
                .map(|_| values[(rng.next_u64() >> 62) as usize])
                .collect()
        }
        _ => rng.keys(len),
    }
}

/// What a correct reply to `sent` reads in snake order.
pub fn expected(sent: &[u64]) -> Vec<u64> {
    let mut sorted = sent.to_vec();
    sorted.sort_unstable();
    sorted
}

/// `reply` is snake-sorted and a permutation of the keys sent, whose
/// sorted form is `expected`.
pub fn is_correct(shape: Shape, expected: &[u64], reply: &[u64]) -> bool {
    reply.len() == expected.len()
        && is_snake_sorted(shape, reply)
        && read_snake_order(shape, reply) == expected
}
