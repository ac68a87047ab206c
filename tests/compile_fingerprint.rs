//! Pins `compile`'s output. For each (factor, r, sorter) case the test
//! hashes every round's operations, in order, together with the
//! program's certificate points, and compares the digest with a value
//! recorded from a known-good build. Any change to the emitted schedule —
//! an op reordered, a relay wave split differently, a round added —
//! changes the digest.
//!
//! The table is regenerated only when a change deliberately alters the
//! schedule: run
//! `cargo test --release --test compile_fingerprint -- --ignored --nocapture`
//! and paste the printed rows over `EXPECTED`.

use product_sort::graph::factories;
use product_sort::graph::Graph;
use product_sort::sim::bsp::{compile, CompiledProgram, Op};
use product_sort::sim::{OetSnakeSorter, Pg2Sorter, SorterChoice};

/// `(label, sorter name, rounds, ops, digest)`.
type Row = (&'static str, &'static str, usize, usize, u64);

const EXPECTED: &[Row] = &[
    ("k2^12", "hypercube-3step", 473, 931836, 0x3ddb104b7a7dd79a),
    ("k2^12", "oet-snake", 594, 931836, 0xe372c37d5221dcaa),
    (
        "petersen^3",
        "multiway-nsorter",
        2094,
        496600,
        0xa559e7276544e429,
    ),
    ("petersen^3", "oet-snake", 2814, 751400, 0x484ac56176071ebf),
    ("star(5)^3", "oet-snake", 794, 28675, 0x817ec80893daf6ec),
    ("path(8)^3", "shearsort", 226, 50624, 0x9c8ee44ec9c30e15),
    ("path(8)^3", "oet-snake", 258, 64960, 0xe0a5e5cc874fb569),
    ("complete(3)^3", "oet-snake", 38, 450, 0x4226b5ac6e5e9745),
    (
        "rand7s5^3",
        "multiway-nsorter",
        1105,
        100611,
        0x418cf4fcdc98e380,
    ),
    ("rand7s5^3", "oet-snake", 1885, 172207, 0xc97b03a5f9b10349),
];

/// The factors and dimension counts under test, with their labels.
fn cases() -> Vec<(&'static str, Graph, usize)> {
    vec![
        ("k2^12", factories::k2(), 12),
        ("petersen^3", factories::petersen(), 3),
        ("star(5)^3", factories::star(5), 3),
        ("path(8)^3", factories::path(8), 3),
        ("complete(3)^3", factories::complete(3), 3),
        ("rand7s5^3", factories::random_connected(7, 2, 5), 3),
    ]
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a program's rounds (each op with its round boundary) and
/// certificate points.
fn fingerprint(program: &CompiledProgram) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(program.rounds() as u64);
    for round in program.round_ops() {
        h.word(round.len() as u64);
        for op in round {
            match *op {
                Op::CompareExchange { a, b, min_to_a } => {
                    for w in [0, a, b, u64::from(min_to_a)] {
                        h.word(w);
                    }
                }
                Op::Move {
                    from,
                    to,
                    slot,
                    from_key,
                } => {
                    for w in [1, from, to, u64::from(slot), u64::from(from_key)] {
                        h.word(w);
                    }
                }
                Op::Resolve {
                    node,
                    slot,
                    keep_min,
                } => {
                    for w in [2, node, u64::from(slot), u64::from(keep_min)] {
                        h.word(w);
                    }
                }
            }
        }
    }
    h.word(program.cert_points().len() as u64);
    for c in program.cert_points() {
        h.word(c.round);
        h.word(u64::from(c.dims));
    }
    h.0
}

/// Compile every case with its auto-selected sorter and with the
/// paper's OET snake sorter (once, where auto-selection picks it).
fn measured() -> Vec<(String, String, usize, usize, u64)> {
    let mut rows = Vec::new();
    for (label, factor, r) in cases() {
        let sorters: [&dyn Pg2Sorter; 2] = [SorterChoice::Auto.resolve(&factor), &OetSnakeSorter];
        for (i, sorter) in sorters.into_iter().enumerate() {
            if i == 1 && sorters[0].name() == sorter.name() {
                continue;
            }
            let program = compile(&factor, r, sorter);
            rows.push((
                label.to_owned(),
                sorter.name().to_owned(),
                program.rounds(),
                program.op_count(),
                fingerprint(&program),
            ));
        }
    }
    rows
}

#[test]
fn compile_output_matches_pinned_fingerprints() {
    let rows = measured();
    assert_eq!(rows.len(), EXPECTED.len(), "one expected row per case");
    for (got, want) in rows.iter().zip(EXPECTED) {
        let want = (want.0.to_owned(), want.1.to_owned(), want.2, want.3, want.4);
        assert_eq!(
            *got, want,
            "compile output changed for {} / {}",
            got.0, got.1
        );
    }
}

#[test]
#[ignore = "prints the fingerprint table; run when a change deliberately alters the schedule"]
fn print_compile_fingerprints() {
    for (label, sorter, rounds, ops, digest) in measured() {
        println!("    (\"{label}\", \"{sorter}\", {rounds}, {ops}, {digest:#018x}),");
    }
}
