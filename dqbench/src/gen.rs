//! Seeded random Toffoli networks in the Deutsch-Jozsa layout.
//!
//! A network on `n` data qubits has the answer qubit at index `n`, prepared
//! in |−⟩, and the data register in |+…+⟩. Each round draws a permutation
//! of the data qubits and consumes it two at a time: every pair controls a
//! Toffoli onto the answer qubit (phase kickback), so data qubits are only
//! ever controls, as the dynamic transformation requires. Every round's
//! permutation is drawn before any gate is emitted, so the gate stream
//! never perturbs the draws. A final Hadamard layer closes the data
//! register. The text starts with comment headers naming the seed and the
//! qubit roles; the programs under test receive only this QASM (plus
//! `--answer n` / an `answer n` header).

use crate::stats::fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Toffoli rounds per network.
pub const ROUNDS: usize = 2;

/// The dynamic realisation scheme a template is run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Dynamic1,
    Dynamic2,
}

impl Scheme {
    /// The CLI and wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Dynamic1 => "dynamic1",
            Scheme::Dynamic2 => "dynamic2",
        }
    }

    /// The library value.
    pub fn to_dqc(self) -> dqc::DynamicScheme {
        match self {
            Scheme::Dynamic1 => dqc::DynamicScheme::Dynamic1,
            Scheme::Dynamic2 => dqc::DynamicScheme::Dynamic2,
        }
    }
}

/// One generated input: a network, the scheme it runs under and the seed
/// of its shot sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Stable name, the key of the golden digest.
    pub key: String,
    /// Data qubits; the answer qubit is index `data`.
    pub data: usize,
    pub scheme: Scheme,
    /// Seed of the network generator.
    pub net_seed: u64,
    /// Seed of the shot sampling (`--seed` / the `seed` header).
    pub shot_seed: u64,
    pub qasm: String,
}

/// FNV-1a over the parts' little-endian bytes, so template seeds are stable
/// across releases of this file and independent of the run seed.
pub fn mix(parts: &[u64]) -> u64 {
    fnv1a(parts.iter().flat_map(|p| p.to_le_bytes()))
}

/// The QASM text of the network on `data` data qubits drawn from `seed`.
pub fn toffoli_network(seed: u64, data: usize, rounds: usize) -> String {
    assert!(data >= 2, "a Toffoli network needs two controls");
    let mut rng = StdRng::seed_from_u64(seed);
    let orderings: Vec<Vec<usize>> = (0..rounds)
        .map(|_| {
            let mut order: Vec<usize> = (0..data).collect();
            for i in (1..data).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            order
        })
        .collect();
    let answer = data;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// dqbench toffoli network: seed={seed} data={data} rounds={rounds}"
    );
    let _ = writeln!(out, "// roles: data=0..{} answer={answer}", data - 1);
    out.push_str("OPENQASM 3.0;\ninclude \"stdgates.inc\";\n");
    let _ = writeln!(out, "qubit[{}] q;", data + 1);
    let _ = writeln!(out, "x q[{answer}];\nh q[{answer}];");
    for i in 0..data {
        let _ = writeln!(out, "h q[{i}];");
    }
    for order in &orderings {
        for pair in order.chunks_exact(2) {
            let _ = writeln!(out, "ccx q[{}], q[{}], q[{answer}];", pair[0], pair[1]);
        }
    }
    for i in 0..data {
        let _ = writeln!(out, "h q[{i}];");
    }
    out
}

/// Builds a template from its identity.
pub fn template(family: &str, data: usize, scheme: Scheme, index: u64) -> Template {
    let tag = mix(&family.bytes().map(u64::from).collect::<Vec<_>>());
    let net_seed = mix(&[tag, data as u64, index]);
    Template {
        key: format!("{family}/{data}/{}/{index}", scheme.name()),
        data,
        scheme,
        net_seed,
        shot_seed: mix(&[net_seed, 1]) % 1_000_000,
        qasm: toffoli_network(net_seed, data, ROUNDS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_bytes() {
        for data in [4, 7, 13] {
            assert_eq!(toffoli_network(42, data, 2), toffoli_network(42, data, 2));
        }
        assert_ne!(toffoli_network(42, 8, 2), toffoli_network(43, 8, 2));
        assert_eq!(
            template("design", 9, Scheme::Dynamic2, 3),
            template("design", 9, Scheme::Dynamic2, 3)
        );
    }

    #[test]
    fn networks_round_trip_through_the_qasm_importer() {
        for data in 4..=13 {
            let text = toffoli_network(mix(&[data as u64]), data, ROUNDS);
            let circuit = qcir::qasm::from_qasm(&text).expect("generated QASM parses");
            circuit.validate().expect("generated circuit is valid");
            assert_eq!(circuit.num_qubits(), data + 1);
            let again = qcir::qasm::from_qasm(&qcir::qasm::to_qasm(&circuit)).expect("re-parse");
            assert_eq!(again.content_hash(), circuit.content_hash());
        }
    }

    #[test]
    fn data_qubits_are_only_toffoli_controls() {
        let text = toffoli_network(5, 10, ROUNDS);
        let toffolis: Vec<&str> = text.lines().filter(|l| l.starts_with("ccx")).collect();
        assert_eq!(toffolis.len(), ROUNDS * 5);
        assert!(toffolis.iter().all(|l| l.ends_with("q[10];")));
    }
}
