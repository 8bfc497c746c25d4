//! Differential suite for the prefix-sharing branch-tree shot engine: over
//! the paper's benchmarks and every reuse width, the prefix engine must
//! reproduce the per-shot executor bit-for-bit — same counts, same memory
//! rows, same executor counters, same resilient run reports — at the same
//! seed and any thread count, with and without tree-eligible
//! (readout/reset) noise.

use dqc::{plan_with_scheme, CostModel, DynamicScheme, QubitRoles, ReuseMode, TransformOptions};
use qalgo::suites::{toffoli_free_suite, toffoli_suite};
use qalgo::{grover_circuit, optimal_iterations};
use qcir::Circuit;
use qsim::{Engine, Executor, NoiseModel};

/// BV, DJ, Toffoli (incl. CARRY) and Grover dynamic circuits across the
/// reuse design space: no reuse, the paper's single-lane scheme, and the
/// cost-model optimum.
fn suite_circuits() -> Vec<(String, Circuit)> {
    let mut sources: Vec<(String, Circuit, QubitRoles)> = toffoli_free_suite()
        .into_iter()
        .filter(|b| b.name == "BV_110" || b.name == "DJ_XOR")
        .chain(
            toffoli_suite()
                .into_iter()
                .filter(|b| b.name == "AND" || b.name == "CARRY"),
        )
        .map(|b| (b.name, b.circuit, b.roles))
        .collect();
    let grover = grover_circuit(0b101, 3, optimal_iterations(3));
    let roles = QubitRoles::data_plus_answer(grover.num_qubits());
    sources.push(("GROVER_3".to_string(), grover, roles));

    let mut out = Vec::new();
    for (name, circ, roles) in &sources {
        for (label, mode) in [
            ("off", ReuseMode::Off),
            ("1", ReuseMode::Width(1)),
            ("auto", ReuseMode::Auto),
        ] {
            let Ok((dynamic, _)) = plan_with_scheme(
                circ,
                roles,
                DynamicScheme::Dynamic2,
                mode,
                &CostModel::default(),
                &TransformOptions::default(),
            ) else {
                continue; // width infeasible for this benchmark
            };
            out.push((format!("{name}/reuse={label}"), dynamic.circuit().clone()));
        }
    }
    assert!(out.len() >= 12, "suite shrank to {} circuits", out.len());
    out
}

fn executor(engine: Engine, threads: usize, noise: &NoiseModel) -> Executor {
    Executor::new()
        .shots(99)
        .seed(0xD1FF)
        .threads(threads)
        .noise(noise.clone())
        .engine(engine)
}

fn assert_engines_agree(label: &str, circ: &Circuit, noise: &NoiseModel) {
    for threads in [1, 8] {
        let shots = executor(Engine::Shots, threads, noise);
        let prefix = executor(Engine::Prefix, threads, noise);
        assert_eq!(
            shots.run(circ),
            prefix.run(circ),
            "{label}: counts diverge at {threads} thread(s)"
        );
        assert_eq!(
            shots.run_memory(circ),
            prefix.run_memory(circ),
            "{label}: memory rows diverge at {threads} thread(s)"
        );
        // `run_resilient` is the entry point behind the CLI and the daemon,
        // and records prefix counts by its own chunk driver.
        assert_eq!(
            shots.run_resilient(circ),
            prefix.run_resilient(circ),
            "{label}: resilient counts or run report diverge at {threads} thread(s)"
        );
    }
}

#[test]
fn prefix_counts_match_per_shot_across_suite_and_reuse_widths() {
    let ideal = NoiseModel::ideal();
    for (label, circ) in suite_circuits() {
        assert_engines_agree(&label, &circ, &ideal);
    }
}

#[test]
fn prefix_counts_match_per_shot_under_readout_and_reset_noise() {
    let noise = NoiseModel {
        readout_flip: 0.25,
        reset_error: 0.125,
        ..NoiseModel::ideal()
    };
    for (label, circ) in suite_circuits() {
        assert_engines_agree(&label, &circ, &noise);
    }
}

#[test]
fn prefix_executor_counters_match_per_shot_on_carry() {
    let carry = toffoli_suite()
        .into_iter()
        .find(|b| b.name == "CARRY")
        .expect("CARRY is in the Table II suite");
    let (dynamic, _) = plan_with_scheme(
        &carry.circuit,
        &carry.roles,
        DynamicScheme::Dynamic2,
        ReuseMode::Width(1),
        &CostModel::default(),
        &TransformOptions::default(),
    )
    .expect("the paper's scheme transforms CARRY");
    let counters = |engine: Engine| {
        let obs = qobs::Observer::metrics_only();
        executor(engine, 4, &NoiseModel::ideal())
            .observer(obs.clone())
            .run(dynamic.circuit());
        let keys = [
            "executor.shots",
            "executor.resets",
            "executor.measurements",
            "executor.mid_circuit_measurements",
            "executor.cc_fired",
            "executor.cc_skipped",
            "executor.noise_injections",
        ];
        let m = obs.metrics();
        keys.map(|k| (k, m.counter(k)))
    };
    assert_eq!(counters(Engine::Shots), counters(Engine::Prefix));
}
