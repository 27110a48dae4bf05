//! Integration tests for the parallel memoizing module driver
//! (`rolag::roll_module_par`): on whole benchmark suites the driver must
//! produce byte-identical modules and identical statistics to the serial
//! pass for every worker count — and cached results must stay
//! behaviourally equivalent under the interpreter.

use rolag::{roll_module, roll_module_par, DriverOptions, RolagOptions, Workers};
use rolag_ir::interp::{check_equivalence, IValue, Interpreter};
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::Module;
use rolag_par::WorkerPool;
use rolag_prng::{check::run_cases, ChaCha8Rng, Rng, SeedableRng};
use rolag_suites::angha::{build_pattern, PatternKind};
use rolag_suites::tsvc::{all_kernels, build_kernel_module, build_suite_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// Rolls `module` serially and through the driver at several worker counts,
/// asserting byte-identical output and equal stats each time.
fn assert_parallel_matches_serial(module: &Module) {
    let opts = RolagOptions::default();
    let mut serial = module.clone();
    let serial_stats = roll_module(&mut serial, &opts);
    let serial_text = print_module(&serial);

    for jobs in [0usize, 2, 3] {
        let mut par = module.clone();
        let report = roll_module_par(&mut par, &opts, &DriverOptions::scoped(jobs));
        verify_module(&par).expect("driver output verifies");
        assert_eq!(
            print_module(&par),
            serial_text,
            "module bytes diverged (jobs={jobs})"
        );
        assert_eq!(report.stats, serial_stats, "stats diverged (jobs={jobs})");
    }
}

/// Deterministic per-signature arguments, mirroring `rolag-opt`'s
/// `--interp` defaults: 37 for integers, 1.5 for floats, the first
/// global's address for pointers.
fn default_args(module: &Module, entry: &str) -> Vec<IValue> {
    let Some(id) = module.func_by_name(entry) else {
        return Vec::new();
    };
    module
        .func(id)
        .param_tys()
        .iter()
        .map(|&ty| {
            if module.types.is_ptr(ty) {
                let interp = Interpreter::new(module);
                match module.global_ids().next() {
                    Some(g) => IValue::Ptr(interp.global_addr(g)),
                    None => IValue::Ptr(64),
                }
            } else if module.types.is_float(ty) {
                IValue::Float(1.5)
            } else {
                IValue::Int(37)
            }
        })
        .collect()
}

/// The whole TSVC suite in one module: the driver is bit-for-bit the
/// serial pass at every parallelism level.
#[test]
fn driver_matches_serial_on_tsvc_suite() {
    assert_parallel_matches_serial(&build_suite_module());
}

/// Each unrolled TSVC kernel is a module with one definition, which the
/// driver rolls in place without a store: under every worker source the
/// bytes and stats equal the serial pass's, and the report reads as a
/// one-worker roll through a context did (`changed` when the roll
/// committed or minted a global).
#[test]
fn lone_tsvc_definitions_match_serial_under_every_worker_source() {
    let opts = RolagOptions::default();
    let pool = WorkerPool::new(2);
    let (mut rolled, mut kernels) = (0, 0);
    for spec in all_kernels() {
        kernels += 1;
        let mut module = build_kernel_module(&spec);
        unroll_module(&mut module, 8);
        cse_module(&mut module);
        cleanup_module(&mut module);
        let mut serial = module.clone();
        let serial_stats = roll_module(&mut serial, &opts);
        let serial_text = print_module(&serial);
        let changed =
            usize::from(serial_stats.rolled > 0 || serial.num_globals() != module.num_globals());
        rolled += changed;
        for workers in [Workers::Scoped(1), Workers::Scoped(2), Workers::Pool(&pool)] {
            let mut par = module.clone();
            let driver = DriverOptions {
                workers,
                store: None,
            };
            let report = roll_module_par(&mut par, &opts, &driver);
            assert_eq!(print_module(&par), serial_text, "{}", spec.name);
            assert_eq!(report.stats, serial_stats, "{}", spec.name);
            assert_eq!(
                (
                    report.functions,
                    report.unique,
                    report.cache_hits,
                    report.changed,
                    report.store_hits,
                    report.store_misses,
                    report.jobs
                ),
                (1, 1, 0, changed, 0, 0, 1),
                "{}",
                spec.name
            );
        }
    }
    assert!(
        rolled > 0 && rolled < kernels,
        "{rolled} of {kernels} kernels rolled: both reports must occur"
    );
}

/// A multi-function AnghaBench-like module mixing every pattern family.
#[test]
fn driver_matches_serial_on_angha_module() {
    let mut m = Module::new("angha.multi");
    let mut rng = ChaCha8Rng::seed_from_u64(0x0501);
    let kinds = PatternKind::all();
    for i in 0..36 {
        build_pattern(&mut m, &mut rng, kinds[i % kinds.len()], i);
    }
    verify_module(&m).expect("generated module verifies");
    assert_parallel_matches_serial(&m);
}

/// Randomized cache-equivalence property: duplicate every function of a
/// random module under a fresh name, roll with memoization on (so the
/// duplicates are served from the structural-hash cache), and check each
/// entry point is observationally unchanged under the interpreter.
#[test]
fn memoized_duplicates_preserve_behaviour() {
    run_cases(
        "memoized_duplicates_preserve_behaviour",
        24,
        0x0502,
        |rng, _| {
            let mut m = Module::new("cache.prop");
            let kinds = PatternKind::all();
            let n = rng.gen_range(2usize..6);
            let mut names = Vec::new();
            for i in 0..n {
                let kind = kinds[rng.gen_range(0usize..kinds.len())];
                names.push(build_pattern(&mut m, rng, kind, i));
            }
            // Duplicate each definition under a new name; ids snapshot first so
            // the loop does not walk its own additions.
            let ids: Vec<_> = m.func_ids().collect();
            let mut dups = 0;
            for id in ids {
                if m.func(id).is_declaration {
                    continue;
                }
                let mut dup = m.func(id).clone();
                dup.name = format!("{}.copy", dup.name);
                names.push(dup.name.clone());
                m.add_func(dup);
                dups += 1;
            }
            verify_module(&m).expect("duplicated module verifies");

            let original = m.clone();
            let report =
                roll_module_par(&mut m, &RolagOptions::default(), &DriverOptions::scoped(2));
            verify_module(&m).expect("rolled module verifies");
            assert!(
                report.cache_hits >= dups as u64,
                "expected at least {dups} cache hits, got {}",
                report.cache_hits
            );

            for name in &names {
                let args = default_args(&original, name);
                check_equivalence(&original, &m, name, &args)
                    .unwrap_or_else(|e| panic!("@{name} changed behaviour: {e}"));
            }
        },
    );
}
