//! Compile-time cost of the two rolling passes over representative inputs:
//! how long RoLAG and the LLVM-style baseline take per function, plus the
//! parallel memoizing driver against the serial baseline on a whole module.

use rolag::{roll_module, roll_module_par, DriverOptions, RolagOptions};
use rolag_bench::harness::BenchGroup;
use rolag_reroll::reroll_module;
use rolag_suites::angha::{generate, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module, build_suite_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

fn tsvc_inputs(n: usize) -> Vec<rolag_ir::Module> {
    all_kernels()
        .iter()
        .take(n)
        .map(|spec| {
            let mut m = build_kernel_module(spec);
            unroll_module(&mut m, 8);
            cse_module(&mut m);
            cleanup_module(&mut m);
            m
        })
        .collect()
}

fn main() {
    let tsvc = tsvc_inputs(24);
    let mut group = BenchGroup::new("rolling_passes", 10);

    group.bench_batched(
        "rolag_tsvc24",
        || tsvc.clone(),
        |mut modules| {
            let opts = RolagOptions::default();
            for m in &mut modules {
                roll_module(m, &opts);
            }
        },
    );

    // The same inputs with per-rewrite translation validation on: the gap
    // against `rolag_tsvc24` is the static proof overhead.
    group.bench_batched(
        "rolag_tv_tsvc24",
        || tsvc.clone(),
        |mut modules| {
            let opts = RolagOptions::validated();
            for m in &mut modules {
                roll_module(m, &opts);
            }
        },
    );

    group.bench_batched(
        "llvm_reroll_tsvc24",
        || tsvc.clone(),
        |mut modules| {
            for m in &mut modules {
                reroll_module(m);
            }
        },
    );

    let corpus: Vec<rolag_ir::Module> = generate(&AnghaConfig {
        seed: 3,
        functions: 48,
    })
    .entries
    .into_iter()
    .map(|(_, _, m)| m)
    .collect();

    group.bench_batched(
        "rolag_angha48",
        || corpus.clone(),
        |mut modules| {
            let opts = RolagOptions::default();
            for m in &mut modules {
                roll_module(m, &opts);
            }
        },
    );

    // Whole-suite module, unrolled x8 so the pass has real work: serial
    // pass vs. the parallel memoizing driver.
    let mut suite = build_suite_module();
    unroll_module(&mut suite, 8);
    cse_module(&mut suite);
    cleanup_module(&mut suite);
    group.bench_batched(
        "driver_serial_suite",
        || suite.clone(),
        |mut m| roll_module(&mut m, &RolagOptions::default()),
    );
    for jobs in [2usize, 4] {
        group.bench_batched(
            &format!("driver_par{jobs}_suite"),
            || suite.clone(),
            |mut m| {
                roll_module_par(
                    &mut m,
                    &RolagOptions::default(),
                    &DriverOptions::scoped(jobs),
                )
            },
        );
    }

    // Memoization: the unrolled suite with every kernel duplicated 3x
    // under fresh names — the structural-duplicate population the cache
    // targets (75% hit rate).
    let mut dup_suite = suite.clone();
    let ids: Vec<_> = dup_suite.func_ids().collect();
    for k in 1..4 {
        for &id in &ids {
            if dup_suite.func(id).is_declaration {
                continue;
            }
            let mut f = dup_suite.func(id).clone();
            f.name = format!("{}.d{k}", f.name);
            dup_suite.add_func(f);
        }
    }
    group.bench_batched(
        "driver_memo_dup4",
        || dup_suite.clone(),
        |mut m| roll_module_par(&mut m, &RolagOptions::default(), &DriverOptions::scoped(1)),
    );

    group.finish();
}
