//! Conformance suite for the validator-gated beam search
//! (`rolag::search`). Two properties pin the search engine to the greedy
//! baseline:
//!
//! * **beam:1 is greedy.** A width-1 beam never reaches the beam engine
//!   (there is nothing to choose between), so `beam:1` must produce a
//!   byte-identical module and equal outcome statistics to the greedy
//!   pass on every corpus we have — TSVC kernels, the checked-in repro
//!   modules, and a 256-module generator sweep.
//! * **Wider beams never lose.** The beam engine runs the greedy trial
//!   first and only adopts a searched result that *measures strictly
//!   smaller*, so for every function the measured text bytes under
//!   `beam:k` are at most the greedy result's — per-function
//!   monotonicity, checked here for k = 2 and k = 4.
//!
//! On top of those two properties, `beam4_outputs_are_pinned` pins the
//! exact `beam:4` output and counters on three corpora, so an engine
//! refactor that is meant to be behaviour-neutral has to prove it.

use std::path::Path;

use rolag::{roll_module, RolagOptions, RolagStats, SearchConfig};
use rolag_difftest::generate_module;
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::Module;
use rolag_lower::measure_function;
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

fn beam(width: usize) -> RolagOptions {
    RolagOptions {
        search: SearchConfig::Beam {
            width,
            depth: SearchConfig::DEFAULT_DEPTH,
        },
        ..RolagOptions::default()
    }
}

/// Rolls `module` greedily and with `beam:1`; asserts byte- and
/// stats-identical results. Returns the greedy roll count.
fn assert_beam1_is_greedy(module: &Module, what: &str) -> u64 {
    let mut greedy = module.clone();
    let greedy_stats = roll_module(&mut greedy, &RolagOptions::default());

    let mut searched = module.clone();
    let searched_stats = roll_module(&mut searched, &beam(1));

    assert_eq!(
        print_module(&searched),
        print_module(&greedy),
        "{what}: beam:1 diverged from greedy"
    );
    assert_eq!(
        searched_stats, greedy_stats,
        "{what}: beam:1 stats diverged from greedy"
    );
    greedy_stats.rolled
}

/// Rolls `module` greedily and with `beam:width`; asserts the searched
/// result never measures more text bytes than greedy, function by
/// function. Returns `(greedy_rolls, searched_adopted)`.
fn assert_beam_is_monotonic(module: &Module, width: usize, what: &str) -> (u64, u64) {
    let mut greedy = module.clone();
    let greedy_stats = roll_module(&mut greedy, &RolagOptions::default());

    let mut searched = module.clone();
    let searched_stats = roll_module(&mut searched, &beam(width));

    for id in module.func_ids() {
        let name = &module.func(id).name;
        let g = greedy.func_by_name(name).expect("greedy keeps the func");
        let s = searched.func_by_name(name).expect("search keeps the func");
        let gb = measure_function(&greedy, greedy.func(g));
        let sb = measure_function(&searched, searched.func(s));
        assert!(
            sb <= gb,
            "{what}: beam:{width} grew @{name}: {sb} bytes vs greedy's {gb}"
        );
    }
    (greedy_stats.rolled, searched_stats.search.adopted)
}

fn repro_modules() -> Vec<(String, Module)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rir"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no repro modules in {}", dir.display());
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable repro");
            let module =
                parse_module(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
            (name, module)
        })
        .collect()
}

#[test]
fn beam1_matches_greedy_on_tsvc() {
    let mut rolled = 0u64;
    for spec in all_kernels() {
        let module = build_kernel_module(&spec);
        rolled += assert_beam1_is_greedy(&module, &format!("tsvc.{}", spec.name));
    }
    assert!(rolled >= 1, "no TSVC kernel rolled at all");
}

#[test]
fn beam1_matches_greedy_on_repros() {
    for (name, module) in repro_modules() {
        assert_beam1_is_greedy(&module, &name);
    }
}

#[test]
fn beam1_matches_greedy_on_generated_corpus() {
    let mut rolled = 0u64;
    for i in 0..256 {
        let module = generate_module(0, i);
        rolled += assert_beam1_is_greedy(&module, &format!("module (0,{i})"));
    }
    assert!(
        rolled >= 32,
        "corpus too tame: only {rolled} rolls across 256 modules"
    );
}

#[test]
fn wider_beams_never_grow_a_function_on_tsvc() {
    for width in [2, 4] {
        let mut rolled = 0u64;
        for spec in all_kernels() {
            let module = build_kernel_module(&spec);
            let (r, _) = assert_beam_is_monotonic(&module, width, &format!("tsvc.{}", spec.name));
            rolled += r;
        }
        assert!(rolled >= 1, "no TSVC kernel rolled at all");
    }
}

#[test]
fn wider_beams_never_grow_a_function_on_generated_corpus() {
    for width in [2, 4] {
        for i in 0..64 {
            let module = generate_module(3, i);
            assert_beam_is_monotonic(&module, width, &format!("module (3,{i})"));
        }
    }
}

/// The beam engine must actually explore: across the generated corpus a
/// width-4 beam must report explored candidates, and the poisoned-tail
/// shape (a runtime store appended to a constant run) must be *won* —
/// greedy misses the roll, the beam adopts one.
#[test]
fn beam_explores_and_wins_where_greedy_misses() {
    let text = r#"
module "tail"
global @a : [16 x i32] = zero
func @f(i32 %p0) -> void {
entry:
  %g0 = gep i32, @a, i64 0
  store i32 0, %g0
  %g1 = gep i32, @a, i64 1
  store i32 7, %g1
  %g2 = gep i32, @a, i64 2
  store i32 14, %g2
  %g3 = gep i32, @a, i64 3
  store i32 21, %g3
  %g4 = gep i32, @a, i64 4
  store i32 28, %g4
  %g5 = gep i32, @a, i64 5
  store i32 35, %g5
  %g6 = gep i32, @a, i64 6
  store i32 42, %g6
  %g7 = gep i32, @a, i64 7
  store i32 49, %g7
  %g8 = gep i32, @a, i64 8
  store %p0, %g8
  ret
}
"#;
    let module = parse_module(text).unwrap();

    let mut greedy = module.clone();
    let greedy_stats = roll_module(&mut greedy, &RolagOptions::default());
    assert_eq!(greedy_stats.rolled, 0, "fixture must defeat greedy");

    let mut searched = module.clone();
    let searched_stats = roll_module(&mut searched, &beam(4));
    assert_eq!(searched_stats.rolled, 1, "beam:4 must roll the fixture");
    assert_eq!(searched_stats.search.adopted, 1);
    assert!(searched_stats.search.explored > 1);

    let id = searched.func_by_name("f").unwrap();
    let gid = greedy.func_by_name("f").unwrap();
    assert!(
        measure_function(&searched, searched.func(id))
            < measure_function(&greedy, greedy.func(gid)),
        "the adopted roll must measure strictly smaller"
    );
}

/// The pinned `beam:4` result of one corpus: an FNV-1a-64 digest of the
/// printed modules (concatenated in corpus order) and the summed outcome
/// and search counters.
#[derive(Debug, PartialEq, Eq)]
struct BeamPin {
    corpus: &'static str,
    digest: u64,
    attempted: u64,
    rejected_lanes: u64,
    rejected_schedule: u64,
    rejected_profit: u64,
    tv_validated: u64,
    tv_rejected: u64,
    rolled: u64,
    nodes: u64,
    size_before: u64,
    size_after: u64,
    explored: u64,
    pruned: u64,
    search_tv_rejected: u64,
    adopted: u64,
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Rolls every module of a corpus with `beam:4` and summarises the result.
fn beam4_pin(corpus: &'static str, modules: impl IntoIterator<Item = Module>) -> BeamPin {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut s = RolagStats::default();
    for mut m in modules {
        s += roll_module(&mut m, &beam(4));
        fnv1a(&mut digest, print_module(&m).as_bytes());
    }
    BeamPin {
        corpus,
        digest,
        attempted: s.attempted,
        rejected_lanes: s.rejected_lanes,
        rejected_schedule: s.rejected_schedule,
        rejected_profit: s.rejected_profit,
        tv_validated: s.tv_validated,
        tv_rejected: s.tv_rejected,
        rolled: s.rolled,
        nodes: s.nodes.total(),
        size_before: s.size_before,
        size_after: s.size_after,
        explored: s.search.explored,
        pruned: s.search.pruned,
        search_tv_rejected: s.search.tv_rejected,
        adopted: s.search.adopted,
    }
}

/// Pins the `beam:4` output and counters on the 151 TSVC kernels
/// (unrolled x8, CSE'd and cleaned up, as the `tsvc-beam4` benchmark
/// workload feeds them), 128 AnghaBench-like functions (generator seed
/// `0x0a17_4a90`) and the 256-module generator sweep (seed 0). A change
/// to the engine that is meant to keep its decisions must leave this
/// table alone.
///
/// To regenerate after an intended behaviour change, run
/// `cargo test --release --test search_conformance beam4_outputs_are_pinned -- --nocapture`
/// and paste the printed table over `PINNED`.
#[test]
fn beam4_outputs_are_pinned() {
    let tsvc = all_kernels().into_iter().map(|spec| {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        m
    });
    let angha = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    })
    .map(|(_, _, m)| m);
    let generated = (0..256).map(|i| generate_module(0, i));
    let actual = [
        beam4_pin("tsvc", tsvc),
        beam4_pin("angha128", angha),
        beam4_pin("generated256", generated),
    ];
    println!("const PINNED: &[BeamPin] = &{actual:#?};");
    assert_eq!(actual.as_slice(), PINNED, "beam:4 output or counters moved");
}

const PINNED: &[BeamPin] = &[
    BeamPin {
        corpus: "tsvc",
        digest: 4496206065103095943,
        attempted: 495,
        rejected_lanes: 0,
        rejected_schedule: 310,
        rejected_profit: 34,
        tv_validated: 103,
        tv_rejected: 0,
        rolled: 136,
        nodes: 2056,
        size_before: 30116,
        size_after: 14843,
        explored: 967,
        pruned: 112,
        search_tv_rejected: 0,
        adopted: 27,
    },
    BeamPin {
        corpus: "angha128",
        digest: 3176075740459675357,
        attempted: 4622,
        rejected_lanes: 0,
        rejected_schedule: 4402,
        rejected_profit: 102,
        tv_validated: 7,
        tv_rejected: 0,
        rolled: 118,
        nodes: 830,
        size_before: 164617,
        size_after: 153044,
        explored: 8702,
        pruned: 49,
        search_tv_rejected: 0,
        adopted: 1,
    },
    BeamPin {
        corpus: "generated256",
        digest: 17285605686668699022,
        attempted: 560,
        rejected_lanes: 0,
        rejected_schedule: 12,
        rejected_profit: 296,
        tv_validated: 133,
        tv_rejected: 0,
        rolled: 244,
        nodes: 1389,
        size_before: 24313,
        size_after: 18199,
        explored: 1848,
        pruned: 59,
        search_tv_rejected: 0,
        adopted: 11,
    },
];
