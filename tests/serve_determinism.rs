//! Serve determinism: a cache-served request must be byte-identical to a
//! cold roll.
//!
//! The cross-request store's whole contract is that replaying a cached
//! body is indistinguishable from compiling it fresh: same printed module,
//! same outcome statistics. These tests pin that contract end to end
//! through the service protocol — over the TSVC repro corpus and over a
//! 128-module generator sweep — by submitting every module twice to one
//! [`Server`] and comparing the second (store-served) response against
//! both the first response and a direct, store-less driver roll. Under
//! eviction pressure the contract holds across evict → re-insert cycles.

use rolag::{roll_module_par, DriverOptions, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_passes::{AnalysisManager, PassContext, PassManager, PassRegistry, TargetKind};
use rolag_serve::json::{parse, Json};
use rolag_serve::proto::Request;
use rolag_serve::{Server, ServerConfig};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// Submits `text` as a roll request and returns the parsed response
/// document. Panics on protocol- or request-level failure.
fn roll_via(server: &Server, id: &str, text: &str, options: &str) -> Json {
    let line = Request::Roll {
        id: id.into(),
        module: text.into(),
        options: options.into(),
        client: None,
    }
    .render();
    let (response, shutdown) = server.handle_line(&line);
    assert!(!shutdown);
    let doc = parse(&response).expect("well-formed response line");
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "request {id} failed: {:?}",
        doc.get("error")
    );
    doc
}

fn module_of(doc: &Json) -> &str {
    doc.get("module")
        .and_then(Json::as_str)
        .expect("success responses carry the module")
}

fn counter(doc: &Json, section: &str, key: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing {section}.{key}"))
}

/// The module as the driver itself would roll it cold, with no store —
/// the reference the service output must match byte for byte.
fn direct_roll(text: &str, opts: &RolagOptions) -> String {
    let mut module = parse_module(text).expect("corpus parses");
    roll_module_par(&mut module, opts, &DriverOptions::default());
    print_module(&module)
}

/// First request, repeat request: the repeat must be served entirely from
/// the store, with the same bytes and the same outcome stats. (The first
/// request may itself hit entries seeded by earlier modules — generated
/// corpora contain cross-module duplicates — which is fine: a hit is
/// byte-identical by contract, which is exactly what this checks.)
/// Returns the first response for further assertions.
fn assert_replay_identical(server: &Server, tag: &str, text: &str, preset: &str) -> Json {
    let cold = roll_via(server, &format!("{tag}-cold"), text, preset);
    let warm = roll_via(server, &format!("{tag}-warm"), text, preset);

    assert_eq!(
        module_of(&cold),
        module_of(&warm),
        "{tag}: store-served module diverged from the cold roll"
    );
    assert_eq!(
        cold.get("stats"),
        warm.get("stats"),
        "{tag}: outcome stats diverged between cold and replay"
    );

    let functions = counter(&cold, "request", "functions");
    assert_eq!(counter(&warm, "request", "store_hits"), functions, "{tag}");
    assert_eq!(counter(&warm, "request", "store_misses"), 0.0, "{tag}");
    cold
}

#[test]
fn tsvc_corpus_replays_byte_identical() {
    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 1024,
    });
    let text = print_module(&rolag_suites::tsvc::build_suite_module());
    let cold = assert_replay_identical(&server, "tsvc", &text, "default");

    // A fresh server with one corpus: the first request misses every
    // definition, and its output equals a direct, store-less driver roll.
    assert_eq!(counter(&cold, "request", "store_hits"), 0.0);
    assert_eq!(
        counter(&cold, "request", "store_misses"),
        counter(&cold, "request", "functions"),
    );
    assert_eq!(
        module_of(&cold),
        direct_roll(&text, &RolagOptions::default()),
        "service output diverged from a direct driver roll"
    );
}

#[test]
fn generator_sweep_replays_byte_identical() {
    const SEED: u64 = 0x0de7_e121;
    const MODULES: u64 = 128;
    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 4096,
    });
    for index in 0..MODULES {
        let text = rolag_difftest::gen::generate(SEED, index);
        assert_replay_identical(&server, &format!("gen-{index}"), &text, "default");
    }
    // Every module was submitted exactly twice, so at least half of all
    // store lookups hit (more when the corpus duplicates across modules).
    let snap = server.snapshot();
    assert_eq!(snap.requests, 2 * MODULES);
    assert_eq!(snap.errors, 0);
    assert!(
        snap.store.hit_rate() >= 0.5,
        "duplicated sweep must hit: {:?}",
        snap.store
    );
}

/// The replay contract holds under the expensive presets too — a store
/// hit must reproduce the translation-validated output and its verdict
/// counters, not just the default pipeline's.
#[test]
fn validated_preset_replays_byte_identical() {
    const SEED: u64 = 0x7a11_da7e;
    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 256,
    });
    for index in 0..8 {
        let text = rolag_difftest::gen::generate(SEED, index);
        let tag = format!("tv-{index}");
        assert_replay_identical(&server, &tag, &text, "validated");
        let cold = roll_via(&server, &format!("{tag}-ref"), &text, "validated");
        assert_eq!(
            module_of(&cold),
            direct_roll(&text, &RolagOptions::validated()),
            "{tag}: validated service output diverged from a direct roll"
        );
    }
}

/// `text` with one unused global declared ahead of the module's own, so
/// every global id shifts by one while every store key stays the same: a
/// hit across the two layouts must remap each global its body references.
fn with_leading_global(text: &str) -> String {
    let (header, body) = text.split_once('\n').expect("a module header line");
    format!("{header}\nglobal @layout.pad : i32 = zero\n{body}")
}

/// Eviction pressure: a 16-entry store, far smaller than the working set,
/// fed 80 modules in three rounds under the `validated` preset, so the
/// clock hand sweeps every shard and keys are evicted and re-inserted.
/// The modules are unrolled TSVC kernels, AnghaBench-like functions and
/// generated multi-function modules. Each round submits every module and
/// then the same module with its globals one id later, so the second
/// request replays what the first inserted (and the store has not yet
/// evicted) into another global layout. Every response must equal a cold
/// store-less roll of its own text: a replayed, re-inserted entry is
/// indistinguishable from rolling fresh.
#[test]
fn eviction_pressure_replays_byte_identical() {
    let mut modules = Vec::new();
    for spec in all_kernels().iter().take(24) {
        let mut m = build_kernel_module(spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        modules.push(print_module(&m));
    }
    let angha = stream(&AnghaConfig {
        seed: 0x5e7e,
        functions: 40,
    });
    modules.extend(angha.map(|(_, _, m)| print_module(&m)));
    modules.extend((0..16).map(|index| rolag_difftest::gen::generate(0x7a11_da7e, index)));
    let requests: Vec<(String, String)> = modules
        .iter()
        .flat_map(|text| [text.clone(), with_leading_global(text)])
        .map(|text| {
            let cold = direct_roll(&text, &RolagOptions::validated());
            (text, cold)
        })
        .collect();

    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 16,
    });
    for round in 1..=3 {
        for (index, (text, cold)) in requests.iter().enumerate() {
            let id = format!("r{round}-{index}");
            let served = roll_via(&server, &id, text, "validated");
            assert_eq!(
                module_of(&served),
                cold,
                "{id}: served output diverged from a cold roll"
            );
        }
    }
    let snap = server.snapshot();
    assert!(
        snap.store.evictions > 0,
        "capacity 16 must evict under a {}-module working set: {:?}",
        modules.len(),
        snap.store
    );
    assert!(snap.store.hits > 0, "{:?}", snap.store);
}

/// Serve and the pass registry share one preset vocabulary: for every
/// preset, a service request prints the same bytes as the registry's
/// `rolag<preset>` pass run locally.
#[test]
fn every_preset_matches_its_registry_spelling() {
    const SEED: u64 = 0x9e5e_7005;
    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 256,
    });
    let texts: Vec<String> = (0..6)
        .map(|index| rolag_difftest::gen::generate(SEED, index))
        .collect();
    for (preset, _) in RolagOptions::PRESETS {
        let spec = format!("rolag<{preset}>");
        for (index, text) in texts.iter().enumerate() {
            let served = roll_via(&server, &format!("{preset}-{index}"), text, preset);
            let mut module = parse_module(text).expect("corpus parses");
            let mut pm = PassManager::new();
            pm.add_all(PassRegistry::builtin().parse_pipeline(&spec).unwrap());
            pm.run(
                &mut module,
                &mut AnalysisManager::new(),
                &mut PassContext::new(TargetKind::default()),
            )
            .expect("registry pipeline verifies");
            assert_eq!(
                module_of(&served),
                print_module(&module),
                "{spec}: service output diverged from the registry pass on module {index}"
            );
        }
    }
}
