//! Serve determinism: a cache-served request must be byte-identical to a
//! cold roll.
//!
//! The server answers from two caches: a request-level layer keyed by
//! preset and module text, and the cross-request store keyed by each
//! function's closure key. The contract of both is that a cached answer is
//! indistinguishable from compiling fresh: same printed module, same
//! outcome statistics. These tests pin that contract end to end through
//! the service protocol — over the TSVC repro corpus and over a 128-module
//! generator sweep — by submitting every module cold, then again (served
//! by the request layer), then with its globals shifted (a different text
//! whose functions the store replays), and comparing each response against
//! a direct, store-less driver roll. Under eviction pressure, and through
//! a capacity-1 server, the contract holds across evict → re-insert
//! cycles; and no two presets or texts ever share a reply.

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

fn request_hit(doc: &Json) -> bool {
    doc.get("request")
        .and_then(|r| r.get("request_hit"))
        .and_then(Json::as_bool)
        .expect("missing request.request_hit")
}

/// Three requests per module. The cold request must equal a store-less
/// roll when nothing was cached for it. (It may itself hit entries seeded
/// by earlier modules — generated corpora contain cross-module duplicates
/// — which is fine: a hit is byte-identical by contract, which is exactly
/// what this checks.) The exact repeat must be a request hit that never
/// reaches the store, with the same bytes and the same outcome stats. The
/// [`with_leading_global`] twin is another text, so it reaches the driver,
/// and the store must replay every one of its functions into the shifted
/// global layout, byte-identical to a cold roll of the twin. Returns the
/// cold response for further assertions.
fn assert_replay_identical(server: &Server, tag: &str, text: &str, preset: &str) -> Json {
    let cold = roll_via(server, &format!("{tag}-cold"), text, preset);
    let warm = roll_via(server, &format!("{tag}-warm"), text, preset);

    assert!(!request_hit(&cold), "{tag}: first request of its text");
    assert!(
        request_hit(&warm),
        "{tag}: exact repeat must be a request hit"
    );
    assert_eq!(
        module_of(&cold),
        module_of(&warm),
        "{tag}: request-layer module diverged from the cold roll"
    );
    assert_eq!(
        cold.get("stats"),
        warm.get("stats"),
        "{tag}: outcome stats diverged between cold and repeat"
    );
    let functions = counter(&cold, "request", "functions");
    assert_eq!(counter(&warm, "request", "functions"), functions, "{tag}");
    assert_eq!(counter(&warm, "request", "store_hits"), 0.0, "{tag}");
    assert_eq!(counter(&warm, "request", "store_misses"), 0.0, "{tag}");

    let twin_text = with_leading_global(text);
    let twin = roll_via(server, &format!("{tag}-twin"), &twin_text, preset);
    assert!(!request_hit(&twin), "{tag}: the twin is another text");
    assert_eq!(counter(&twin, "request", "store_hits"), functions, "{tag}");
    assert_eq!(counter(&twin, "request", "store_misses"), 0.0, "{tag}");
    assert_eq!(
        module_of(&twin),
        direct_roll(&twin_text, &RolagOptions::preset(preset).unwrap()),
        "{tag}: store-served twin diverged from a cold roll"
    );
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
    // Every module was submitted three times: once cold, once answered by
    // the request layer, and once as a twin the store replays. So the
    // request layer served a third of the requests, and at least half of
    // all store lookups hit (more when the corpus duplicates across
    // modules).
    let snap = server.snapshot();
    assert_eq!(snap.requests, 3 * MODULES);
    assert_eq!(snap.request_hits, MODULES);
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

/// Eviction pressure: a 16-entry store and request layer, far smaller than
/// the working set, fed the 80 modules of [`mixed_corpus`] in three rounds
/// under the `validated` preset, so the clock hand sweeps every shard and
/// keys are evicted and re-inserted. No request repeats while its reply
/// is still cached, so every request reaches the driver. Each round submits every module and
/// then the same module with its globals one id later, so the second
/// request replays what the first inserted (and the store has not yet
/// evicted) into another global layout. Every response must equal a cold
/// store-less roll of its own text: a replayed, re-inserted entry is
/// indistinguishable from rolling fresh.
/// 80 modules: unrolled TSVC kernels, AnghaBench-like functions and
/// generated multi-function modules.
fn mixed_corpus() -> Vec<String> {
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
    modules
}

#[test]
fn eviction_pressure_replays_byte_identical() {
    let modules = mixed_corpus();
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

/// A capacity-1 server: the request layer and the store hold one entry
/// each, so every new request evicts the last one's reply and almost
/// every function entry. Each request of [`mixed_corpus`] and its twin is
/// sent twice in a row. The first must equal a cold roll; the second must
/// be a request hit with the same bytes and stats.
#[test]
fn every_request_replays_twice_through_a_capacity_one_server() {
    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 1,
    });
    let texts = mixed_corpus()
        .into_iter()
        .flat_map(|text| [with_leading_global(&text), text]);
    for (index, text) in texts.enumerate() {
        let first = roll_via(&server, &format!("c{index}-first"), &text, "default");
        let second = roll_via(&server, &format!("c{index}-second"), &text, "default");
        assert!(
            !request_hit(&first),
            "c{index}: the last reply was another text's"
        );
        assert!(
            request_hit(&second),
            "c{index}: the repeat must be a request hit"
        );
        assert_eq!(
            module_of(&first),
            direct_roll(&text, &RolagOptions::default()),
            "c{index}: served output diverged from a cold roll"
        );
        assert_eq!(module_of(&first), module_of(&second), "c{index}");
        assert_eq!(first.get("stats"), second.get("stats"), "c{index}");
    }
    let snap = server.snapshot();
    assert_eq!((snap.requests, snap.request_hits), (320, 160));
    assert_eq!(snap.store.entries, 1);
    assert!(snap.store.evictions > 0, "{:?}", snap.store);
}

/// A module whose one loop rolls only while its stored values stay an
/// arithmetic sequence.
const ROLLABLE: &str = r#"module "m"
global @a : [8 x i32] = zero
func @fill() -> void {
entry:
  %g0 = gep i32, @a, i64 0
  store i32 0, %g0
  %g1 = gep i32, @a, i64 1
  store i32 5, %g1
  %g2 = gep i32, @a, i64 2
  store i32 10, %g2
  %g3 = gep i32, @a, i64 3
  store i32 15, %g3
  ret
}
"#;

/// The request layer keys a reply by the preset and the whole text: one
/// text under every preset, and texts one byte apart, each get their own
/// reply, equal to their own cold roll. Afterwards each original is
/// answered from the layer with its own bytes.
#[test]
fn presets_and_texts_one_byte_apart_never_share_a_reply() {
    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 64,
    });
    let gen = rolag_difftest::gen::generate(0x0b1e_5a7e, 3);
    let texts = [
        ROLLABLE.to_string(),
        // One byte changed: the stores stop being a sequence.
        ROLLABLE.replacen("store i32 15", "store i32 16", 1),
        // One byte appended: the same module, another text.
        format!("{ROLLABLE}\n"),
        gen.clone(),
        format!("{gen}\n"),
    ];
    let mut answers = Vec::new();
    for (t, text) in texts.iter().enumerate() {
        for (preset, make) in RolagOptions::PRESETS {
            let id = format!("t{t}-{preset}");
            let served = roll_via(&server, &id, text, preset);
            assert!(!request_hit(&served), "{id} must not share a reply");
            let module = module_of(&served).to_string();
            assert_eq!(module, direct_roll(text, &make()), "{id}");
            answers.push((id, text, preset, module));
        }
    }
    let rolled = |t: usize| answers[t * RolagOptions::PRESETS.len()].3.clone();
    assert_ne!(rolled(0), rolled(1), "the one-byte change must show");
    assert!(rolled(0).contains("phi"), "ROLLABLE rolls");
    for (id, text, preset, module) in &answers {
        let again = roll_via(&server, &format!("{id}-again"), text, preset);
        assert!(request_hit(&again), "{id}");
        assert_eq!(module_of(&again), module, "{id}: another text's reply");
    }
    let snap = server.snapshot();
    assert_eq!(snap.request_hits, answers.len() as u64);
}
