//! Deterministic mutation sweep over the serve protocol.
//!
//! `rolag-serve` reads untrusted request lines. This sweep renders valid
//! roll requests — unrolled TSVC kernels, AnghaBench-like functions and
//! generated modules, plus one request whose strings carry `\u` escapes
//! and surrogate pairs — mutates them, and feeds every mutant to
//! [`Server::handle_line`]. The mutations are byte flips, changed `\u`
//! hex digits, truncation at every Nth byte and inside every `\u` escape,
//! deleted quotes, nesting
//! deeper and shallower than the JSON depth cap, and duplicated keys; each
//! random mutant stacks one to three of them. Everything is drawn from a
//! seeded `rolag-prng` stream, so the set of mutants is fixed.
//!
//! Three properties are checked:
//!
//! * `handle_line` never panics;
//! * every reply is one well-formed JSON line: `"ok": true` with the
//!   rolled module and its stats (or the cumulative counters, when a
//!   mutation made the line a stats request), or `"ok": false` with an
//!   error string;
//! * the outcome of every mutant is pinned through one digest: the module
//!   and stats of an `ok` reply, the error text otherwise. Timings and
//!   cumulative counters are left out, so the digest does not depend on
//!   the machine or on what the caches held.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rolag_ir::printer::print_module;
use rolag_prng::{ChaCha8Rng, Rng, SeedableRng};
use rolag_serve::json::{parse, Json};
use rolag_serve::proto::Request;
use rolag_serve::{Server, ServerConfig};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

const SEED: u64 = 0x5e12_7e5e;
/// Random mutants drawn per source line.
const MUTANTS_PER_LINE: usize = 64;
/// Every source line is also truncated at every `TRUNCATE_EVERY`th byte.
const TRUNCATE_EVERY: usize = 211;

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn roll_line(id: &str, module: String, options: &str) -> String {
    Request::Roll {
        id: id.into(),
        module,
        options: options.into(),
        client: Some("sweep".into()),
    }
    .render()
}

/// Valid roll request lines.
fn sources() -> Vec<String> {
    let tsvc = all_kernels().into_iter().step_by(19).map(|spec| {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        print_module(&m)
    });
    let angha = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 6,
    })
    .map(|(_, _, m)| print_module(&m));
    let generated = (0..4).map(|index| rolag_difftest::gen::generate(SEED, index));
    let mut lines: Vec<String> = tsvc
        .chain(angha)
        .chain(generated)
        .enumerate()
        .map(|(i, text)| {
            let preset = ["default", "validated", "measured"][i % 3];
            roll_line(&format!("m{i}"), text, preset)
        })
        .collect();
    // Escaped control bytes in the id, an escaped slash and surrogate
    // pairs in the client label, `\u`-escaped letters in the module.
    lines.push(
        "{\"id\": \"u\\u0001\\u001f\\t\", \"client\": \"\\/\\ud83d\\udca5\\uD83D\\uDE00\", \
         \"options\": \"default\", \"module\": \"\\u006dodule \\\"u\\\"\\n\
         func @f() -> void {\\nentry:\\n  ret\\n}\\n\"}"
            .to_string(),
    );
    lines
}

/// A random byte position among those where `pred` holds, if any.
fn pick(rng: &mut ChaCha8Rng, text: &str, pred: impl Fn(char) -> bool) -> Option<usize> {
    let hits: Vec<usize> = text
        .char_indices()
        .filter(|&(_, c)| pred(c))
        .map(|(i, _)| i)
        .collect();
    (!hits.is_empty()).then(|| hits[rng.gen_range(0..hits.len())])
}

/// Members that may be duplicated, with a replacement value each.
const DUPLICATES: &[&str] = &[
    "\"id\": \"dup\"",
    "\"id\": 7",
    "\"options\": \"turbo\"",
    "\"options\": \"no-special\"",
    "\"module\": \"module \\\"d\\\"\\n\"",
    "\"module\": null",
    "\"cmd\": \"stats\"",
    "\"client\": [1, {\"k\": true}]",
];

/// Applies one random mutation in place.
fn mutate_once(rng: &mut ChaCha8Rng, line: &mut String) {
    match rng.gen_range(0u32..7) {
        // Flip one bit of an ASCII byte (stays ASCII, may become a
        // control character, a quote or a backslash).
        0 | 1 => {
            if let Some(i) = pick(rng, line, |c| c.is_ascii()) {
                let bit = rng.gen_range(0u32..7);
                let flipped = (line.as_bytes()[i] ^ (1 << bit)) as char;
                line.replace_range(i..i + 1, flipped.encode_utf8(&mut [0; 4]));
            }
        }
        // Replace one hex digit of a `\u` escape, which may unpair a
        // surrogate or make the digits invalid.
        2 => {
            let escapes: Vec<usize> = line.match_indices("\\u").map(|(i, _)| i).collect();
            if !escapes.is_empty() {
                let at = escapes[rng.gen_range(0..escapes.len())] + 2 + rng.gen_range(0..4usize);
                if line.is_char_boundary(at) && line.is_char_boundary(at + 1) {
                    let digit = b"0123456789abcdefABCDEFxg"[rng.gen_range(0..24usize)] as char;
                    line.replace_range(at..at + 1, digit.encode_utf8(&mut [0; 4]));
                }
            }
        }
        // Delete a quote.
        3 => {
            if let Some(i) = pick(rng, line, |c| c == '"') {
                line.remove(i);
            }
        }
        // Wrap a member's value, or the whole line, in nested arrays and
        // objects around the depth cap.
        4 => {
            let depth = [2, 255, 256, 257, 4096][rng.gen_range(0..5usize)];
            let (open, close) = if rng.gen_bool(0.5) {
                ("[", "]")
            } else {
                ("{\"k\": ", "}")
            };
            let at = match pick(rng, line, |c| c == ':') {
                Some(colon) if rng.gen_bool(0.75) => colon + 1,
                _ => 0,
            };
            let end = line[at..]
                .find([',', '}'])
                .map_or(line.len(), |e| at + e)
                .max(at);
            line.insert_str(end, &close.repeat(depth));
            line.insert_str(at, &open.repeat(depth));
        }
        // Duplicate a key: a member with a key the request already has,
        // just after its opening brace or just before its closing one.
        _ => {
            let member = DUPLICATES[rng.gen_range(0..DUPLICATES.len())];
            if rng.gen_bool(0.5) {
                if let Some(brace) = line.find('{') {
                    line.insert_str(brace + 1, &format!("{member}, "));
                }
            } else if let Some(brace) = line.rfind('}') {
                line.insert_str(brace, &format!(", {member}"));
            }
        }
    }
}

/// Every mutant of `line`: the random ones, then the truncations at every
/// `TRUNCATE_EVERY`th byte and at every byte inside a `\u` escape.
fn mutants(rng: &mut ChaCha8Rng, line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..MUTANTS_PER_LINE {
        let mut m = line.to_string();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutate_once(rng, &mut m);
        }
        out.push(m);
    }
    let mut cuts: Vec<usize> = (1..line.len() / TRUNCATE_EVERY + 1)
        .map(|k| k * TRUNCATE_EVERY)
        .collect();
    for (u, _) in line.match_indices("\\u") {
        cuts.extend(u + 1..u + 6);
    }
    for cut in cuts {
        if line.is_char_boundary(cut) {
            out.push(line[..cut].to_string());
        }
    }
    out
}

/// Checks that `reply` is one well-formed reply line and folds its outcome
/// into `digest`. Returns whether the request succeeded.
fn fold_reply(digest: &mut u64, reply: &str) -> Result<bool, String> {
    if reply.contains('\n') {
        return Err("reply spans more than one line".into());
    }
    let doc = parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("reply has no {key:?}"));
    match field("ok")?.as_bool() {
        // A duplicated `cmd` member turns a roll into a stats request.
        Some(true) if doc.get("module").is_none() => {
            field("cumulative")?
                .get("requests")
                .ok_or("bad cumulative")?;
            fnv1a(digest, b"stats");
            Ok(true)
        }
        Some(true) => {
            let module = field("module")?.as_str().ok_or("module is not a string")?;
            fnv1a(digest, b"ok:");
            fnv1a(digest, module.as_bytes());
            let stats = field("stats")?;
            for key in ["rolled", "attempted", "size_before", "size_after"] {
                let n = stats.get(key).and_then(Json::as_num).ok_or("bad stats")?;
                fnv1a(digest, &n.to_le_bytes());
            }
            Ok(true)
        }
        Some(false) => {
            let error = field("error")?.as_str().ok_or("error is not a string")?;
            fnv1a(digest, b"error:");
            fnv1a(digest, error.as_bytes());
            Ok(false)
        }
        None => Err("\"ok\" is not a boolean".into()),
    }
}

#[test]
fn mutated_requests_never_panic_and_outcomes_are_pinned() {
    let server = Server::new(&ServerConfig {
        jobs: 2,
        capacity: 64,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut ok, mut rejected) = (0usize, 0usize);
    let mut failures = Vec::new();
    for line in sources() {
        let (reply, _) = server.handle_line(&line);
        assert_eq!(
            fold_reply(&mut 0, &reply),
            Ok(true),
            "source fails: {reply}"
        );
        for mutant in mutants(&mut rng, &line) {
            let outcome = catch_unwind(AssertUnwindSafe(|| server.handle_line(&mutant).0))
                .map_err(|_| "handle_line panicked".to_string())
                .and_then(|reply| fold_reply(&mut digest, &reply));
            match outcome {
                Ok(true) => ok += 1,
                Ok(false) => rejected += 1,
                Err(e) => failures.push((e, mutant)),
            }
        }
    }
    if let Some((e, mutant)) = failures.first() {
        let head: String = mutant.chars().take(400).collect();
        panic!("{} mutants failed; first: {e}\n{head}", failures.len());
    }
    let actual = (ok, rejected, digest);
    println!("const PINNED: (usize, usize, u64) = {actual:?};");
    assert_eq!(actual, PINNED, "serve outcomes on mutated requests moved");
}

/// `(mutants answered ok, mutants rejected, outcome digest)`.
const PINNED: (usize, usize, u64) = (296, 1443, 6709958934835451615);
