//! Deterministic mutation sweep over the text parser.
//!
//! The parser reads untrusted text: `rolag-opt` inputs, serve requests and
//! corpus files. This sweep mutates the printed unrolled TSVC kernels and
//! 128 AnghaBench-like functions and feeds every mutant to
//! `parse_module`. The mutations are byte flips, truncation at every Nth
//! byte, token deletion and duplication, swapped lines, and non-ASCII
//! characters inside strings and right after `%`/`@` sigils; each random
//! mutant stacks one to three of them. Everything is drawn from a seeded
//! `rolag-prng` stream, so the set of mutants is fixed.
//!
//! Two properties are checked:
//!
//! * parsing never panics;
//! * the outcome of every mutant is pinned through one digest: the
//!   `encode_module` bytes when the mutant parses, `line:col:message`
//!   when it does not. The digest was recorded with the previous,
//!   token-vector parser, so a parser rewrite must accept, reject and
//!   locate exactly as it did.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::serialization::encode_module;
use rolag_prng::{ChaCha8Rng, Rng, SeedableRng};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

const SEED: u64 = 0x7a11_5eed;
/// Random mutants drawn per source text.
const MUTANTS_PER_TEXT: usize = 16;
/// Every source text is also truncated at every `TRUNCATE_EVERY`th byte.
const TRUNCATE_EVERY: usize = 401;
/// Characters inserted by the non-ASCII mutations: Latin-1, Greek, CJK,
/// an astral-plane emoji, a no-break space (Unicode whitespace) and a
/// combining mark.
const NON_ASCII: &[char] = &['é', 'ÿ', 'λ', '中', '💥', '\u{a0}', '\u{301}'];

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn sources() -> Vec<String> {
    let tsvc = all_kernels().into_iter().map(|spec| {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        print_module(&m)
    });
    let angha = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    })
    .map(|(_, _, m)| print_module(&m));
    tsvc.chain(angha).collect()
}

/// Byte spans of the text's tokens, roughly as the lexer sees them:
/// punctuation characters on their own, other non-space runs whole.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        let punct = "(){}[],:=".contains(c);
        if c.is_whitespace() || punct {
            if let Some(s) = start.take() {
                spans.push((s, i));
            }
            if punct {
                spans.push((i, i + 1));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    spans
}

/// Byte offsets at which each line starts, plus the end of the text.
fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    starts.extend(text.match_indices('\n').map(|(i, _)| i + 1));
    if *starts.last().unwrap() != text.len() {
        starts.push(text.len());
    }
    starts
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

/// Applies one random mutation in place.
fn mutate_once(rng: &mut ChaCha8Rng, text: &mut String) {
    let non_ascii = NON_ASCII[rng.gen_range(0..NON_ASCII.len())];
    match rng.gen_range(0u32..7) {
        // Flip one bit of an ASCII byte (stays ASCII, may become a
        // control character).
        0 => {
            if let Some(i) = pick(rng, text, |c| c.is_ascii()) {
                let bit = rng.gen_range(0u32..7);
                let flipped = (text.as_bytes()[i] ^ (1 << bit)) as char;
                text.replace_range(i..i + 1, flipped.encode_utf8(&mut [0; 4]));
            }
        }
        // Delete a token.
        1 => {
            let spans = token_spans(text);
            if !spans.is_empty() {
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                text.replace_range(s..e, "");
            }
        }
        // Duplicate a token.
        2 => {
            let spans = token_spans(text);
            if !spans.is_empty() {
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                let tok = text[s..e].to_string();
                let sep = if rng.gen_bool(0.5) { " " } else { "" };
                text.insert_str(e, &format!("{sep}{tok}"));
            }
        }
        // Swap two lines.
        3 => {
            let starts = line_starts(text);
            let lines = starts.len() - 1;
            if lines >= 2 {
                let a = rng.gen_range(0..lines);
                let b = rng.gen_range(0..lines);
                let (a, b) = (a.min(b), a.max(b));
                if a != b {
                    let la = text[starts[a]..starts[a + 1]].trim_end_matches('\n');
                    let lb = text[starts[b]..starts[b + 1]].trim_end_matches('\n');
                    let (la, lb) = (la.to_string(), lb.to_string());
                    text.replace_range(starts[b]..starts[b] + lb.len(), &la);
                    text.replace_range(starts[a]..starts[a] + la.len(), &lb);
                }
            }
        }
        // A non-ASCII character inside a string literal.
        4 => {
            if let Some(i) = pick(rng, text, |c| c == '"') {
                text.insert(i + 1, non_ascii);
            }
        }
        // A non-ASCII character right after a `%` or `@` sigil.
        5 => {
            if let Some(i) = pick(rng, text, |c| c == '%' || c == '@') {
                text.insert(i + 1, non_ascii);
            }
        }
        // A non-ASCII character anywhere.
        _ => {
            if let Some(i) = pick(rng, text, |_| true) {
                text.insert(i, non_ascii);
            }
        }
    }
}

/// Every mutant of `text`: the random ones, then the truncations.
fn mutants(rng: &mut ChaCha8Rng, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..MUTANTS_PER_TEXT {
        let mut m = text.to_string();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutate_once(rng, &mut m);
        }
        out.push(m);
    }
    let mut cut = TRUNCATE_EVERY;
    while cut < text.len() {
        if text.is_char_boundary(cut) {
            out.push(text[..cut].to_string());
        }
        cut += TRUNCATE_EVERY;
    }
    out
}

#[test]
fn mutated_texts_never_panic_and_outcomes_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut parsed, mut rejected) = (0usize, 0usize);
    let mut panics = Vec::new();
    for text in sources() {
        for mutant in mutants(&mut rng, &text) {
            match catch_unwind(AssertUnwindSafe(|| parse_module(&mutant))) {
                Ok(Ok(m)) => {
                    parsed += 1;
                    fnv1a(&mut digest, b"ok:");
                    fnv1a(&mut digest, &encode_module(&m));
                }
                Ok(Err(e)) => {
                    rejected += 1;
                    let line = format!("{}:{}:{}", e.line, e.col, e.message);
                    fnv1a(&mut digest, line.as_bytes());
                }
                Err(_) => panics.push(mutant),
            }
        }
    }
    assert!(
        panics.is_empty(),
        "parse_module panicked on {} mutants; first:\n{}",
        panics.len(),
        panics[0]
    );
    let actual = (parsed, rejected, digest);
    println!("const PINNED: (usize, usize, u64) = {actual:?};");
    assert_eq!(actual, PINNED, "parser outcomes on mutated text moved");
}

/// `(mutants parsed, mutants rejected, outcome digest)`.
const PINNED: (usize, usize, u64) = (453, 9006, 5170434148727723261);
