//! Streams 5,000 generated AnghaBench-like functions through
//! `roll_corpus` under a deliberately tight 256 MiB memory budget, the way
//! `rolag-corpus --generate 5000 --mem-budget 256M` does, and holds the
//! whole-corpus report to its floors: something rolled and saved bytes,
//! no engine panic was rescued, every module parsed, and the process's
//! peak resident set stayed inside the budget.
//!
//! This file holds one test, so it runs in a process of its own and the
//! peak RSS it reads is this stream's alone. Debug builds roll the first
//! 500 functions of the same stream (about 100 functions per second
//! there); CI runs the full 5,000 in release.

use rolag::RolagOptions;
use rolag_frontend::corpus::{roll_corpus, CorpusItem, CorpusOptions};
use rolag_ir::printer::print_module;
use rolag_suites::angha::{stream, AnghaConfig};

#[test]
fn generated_corpus_rolls_within_a_256m_budget() {
    let functions = if cfg!(debug_assertions) { 500 } else { 5000 };
    let items = stream(&AnghaConfig {
        functions,
        ..AnghaConfig::default()
    })
    .enumerate()
    .map(|(i, (name, _, m))| {
        Ok(CorpusItem {
            origin: format!("angha/{i}/{name}.rir"),
            bytes: print_module(&m).into_bytes(),
        })
    });
    let copts = CorpusOptions {
        mem_budget: 256 << 20,
        ..CorpusOptions::default()
    };
    let r = roll_corpus(items, &RolagOptions::default(), &copts, |_, _| {})
        .expect("an in-memory corpus streams without IO errors");

    assert_eq!(r.items, functions as u64, "{r:?}");
    assert!(r.changed >= 1, "no function rolled: {r:?}");
    assert_eq!(r.stats.rescued, 0, "engine panics were rescued: {r:?}");
    assert_eq!(r.parse_failures, 0, "{:?}", r.diagnostics);
    assert!(r.bytes_saved() >= 1, "no bytes saved: {r:?}");
    assert!(
        0 < r.peak_rss_bytes && r.peak_rss_bytes <= copts.mem_budget,
        "peak RSS {} outside (0, {}]",
        r.peak_rss_bytes,
        copts.mem_budget
    );
}
