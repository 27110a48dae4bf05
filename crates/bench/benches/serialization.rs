//! Module load-time benchmark: the compact binary format
//! (`rolag_ir::serialization`) against the textual parser on the TSVC
//! suite and a large synthetic program, plus the textual printer that
//! every memo key, store key and emitted module goes through.
//!
//! Besides the min/median/mean table this bench writes
//! `BENCH_serialization.json` at the repository root: per-format mean
//! load nanoseconds, the decode speedup over text parsing, and size
//! metrics (total bytes and bytes per function for each format).

use std::fmt::Write as _;
use std::path::Path;

use rolag_bench::harness::{BenchGroup, Measurement};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::serialization::{decode_module, encode_module};
use rolag_ir::Module;
use rolag_suites::programs::{build_program, ProgramSpec};
use rolag_suites::tsvc::build_suite_module;

struct Corpus {
    label: &'static str,
    module: Module,
}

fn corpus() -> Vec<Corpus> {
    let spec = ProgramSpec {
        suite: "bench",
        name: "serialization-input",
        size_kb: 64.0,
        rolled_loops: 16,
        marginal: 0.3,
    };
    vec![
        Corpus {
            label: "tsvc",
            module: build_suite_module(),
        },
        Corpus {
            label: "program64kb",
            module: build_program(&spec, 7, 1.0),
        },
    ]
}

fn mean_ns(m: &Measurement) -> u128 {
    m.mean().as_nanos()
}

fn bench_json(m: &Measurement) -> String {
    format!(
        "{{\"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}}}",
        m.min().as_nanos(),
        m.median().as_nanos(),
        mean_ns(m)
    )
}

fn main() {
    let inputs = corpus();
    let mut group = BenchGroup::new("serialization", 20);
    let mut sizes = Vec::new();

    for c in &inputs {
        let text = print_module(&c.module);
        let bytes = encode_module(&c.module);
        let funcs = c.module.num_funcs().max(1);
        sizes.push((
            c.label,
            text.len(),
            bytes.len(),
            text.len() / funcs,
            bytes.len() / funcs,
        ));

        // Round-trip sanity: a bench over a broken codec or parser is
        // worthless.
        let decoded = decode_module(&bytes).expect("bench corpus decodes");
        assert_eq!(
            print_module(&decoded),
            text,
            "binary round-trip diverged on {}",
            c.label
        );
        let parsed = parse_module(&text).expect("bench corpus parses");
        assert_eq!(
            print_module(&parsed),
            text,
            "text round-trip diverged on {}",
            c.label
        );

        group.bench(&format!("parse_text_{}", c.label), || {
            parse_module(&text).expect("parses")
        });
        group.bench(&format!("print_text_{}", c.label), || {
            print_module(&c.module)
        });
        group.bench(&format!("decode_binary_{}", c.label), || {
            decode_module(&bytes).expect("decodes")
        });
        group.bench(&format!("encode_binary_{}", c.label), || {
            encode_module(&c.module)
        });
    }
    let results = group.finish();

    println!(
        "\n{:<16} {:>10} {:>10} {:>12} {:>12}",
        "corpus", "text B", "binary B", "text B/fn", "binary B/fn"
    );
    for (label, text_b, bin_b, text_pf, bin_pf) in &sizes {
        println!("{label:<16} {text_b:>10} {bin_b:>10} {text_pf:>12} {bin_pf:>12}");
    }

    let by_label = |label: &str| -> &Measurement {
        results
            .iter()
            .find(|m| m.label == label)
            .expect("measurement exists")
    };

    let mut json = String::from("{\n  \"bench\": \"serialization\",\n  \"samples\": 20,\n");
    json.push_str("  \"benchmarks\": {\n");
    for (i, m) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}\": {}{sep}", m.label, bench_json(m));
    }
    json.push_str("  },\n  \"load_speedup\": {");
    for (i, c) in inputs.iter().enumerate() {
        let parse = mean_ns(by_label(&format!("parse_text_{}", c.label)));
        let decode = mean_ns(by_label(&format!("decode_binary_{}", c.label))).max(1);
        let sep = if i + 1 < inputs.len() { ", " } else { "" };
        let _ = write!(
            json,
            "\"{}\": {:.3}{sep}",
            c.label,
            parse as f64 / decode as f64
        );
    }
    json.push_str("},\n  \"sizes\": {\n");
    for (i, (label, text_b, bin_b, text_pf, bin_pf)) in sizes.iter().enumerate() {
        let sep = if i + 1 < sizes.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{label}\": {{\"text_bytes\": {text_b}, \"binary_bytes\": {bin_b}, \
             \"text_bytes_per_func\": {text_pf}, \"binary_bytes_per_func\": {bin_pf}}}{sep}"
        );
    }
    json.push_str("  }\n}\n");

    // CARGO_MANIFEST_DIR is crates/bench; the JSON belongs at the repo root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let path = root.join("BENCH_serialization.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
