//! Module load-time benchmark: the compact binary format
//! (`rolag_ir::serialization`) against the textual parser on the TSVC
//! suite as one module, on the 151 unrolled TSVC kernels as one module
//! each (as the `tsvc` end-to-end workload loads them, so per-module set-up
//! shows), and on a large synthetic program, plus the textual printer that
//! every memo key, store key and emitted module goes through.
//!
//! Besides the min/median/mean table this bench writes
//! `BENCH_serialization.json` at the repository root: per-format mean
//! load nanoseconds, the decode speedup over text parsing, and size
//! metrics (total bytes and bytes per function for each format).

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;

use rolag_bench::harness::{BenchGroup, Measurement};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::serialization::{decode_module, encode_module};
use rolag_ir::Module;
use rolag_suites::programs::{build_program, ProgramSpec};
use rolag_suites::tsvc::{all_kernels, build_kernel_module, build_suite_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// Modules loaded one after another as one benchmark run.
struct Corpus {
    label: &'static str,
    modules: Vec<Module>,
}

/// The TSVC kernels unrolled x8, CSE'd and cleaned up, one module each.
fn tsvc_modules() -> Vec<Module> {
    all_kernels()
        .iter()
        .map(|spec| {
            let mut m = build_kernel_module(spec);
            unroll_module(&mut m, 8);
            cse_module(&mut m);
            cleanup_module(&mut m);
            m
        })
        .collect()
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
            modules: vec![build_suite_module()],
        },
        Corpus {
            label: "tsvc_modules",
            modules: tsvc_modules(),
        },
        Corpus {
            label: "program64kb",
            modules: vec![build_program(&spec, 7, 1.0)],
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
        let texts: Vec<String> = c.modules.iter().map(print_module).collect();
        let bytes: Vec<Vec<u8>> = c.modules.iter().map(encode_module).collect();
        let (text_b, bin_b) = (
            texts.iter().map(String::len).sum::<usize>(),
            bytes.iter().map(Vec::len).sum::<usize>(),
        );
        let funcs = c
            .modules
            .iter()
            .map(Module::num_funcs)
            .sum::<usize>()
            .max(1);
        sizes.push((c.label, text_b, bin_b, text_b / funcs, bin_b / funcs));

        // Round-trip sanity: a bench over a broken codec or parser is
        // worthless.
        for (text, bytes) in texts.iter().zip(&bytes) {
            let decoded = decode_module(bytes).expect("bench corpus decodes");
            assert_eq!(
                &print_module(&decoded),
                text,
                "binary round-trip diverged on {}",
                c.label
            );
            let parsed = parse_module(text).expect("bench corpus parses");
            assert_eq!(
                &print_module(&parsed),
                text,
                "text round-trip diverged on {}",
                c.label
            );
        }

        group.bench(&format!("parse_text_{}", c.label), || {
            for text in &texts {
                black_box(parse_module(text).expect("parses"));
            }
        });
        group.bench(&format!("print_text_{}", c.label), || {
            for m in &c.modules {
                black_box(print_module(m));
            }
        });
        group.bench(&format!("decode_binary_{}", c.label), || {
            for bytes in &bytes {
                black_box(decode_module(bytes).expect("decodes"));
            }
        });
        group.bench(&format!("encode_binary_{}", c.label), || {
            for m in &c.modules {
                black_box(encode_module(m));
            }
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
