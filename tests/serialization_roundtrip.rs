//! Binary-serialization round-trip over every checked-in `.rir` corpus.
//!
//! The acceptance bar for the binary format is print-identity: for each
//! module, `parse → encode → decode → print` must equal `parse → print`
//! byte-for-byte. The decoded arenas are slot-identical to the source
//! arenas, so any drift shows up as a text diff anchored to the corpus
//! file that produced it.

use std::path::{Path, PathBuf};

use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::serialization::{decode_module, encode_module};
use rolag_ir::{InstExtra, Opcode};

/// Every `.rir` under the repo's corpus directories, sorted.
fn corpus() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["tests/lit", "tests/repros", "examples/ir"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("corpus dir exists") {
            let path = entry.expect("readable dir entry").path();
            if path.extension().is_some_and(|e| e == "rir") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(!files.is_empty(), "corpus discovery found no .rir files");
    files
}

#[test]
fn every_corpus_module_roundtrips_print_identical() {
    let mut failures = Vec::new();
    for path in corpus() {
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let module = match parse_module(&text) {
            Ok(m) => m,
            Err(e) => panic!("{} does not parse: {e}", path.display()),
        };
        let bytes = encode_module(&module);
        let decoded = match decode_module(&bytes) {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("{}: decode failed: {e}", path.display()));
                continue;
            }
        };
        if print_module(&decoded) != print_module(&module) {
            failures.push(format!("{}: decoded print diverges", path.display()));
        }
        // Encoding must be deterministic: a second encode of the decoded
        // module reproduces the same bytes.
        if encode_module(&decoded) != bytes {
            failures.push(format!("{}: re-encode is not byte-stable", path.display()));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn truncated_corpus_bytes_never_panic() {
    // Sample a handful of truncation points per module (every prefix of
    // every corpus file would be quadratic); the per-byte sweep lives in
    // the rolag-ir unit tests.
    for path in corpus() {
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let module = parse_module(&text).expect("corpus parses");
        let bytes = encode_module(&module);
        for i in 1..=32 {
            let len = bytes.len() * i / 33;
            assert!(
                decode_module(&bytes[..len]).is_err(),
                "{}: prefix of {len} bytes decoded",
                path.display()
            );
        }
    }
}

/// The one golden whose instructions outgrow the three operands (and phi
/// incoming blocks) an instruction keeps inline: its spilled lists must
/// encode, decode and print like the inline ones, before and after rolling.
#[test]
fn spilled_operand_lists_roundtrip() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("tests/lit/roll-wide-operands.rir"))
        .expect("golden readable");
    let parsed = parse_module(&text).expect("golden parses");
    let mut rolled = parsed.clone();
    let stats = rolag::roll_module(&mut rolled, &rolag::RolagOptions::default());
    assert_eq!(stats.rolled, 1, "the wide calls roll");
    for module in [parsed, rolled] {
        let f = module.func(module.func_by_name("wide").expect("@wide"));
        let insts: Vec<_> = f
            .block_ids()
            .flat_map(|b| f.block(b).insts.clone())
            .collect();
        let spilled_calls = insts
            .iter()
            .filter(|&&i| f.inst(i).opcode == Opcode::Call && f.inst(i).operands.spilled())
            .count();
        let phis: Vec<(usize, bool)> = insts
            .iter()
            .filter_map(|&i| match &f.inst(i).extra {
                InstExtra::Phi { incoming } if incoming.len() > 2 => {
                    Some((incoming.len(), incoming.spilled()))
                }
                _ => None,
            })
            .collect();
        assert!(spilled_calls >= 1, "no spilled call");
        assert_eq!(phis, [(3, false), (4, true)]);

        let bytes = encode_module(&module);
        let decoded = decode_module(&bytes).expect("decodes");
        assert_eq!(print_module(&decoded), print_module(&module));
        let g = decoded.func(decoded.func_by_name("wide").expect("@wide"));
        for &i in &insts {
            assert_eq!(g.inst(i), f.inst(i), "instruction {i:?} after decode");
        }
        assert_eq!(encode_module(&decoded), bytes, "re-encode is byte-stable");
    }
}
