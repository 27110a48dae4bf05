//! Acceptance check for the LLVM importer: every TSVC kernel, rendered
//! to the LLVM subset and imported back, rolls to a byte-identical
//! module compared with rolling the native text round-trip.
//!
//! Both sides go through a text round-trip (`print_module` → native
//! parse vs `emit_llvm` → import) so metadata the formats cannot carry
//! (definition effects) is lost symmetrically.

use rolag::{roll_module, RolagOptions};
use rolag_frontend::emit::emit_llvm;
use rolag_frontend::llvm::LlvmFrontend;
use rolag_frontend::Frontend;
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_suites::tsvc::{all_kernels, build_kernel_module};

#[test]
fn tsvc_llvm_roundtrip_rolls_identically() {
    let opts = RolagOptions::default();
    let mut checked = 0;
    for spec in all_kernels() {
        let module = build_kernel_module(&spec);

        let mut native = parse_module(&print_module(&module))
            .unwrap_or_else(|e| panic!("{}: native reparse failed: {e:?}", spec.name));

        let ll = emit_llvm(&module);
        let imported = LlvmFrontend
            .parse(ll.as_bytes(), &format!("{}.ll", spec.name))
            .unwrap_or_else(|e| panic!("{}: import failed: {e}", spec.name));
        assert!(
            imported.skips.is_empty(),
            "{}: importer skipped {:?}",
            spec.name,
            imported
                .skips
                .iter()
                .map(|s| format!("{}: {} ({})", s.symbol, s.code.code(), s.detail))
                .collect::<Vec<_>>()
        );
        let mut llvm_side = imported.module;

        assert_eq!(
            print_module(&native),
            print_module(&llvm_side),
            "{}: imported module differs before rolling",
            spec.name
        );

        roll_module(&mut native, &opts);
        roll_module(&mut llvm_side, &opts);
        assert_eq!(
            print_module(&native),
            print_module(&llvm_side),
            "{}: rolled modules differ",
            spec.name
        );
        checked += 1;
    }
    assert!(
        checked > 100,
        "expected the full kernel suite, got {checked}"
    );
}

/// An imported module whose block labels are not bare identifiers —
/// LLVM's numbered blocks, including the implicit entry block, and a
/// quoted label — prints to text that parses back to the same module:
/// `.ll` → import → print → parse → print is a fixed point.
#[test]
fn numbered_and_quoted_block_labels_round_trip_through_text() {
    let ll = r#"
define i32 @abs(i32 %0) {
  %2 = icmp slt i32 %0, 0
  br i1 %2, label %3, label %5
3:
  %4 = sub i32 0, %0
  br label %6
5:
  br label %6
6:
  %7 = phi i32 [ %4, %3 ], [ %0, %5 ]
  ret i32 %7
}

define void @quoted() {
entry:
  br label %"odd label"
"odd label":
  ret void
}
"#;
    let imported = LlvmFrontend
        .parse(ll.as_bytes(), "labels.ll")
        .unwrap_or_else(|e| panic!("import failed: {e}"));
    assert!(
        imported.skips.is_empty(),
        "importer skipped {:?}",
        imported
            .skips
            .iter()
            .map(|s| format!("{}: {}", s.symbol, s.detail))
            .collect::<Vec<_>>()
    );
    let text = print_module(&imported.module);
    for label in [
        "\"0\":",
        "\"3\":",
        "\"5\":",
        "\"6\":",
        "\"odd label\":",
        "entry:",
    ] {
        assert!(text.contains(label), "{label} missing from:\n{text}");
    }
    let reparsed = parse_module(&text)
        .unwrap_or_else(|e| panic!("printed module does not parse: {e}\n{text}"));
    assert_eq!(print_module(&reparsed), text, "print is not a fixed point");
}
