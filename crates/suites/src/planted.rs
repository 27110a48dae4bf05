//! Planted stress shapes: inputs built to expose per-candidate work that
//! grows with the block a candidate sits in rather than with the candidate.

use rolag_ir::parser::parse_module;
use rolag_ir::Module;

/// One function `@f` whose single block holds `groups` independent groups,
/// each 8 stores of irregular constants to a distinct global through its
/// own `gep`: 16 instructions per group, then `ret`.
///
/// Every group is a candidate and none is profitable, so each one is
/// scheduled, generated and rolled back against the whole block.
pub fn big_block(groups: usize) -> Module {
    let mut text = String::from("module \"planted\"\n");
    for k in 0..groups {
        text.push_str(&format!("global @g{k} : [8 x i32] = zero\n"));
    }
    text.push_str("func @f() -> void {\nentry:\n");
    for k in 0..groups {
        for j in 0..8 {
            let c = ((k * 8 + j) * 7919 + 13) % 1009;
            text.push_str(&format!("  %p{k}_{j} = gep i32, @g{k}, i64 {j}\n"));
            text.push_str(&format!("  store i32 {c}, %p{k}_{j}\n"));
        }
    }
    text.push_str("  ret\n}\n");
    parse_module(&text).expect("the planted block parses")
}
