//! Linear-scan register allocation — spill sizing only.
//!
//! We do not need actual register assignments, only the *bytes of spill
//! code* that register pressure forces, since that is what shows up in
//! object size. Live intervals are approximated over the linear layout
//! order; whenever pressure in a class exceeds its budget, the interval with
//! the furthest end is spilled (Poletto-Sarkar heuristic) and its store +
//! reload bytes are charged.

use std::collections::HashMap;

use rolag_ir::ValueId;

use crate::isel::{MachineFunction, RegClass};

/// Available registers per class (x86-64 SysV, minus reserved).
const GPR_BUDGET: usize = 11;
const XMM_BUDGET: usize = 14;

/// Result of the allocation pass.
#[derive(Debug, Clone, Default)]
pub struct AllocResult {
    /// Number of spilled intervals.
    pub spills: u32,
    /// Bytes of spill stores and reloads added to the function.
    pub spill_bytes: u32,
    /// Whether spilling forces a stack frame.
    pub forces_frame: bool,
}

/// A live interval over the flat instruction index space.
#[derive(Debug, Clone)]
struct Interval {
    start: usize,
    end: usize,
    uses: u32,
    class: RegClass,
}

/// Computes spill cost for one machine function.
pub fn allocate(mf: &MachineFunction) -> AllocResult {
    // Build intervals over the flat instruction index space, in first-event
    // order so the scan below is deterministic across processes (a HashMap
    // iteration order here would make same-start tie-breaking depend on the
    // hasher seed).
    let mut index: HashMap<ValueId, usize> = HashMap::new();
    let mut ivs: Vec<Interval> = Vec::new();
    let mut idx = 0usize;
    for block in &mf.blocks {
        for inst in &block.insts {
            if let Some(def) = inst.def {
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry(def) {
                    let class = mf.reg_class.get(&def).copied().unwrap_or(RegClass::Gpr);
                    e.insert(ivs.len());
                    ivs.push(Interval {
                        start: idx,
                        end: idx,
                        uses: 0,
                        class,
                    });
                }
            }
            for &u in &inst.uses {
                if let Some(&slot) = index.get(&u) {
                    ivs[slot].end = idx;
                    ivs[slot].uses += 1;
                } else {
                    // Used before any def in layout order (params, or values
                    // live around a loop): live from function entry.
                    let class = mf.reg_class.get(&u).copied().unwrap_or(RegClass::Gpr);
                    index.insert(u, ivs.len());
                    ivs.push(Interval {
                        start: 0,
                        end: idx,
                        uses: 1,
                        class,
                    });
                }
            }
            idx += 1;
        }
    }
    // Loop-carried values (phi inputs defined later than a use) need their
    // intervals extended to their definition.
    // (The map above already extends ends monotonically; starts stay at the
    // first event, which over-approximates pressure slightly — fine for
    // sizing.)
    spill_scan(ivs)
}

/// Linear scan over the intervals, charging spill bytes whenever a class
/// exceeds its budget. Intervals are visited in order of their first
/// event.
fn spill_scan(mut ivs: Vec<Interval>) -> AllocResult {
    ivs.sort_by_key(|iv| iv.start);

    let mut result = AllocResult::default();
    for (class, budget) in [(RegClass::Gpr, GPR_BUDGET), (RegClass::Xmm, XMM_BUDGET)] {
        let mut active: Vec<(usize, u32)> = Vec::new(); // (end, uses)
        for iv in ivs.iter().filter(|iv| iv.class == class) {
            active.retain(|&(end, _)| end >= iv.start);
            active.push((iv.end, iv.uses));
            if active.len() > budget {
                // Spill the furthest-ending active interval.
                let (far_idx, _) = active
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &(end, _))| end)
                    .expect("non-empty active set");
                let (_, uses) = active.remove(far_idx);
                result.spills += 1;
                // One store (mov [rbp-k], r ≈ 4B) plus one reload per use
                // (mov r, [rbp-k] ≈ 4B).
                result.spill_bytes += 4 + 4 * uses;
                result.forces_frame = true;
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::select_function;
    use rolag_ir::parser::parse_module;

    fn alloc_of(text: &str) -> AllocResult {
        let m = parse_module(text).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        allocate(&select_function(&m, f))
    }

    #[test]
    fn small_functions_do_not_spill() {
        let r = alloc_of(
            r#"
module "t"
func @f(i32 %p0, i32 %p1) -> i32 {
entry:
  %a = add i32 %p0, %p1
  %b = mul i32 %a, %p0
  ret %b
}
"#,
        );
        assert_eq!(r.spills, 0);
        assert_eq!(r.spill_bytes, 0);
    }

    #[test]
    fn extreme_pressure_spills() {
        // 20 simultaneously live sums, all used at the end.
        let mut text = String::from("module \"t\"\nfunc @f(i32 %p0) -> i32 {\nentry:\n");
        for i in 0..20 {
            text.push_str(&format!("  %v{i} = add i32 %p0, i32 {}\n", i + 1000));
        }
        // Chain everything together so all 20 stay live.
        text.push_str("  %s0 = add i32 %v0, %v1\n");
        for i in 1..19 {
            text.push_str(&format!("  %s{i} = add i32 %s{}, %v{}\n", i - 1, i + 1));
        }
        text.push_str("  ret %s18\n}\n");
        let r = alloc_of(&text);
        assert!(r.spills > 0, "20 live values exceed 11 GPRs");
        assert!(r.spill_bytes >= 8 * r.spills);
        assert!(r.forces_frame);
    }

    #[test]
    fn sequential_reuse_does_not_spill() {
        // The same number of values, but each dies immediately.
        let mut text = String::from(
            "module \"t\"\nglobal @g : [32 x i32] = zero\nfunc @f(i32 %p0) -> void {\nentry:\n",
        );
        for i in 0..20 {
            text.push_str(&format!("  %v{i} = add i32 %p0, i32 {i}\n"));
            text.push_str(&format!("  %q{i} = gep i32, @g, i64 {i}\n"));
            text.push_str(&format!("  store %v{i}, %q{i}\n"));
        }
        text.push_str("  ret\n}\n");
        let r = alloc_of(&text);
        assert_eq!(r.spills, 0);
    }

    #[test]
    fn classes_are_independent() {
        // 8 live doubles + 8 live ints fit their separate budgets.
        let mut text =
            String::from("module \"t\"\nfunc @f(i32 %p0, double %p1) -> i32 {\nentry:\n");
        for i in 0..8 {
            text.push_str(&format!("  %x{i} = add i32 %p0, i32 {i}\n"));
            text.push_str(&format!("  %f{i} = fadd double %p1, double {i}.5\n"));
        }
        text.push_str("  %sx0 = add i32 %x0, %x1\n");
        for i in 1..7 {
            text.push_str(&format!("  %sx{i} = add i32 %sx{}, %x{}\n", i - 1, i + 1));
        }
        text.push_str("  %sf0 = fadd double %f0, %f1\n");
        for i in 1..7 {
            text.push_str(&format!(
                "  %sf{i} = fadd double %sf{}, %f{}\n",
                i - 1,
                i + 1
            ));
        }
        text.push_str("  %c = fptosi i32 %sf6\n  %r = add i32 %sx6, %c\n  ret %r\n}\n");
        let r = alloc_of(&text);
        assert_eq!(r.spills, 0);
    }
}
