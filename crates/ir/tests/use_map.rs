//! Pins `Function::compute_uses` against a naive reference.
//!
//! The use map is two flat arrays, offsets and users. The reference below
//! is the straightforward layout it replaced: one `Vec` per value, filled
//! by walking the live instructions in layout order. For every value of
//! every function the two must agree on `of(v)`, order included, and on
//! `count(v)`. The functions come from the 256-module generator sweep and
//! the unrolled TSVC kernels, each checked as built and again after
//! `replace_all_uses`, instruction removal and an unused constant.

use rolag_difftest::generate_module;
use rolag_ir::{Function, InstId, Module, ValueDef, ValueId};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

fn reference(f: &Function) -> Vec<Vec<(InstId, usize)>> {
    let mut uses = vec![Vec::new(); f.num_values()];
    for i in f.live_insts() {
        for (k, &op) in f.inst(i).operands.iter().enumerate() {
            uses[op.index()].push((i, k));
        }
    }
    uses
}

/// What the sweep covered; every field must end up non-zero.
#[derive(Debug, Default)]
struct Seen {
    used_params: usize,
    used_consts: usize,
    unused: usize,
    replaced: usize,
    removed: usize,
}

fn check(f: &Function, what: &str, seen: &mut Seen) {
    let map = f.compute_uses();
    for (k, want) in reference(f).iter().enumerate() {
        let v = ValueId::from_index(k);
        assert_eq!(map.of(v), want.as_slice(), "{what}: users of {v:?}");
        assert_eq!(map.count(v), want.len(), "{what}: use count of {v:?}");
        match (f.value(v), want.is_empty()) {
            (_, true) => seen.unused += 1,
            (ValueDef::Param { .. }, false) => seen.used_params += 1,
            (ValueDef::Inst(_), false) => {}
            (_, false) => seen.used_consts += 1,
        }
    }
}

/// Checks every defined function of `m` as it is, then a mutated copy:
/// the uses of every third used instruction result are redirected to
/// `undef`, every seventh instruction is detached, and an unused
/// constant is interned.
fn check_module(m: &Module, what: &str, seen: &mut Seen) {
    for id in m.func_ids() {
        let f = m.func(id);
        if f.is_declaration {
            continue;
        }
        let what = format!("{what} @{}", f.name);
        check(f, &what, seen);

        let mut g = f.clone();
        let uses = g.compute_uses();
        let insts: Vec<InstId> = g.live_insts().collect();
        let used: Vec<ValueId> = insts
            .iter()
            .map(|&i| g.inst_result(i))
            .filter(|&v| uses.count(v) > 0)
            .collect();
        let mut replaced = Vec::new();
        for &old in used.iter().step_by(3) {
            let new = g.undef(g.value_ty(old, &m.types));
            g.replace_all_uses(old, new);
            replaced.push(old);
        }
        for &i in insts.iter().skip(3).step_by(7) {
            g.remove_inst(i);
            seen.removed += 1;
        }
        g.const_int(m.types.i64(), 0x05ee_d0dd_ba11);
        let what = format!("{what} (mutated)");
        check(&g, &what, seen);
        let map = g.compute_uses();
        for old in replaced {
            assert_eq!(
                map.count(old),
                0,
                "{what}: {old:?} still used after replace_all_uses"
            );
            seen.replaced += 1;
        }
    }
}

#[test]
fn use_map_matches_naive_reference() {
    let mut seen = Seen::default();
    for index in 0..256 {
        let m = generate_module(0, index);
        check_module(&m, &format!("gen {index}"), &mut seen);
    }
    for spec in all_kernels() {
        let mut m = build_kernel_module(&spec);
        check_module(&m, spec.name, &mut seen);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        check_module(&m, &format!("{} unrolled", spec.name), &mut seen);
    }
    println!("{seen:?}");
    assert!(
        seen.used_params > 0
            && seen.used_consts > 0
            && seen.unused > 0
            && seen.replaced > 0
            && seen.removed > 0,
        "{seen:?}"
    );
}
