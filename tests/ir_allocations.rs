//! Gates what creating, copying, journaling and dropping IR costs the
//! allocator.
//!
//! An instruction keeps its operands and phi incoming blocks inline (up to
//! three, see `rolag_ir::inline_list`), so none of these steps may call
//! the allocator once per instruction: a cloned or dropped function pays
//! for its arenas and, per block, its label and instruction list; a parse
//! pays per module, function, block and global; a speculation window pays
//! for its journal, whose lists grow by doubling. A global allocator here
//! counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) per thread,
//! so tests running beside each other do not see each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::{Function, InstData, Module, Opcode};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};

// Three operands and three phi incoming blocks fit inline in the 24 bytes
// each `Vec` header took before, so an instruction still fills one 64-byte
// cache line; a layout that grows it slows every arena walk.
const _: () = assert!(std::mem::size_of::<InstData>() <= 64);

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// 128 AnghaBench-like modules and the Table I programs at scale 0.02, the
/// corpora `printer_pinned` digests.
fn corpora() -> Vec<(String, Module)> {
    let angha = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    })
    .map(|(name, _, m)| (name, m));
    let table1 = TABLE1
        .iter()
        .map(|spec| (spec.name.to_string(), build_program(spec, 7, 0.02)));
    angha.chain(table1).collect()
}

fn definitions(m: &Module) -> impl Iterator<Item = &Function> {
    m.func_ids()
        .map(|id| m.func(id))
        .filter(|f| !f.is_declaration)
}

/// A clone allocates once for each of its arenas (name, parameter types,
/// values, instructions, results, liveness, blocks, parameters, constant
/// map) and twice per block (label and instruction list).
const CLONE_FIXED: usize = 9;
const CLONE_PER_BLOCK: usize = 2;

#[test]
fn clones_and_drops_allocate_per_block_not_per_instruction() {
    let (mut functions, mut insts) = (0, 0);
    for (name, m) in corpora() {
        for f in definitions(&m) {
            let (_, n) = allocations(|| drop(f.clone()));
            let bound = CLONE_FIXED + CLONE_PER_BLOCK * f.num_blocks();
            assert!(
                n as usize <= bound,
                "{name}/{}: clone and drop made {n} allocations for {} blocks and {} \
                 instructions (bound {bound})",
                f.name,
                f.num_blocks(),
                f.num_insts(),
            );
            functions += 1;
            insts += f.num_insts();
        }
    }
    assert!(
        functions > 150 && insts > 10_000,
        "{functions} functions, {insts} instructions"
    );
}

#[test]
fn parsing_allocates_well_under_once_per_instruction() {
    let (mut allocs, mut insts) = (0, 0);
    for (name, m) in corpora() {
        let text = print_module(&m);
        let (parsed, n) = allocations(|| parse_module(&text));
        let parsed = parsed.unwrap_or_else(|e| panic!("{name}: {e}"));
        allocs += n as usize;
        insts += definitions(&parsed).map(Function::num_insts).sum::<usize>();
    }
    // Per module, function, block, global and name-map growth: about a
    // quarter of an allocation per instruction on these corpora. An
    // operand list per instruction would put it above one.
    assert!(
        allocs * 2 < insts,
        "parsing {insts} instructions made {allocs} allocations"
    );
}

#[test]
fn speculation_windows_allocate_nothing_per_touched_instruction() {
    let mut windows = 0;
    for (name, m) in corpora() {
        for f in definitions(&m) {
            let reference = f;
            let mut f = f.clone();
            let targets: Vec<_> = f
                .block_ids()
                .flat_map(|b| f.block(b).insts.clone())
                .filter(|&i| f.inst(i).operands.len() >= 2 && f.inst(i).opcode != Opcode::Phi)
                .collect();
            if targets.len() < 64 {
                continue;
            }
            let ((), n) = allocations(|| {
                let token = f.snapshot();
                for &i in &targets {
                    f.inst_mut(i).operands.swap(0, 1);
                }
                f.rollback(token);
            });
            // The journal box, its three bitmaps and its saved-payload and
            // saved-placement lists, which grow by doubling: logarithmic
            // in the touched count, never one per touched instruction.
            let doublings = usize::BITS - targets.len().leading_zeros();
            let bound = 4 + 2 * doublings as usize;
            assert!(
                n as usize <= bound,
                "{name}/{}: a window touching {} instructions made {n} allocations \
                 (bound {bound})",
                f.name,
                targets.len()
            );
            for &i in &targets {
                assert_eq!(f.inst(i), reference.inst(i), "{name}/{}: rollback", f.name);
            }
            windows += 1;
        }
    }
    assert!(
        windows >= 20,
        "only {windows} functions have 64 rewritable instructions"
    );
}
