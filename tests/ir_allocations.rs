//! Gates what creating, copying, journaling and dropping IR costs the
//! allocator.
//!
//! An instruction keeps its operands and phi incoming blocks inline (up to
//! three, see `rolag_ir::inline_list`), so none of these steps may call
//! the allocator once per instruction: a cloned or dropped function pays
//! for its arenas and, per block, its label and instruction list; a parse
//! pays per module, function, block and global; a speculation window pays
//! for its journal, whose lists grow by doubling. An initializer list
//! costs its parse one buffer, and a module with one definition costs the
//! module driver no more than the serial pass. An alignment graph keeps
//! its nodes' lanes and children in graph-wide arenas, so building one
//! costs a fixed number of allocations plus arena doublings, not a count
//! per node. A translation validation reuses its speculator's scratch, so
//! once that scratch has seen the function it allocates nothing, however
//! many lanes or instructions the rewrite has, and a validated roll reads
//! the pre-candidate state through the speculation journal, so it costs at
//! most a constant, plus a constant per validation, more than an
//! unvalidated one. A global allocator here counts allocation calls
//! (`alloc`, `alloc_zeroed`, `realloc`) per thread, the bytes they ask for
//! and the largest one, so tests running beside each other do not see each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use rolag::codegen;
use rolag::schedule::ScheduleCache;
use rolag::{
    build_candidate_graph, candidate_variants, collect_candidates, roll_module, roll_module_par,
    AlignGraph, DriverOptions, GraphBuilder, RolagOptions,
};
use rolag_analysis::depgraph::BlockDeps;
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::{Function, GlobalData, InstData, Module, Opcode};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};
use rolag_tv::{validate_rewrite, RewriteHints, TvScratch};

// Three operands and three phi incoming blocks fit inline in the 24 bytes
// each `Vec` header took before, so an instruction still fills one 64-byte
// cache line; a layout that grows it slows every arena walk.
const _: () = assert!(std::mem::size_of::<InstData>() <= 64);

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
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

/// Runs `f` and returns its result with the largest single allocation, in
/// bytes, that it made on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LARGEST.with(|n| n.replace(0));
    let r = f();
    let largest = LARGEST.with(|n| n.replace(before.max(n.get())));
    (r, largest)
}

/// Runs `f` and returns its result with the bytes its allocation calls on
/// this thread asked for, a `realloc` counting its new size.
fn allocated_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (r, BYTES.with(Cell::get) - before)
}

/// The unrolled TSVC kernels of the `tsvc` benchmark workload (§V-C), one
/// module each.
fn unrolled_tsvc() -> impl Iterator<Item = (&'static str, Module)> {
    tsvc_unrolled_by(8)
}

/// The TSVC kernels unrolled `factor` times, CSE'd and cleaned up.
fn tsvc_unrolled_by(factor: u32) -> impl Iterator<Item = (&'static str, Module)> {
    all_kernels().into_iter().map(move |spec| {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, factor);
        cse_module(&mut m);
        cleanup_module(&mut m);
        (spec.name, m)
    })
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

/// `text` with every `ints` and `bytes` initializer spelled `zero`, and
/// how many there were.
fn zero_initializers(text: &str) -> (String, usize) {
    let mut lists = 0;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let init = [" = ints ", " = bytes "]
            .into_iter()
            .find_map(|spelling| line.find(spelling));
        match init {
            Some(at) if line.starts_with("global ") || line.starts_with("const ") => {
                lists += 1;
                out.push_str(&line[..at]);
                out.push_str(" = zero");
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    (out, lists)
}

#[test]
fn each_initializer_list_costs_its_parse_one_buffer() {
    let mut modules = 0;
    for (name, m) in unrolled_tsvc() {
        let text = print_module(&m);
        let (zeroed, lists) = zero_initializers(&text);
        assert!(lists > 0, "{name}: no initializer list");
        let (parsed, with_lists) = allocations(|| parse_module(&text));
        parsed.unwrap_or_else(|e| panic!("{name}: {e}"));
        let (parsed, without) = allocations(|| parse_module(&zeroed));
        parsed.unwrap_or_else(|e| panic!("{name} zeroed: {e}"));
        assert!(
            with_lists <= without + lists as u64,
            "{name}: {lists} initializer lists took {} allocations ({with_lists} vs {without})",
            with_lists.saturating_sub(without)
        );
        modules += 1;
    }
    assert!(modules > 150, "{modules} modules");
}

/// A declared length reserves nothing its line cannot fill: a list of one
/// element under a length of 2^32 - 1 reserves one element, however much
/// text follows it.
#[test]
fn a_hostile_array_length_reserves_nothing() {
    for init in ["ints i32 [1]", "bytes [1]", "ints i32 []"] {
        let text = format!("module \"m\"\nglobal @g : [4294967295 x i32] = {init}\n");
        let (parsed, largest) = largest_allocation(|| parse_module(&text));
        parsed.unwrap_or_else(|e| panic!("{init}: {e}"));
        assert!(
            largest <= 4096,
            "{init}: parsing took a {largest}-byte allocation"
        );
    }

    // Many such lists, each followed by the rest of the module: a bound
    // by the input left would reserve about 2.7 bytes per byte after each
    // list, quadratic in the length of the text.
    let mut text = String::from("module \"m\"\n");
    for k in 0..500 {
        writeln!(text, "global @g{k} : [4294967295 x i64] = ints i64 [1]").unwrap();
    }
    for k in 0..500 {
        writeln!(text, "global @z{k} : [1 x i64] = zero").unwrap();
    }
    let (parsed, bytes) = allocated_bytes(|| parse_module(&text));
    parsed.expect("the module parses");
    assert!(
        bytes <= 16 * text.len(),
        "parsing {} bytes of text asked the allocator for {bytes} bytes",
        text.len()
    );
}

/// A module with one definition and no store is rolled in place by the
/// module driver, as by the serial pass: no context, copy or replay.
#[test]
fn a_lone_definition_costs_the_driver_no_more_than_the_serial_pass() {
    let opts = RolagOptions::default();
    for (name, m) in unrolled_tsvc() {
        let mut serial = m.clone();
        let (_, in_serial) = allocations(|| roll_module(&mut serial, &opts));
        let mut par = m.clone();
        let (_, in_driver) =
            allocations(|| roll_module_par(&mut par, &opts, &DriverOptions::scoped(2)));
        assert!(
            in_driver <= in_serial,
            "{name}: the driver made {in_driver} allocations, the serial pass {in_serial}"
        );
    }
}

/// What a `validated` roll may allocate beyond its `default` roll: the
/// validator's scratch, sized at a function's first validation (its tables
/// and buffers, grown by doubling to the rewrite's size), and per
/// validation the rewrite's hints and the pre-window view's index.
const VALIDATED_FIXED: u64 = 66;
const VALIDATED_PER_VALIDATION: u64 = 8;

/// One function of `blocks` blocks in a chain, whose entry block stores the
/// sequence 0, 1, ..., 7 through `%p`: a run that rolls.
fn store_run_then_blocks(blocks: usize) -> Module {
    let mut text = String::from("module \"t\"\nfunc @f(ptr %p) -> void {\nentry:\n");
    for k in 0..8 {
        text.push_str(&format!(
            "  %p{k} = gep i32, %p, i64 {k}\n  store i32 {k}, %p{k}\n"
        ));
    }
    for b in 1..blocks {
        text.push_str(&format!("  br b{b}\nb{b}:\n"));
    }
    text.push_str("  ret\n}\n");
    parse_module(&text).unwrap()
}

/// The validator reads the pre-candidate state through the speculation
/// journal, so validating copies no function: for each unrolled TSVC kernel
/// and for a function of 200 blocks, a `validated` roll allocates at most a
/// constant, plus a constant per validation, more than its `default` roll.
/// A copy of the pre-candidate state would cost `CLONE_FIXED` allocations
/// plus `CLONE_PER_BLOCK` per block, and more to keep it in step after each
/// commit. Debug builds also check each validation's dependences against a
/// fresh compute on a pre-window clone, so the bound is asserted in release
/// builds only.
#[test]
fn validated_rolls_allocate_a_constant_per_validation_more_than_default_rolls() {
    let (default, validated) = (RolagOptions::default(), RolagOptions::validated());
    let (mut rolls, mut validations, mut worst) = (0, 0, 0f64);
    let modules = unrolled_tsvc()
        .map(|(name, m)| (name.to_string(), m))
        .chain([("200 blocks".to_string(), store_run_then_blocks(200))]);
    for (name, m) in modules {
        let mut plain = m.clone();
        let (_, n_default) = allocations(|| roll_module(&mut plain, &default));
        let mut checked = m.clone();
        let (stats, n_validated) = allocations(|| roll_module(&mut checked, &validated));
        let k = stats.tv_validated + stats.tv_rejected;
        if k == 0 {
            continue;
        }
        let extra = n_validated.saturating_sub(n_default);
        let bound = VALIDATED_FIXED + VALIDATED_PER_VALIDATION * k;
        assert!(
            cfg!(debug_assertions) || extra <= bound,
            "{name}: {k} validations made a validated roll allocate {n_validated} times, \
             {extra} more than the default roll's {n_default} (bound {bound})"
        );
        rolls += 1;
        validations += k;
        worst = worst.max(extra as f64 / bound as f64);
    }
    println!(
        "validated rolls: {rolls} rolls, {validations} validations; worst roll at {:.0}% \
         of its bound",
        worst * 100.0
    );
    assert!(rolls > 80, "{rolls} rolls validated a rewrite");
}

/// What a graph build may ask the allocator for: each of its arenas,
/// maps and scratch buffers once (about a dozen, and two to spare), and each of the eight
/// that grow with the graph once more per doubling of its node count past
/// eight nodes.
const GRAPH_FIXED: u64 = 14;
const GRAPH_PER_DOUBLING: u64 = 8;

fn graph_bound(graph: &AlignGraph) -> u64 {
    let doublings = usize::BITS - (graph.num_nodes() / 8).leading_zeros();
    GRAPH_FIXED + GRAPH_PER_DOUBLING * u64::from(doublings)
}

/// Builds every candidate graph of every definition of the unrolled TSVC
/// kernels and of 128 AnghaBench-like modules, each in full (an unarmed
/// builder) and as the engine builds it (`build_candidate_graph`, which
/// stops early on a refusal), and bounds the allocations of each build by
/// a constant plus doublings of the full graph's size.
#[test]
fn candidate_graphs_allocate_per_graph_not_per_node() {
    let opts = RolagOptions::default();
    let angha = stream(&AnghaConfig {
        seed: 0x0a17_4a90,
        functions: 128,
    })
    .map(|(name, _, m)| (name, m));
    let modules = unrolled_tsvc()
        .map(|(name, m)| (name.to_string(), m))
        .chain(angha);
    let (mut graphs, mut nodes, mut allocs, mut worst) = (0u64, 0u64, 0u64, 0f64);
    for (name, m) in modules {
        for f in definitions(&m) {
            for cand in collect_candidates(&m, f, &opts) {
                if cand.lanes() < opts.min_lanes {
                    continue;
                }
                let what = format!("{name}/{} {cand:?}", f.name);
                let mut work = f.clone();
                let (full, n_full) = allocations(|| {
                    let mut b = GraphBuilder::new(&m, &mut work, cand.block(), &opts, cand.lanes());
                    b.build_roots(&cand);
                    b.finish()
                });
                let bound = graph_bound(&full);
                assert!(
                    n_full <= bound,
                    "{what}: a full build of {} nodes made {n_full} allocations (bound {bound})",
                    full.num_nodes()
                );
                let mut work = f.clone();
                let (armed, n_armed) =
                    allocations(|| build_candidate_graph(&m, &mut work, &cand, &opts));
                assert!(
                    n_armed <= bound,
                    "{what}: the engine's build of a graph of {} nodes made {n_armed} \
                     allocations (bound {bound})",
                    full.num_nodes()
                );
                if let Some(graph) = armed {
                    graphs += 1;
                    nodes += graph.num_nodes() as u64;
                    allocs += n_armed;
                    worst = worst.max(n_armed as f64 / bound as f64);
                }
                drop(full);
            }
        }
    }
    println!(
        "candidate graphs: {graphs} built, {nodes} nodes, {allocs} allocations; \
         worst build at {:.0}% of its bound",
        worst * 100.0
    );
    assert!(
        graphs > 300 && nodes > 3000,
        "{graphs} graphs, {nodes} nodes"
    );
}

/// One rolling rewrite with everything the validator is handed, as the
/// speculation core hands it over.
struct Rewrite {
    module: Module,
    tables: Vec<GlobalData>,
    orig: Function,
    rolled: Function,
    hints: RewriteHints,
    deps: BlockDeps,
}

impl Rewrite {
    fn validate(&self, scratch: &mut TvScratch) -> bool {
        validate_rewrite(
            &self.module,
            &self.tables,
            self.orig.pre_window(),
            &self.rolled,
            &self.hints,
            &self.deps,
            scratch,
        )
        .is_ok()
    }
}

/// The rewrites a `beam:4` step speculates on `f`: every base candidate
/// and every beam variant of it, each generated from `f` as it is.
fn beam_rewrites(m: &Module, f: &Function, opts: &RolagOptions) -> Vec<Rewrite> {
    let mut out = Vec::new();
    for base in collect_candidates(m, f, opts) {
        let variants = candidate_variants(m, f, &base, opts);
        for cand in std::iter::once(base).chain(variants) {
            if cand.lanes() < opts.min_lanes {
                continue;
            }
            let (mut module, mut rolled, block) = (m.clone(), f.clone(), cand.block());
            let Some(graph) = build_candidate_graph(&module, &mut rolled, &cand, opts) else {
                continue;
            };
            let mut cache = ScheduleCache::default();
            let Some(sched) = cache.analyze(&module, &rolled, block, &graph) else {
                continue;
            };
            let orig = rolled.clone();
            let deps = cache
                .block_deps(orig.revision(), block)
                .expect("the scheduler computed the block's dependences")
                .clone();
            let first_new_global = module.num_globals();
            let (uses, positions) = cache.indexes(&orig);
            let generated = codegen::generate(
                &mut module.types,
                first_new_global,
                &mut rolled,
                block,
                &graph,
                &sched,
                uses,
                positions,
            );
            let Some(outcome) = generated else {
                continue;
            };
            let hints = RewriteHints {
                lanes: graph.lanes,
                block,
                loop_block: outcome.loop_block,
                exit_block: outcome.exit_block,
                first_new_global,
                fast_math: opts.fast_math,
                claimed_lanes: graph
                    .graph_insts()
                    .filter_map(|i| Some((i, graph.claim_of(i)?.1)))
                    .collect(),
            };
            out.push(Rewrite {
                module,
                tables: outcome.tables,
                orig,
                rolled,
                hints,
                deps,
            });
        }
    }
    out
}

/// What one validation may ask the allocator for once its speculator's
/// scratch has validated the function's rewrites before.
const WARM_VALIDATION: u64 = 0;

/// The TSVC kernels unrolled ×4, ×8 and ×16, so that lane counts and block
/// sizes vary; for each definition, one scratch (as its speculator owns
/// one) first validates every rewrite a `beam:4` step speculates, then
/// validates them again, and each validation of the second round is
/// bounded by a constant.
#[test]
fn warm_validations_allocate_a_constant_whatever_the_rewrite() {
    let opts = RolagOptions::default();
    let (mut validations, mut allocs, mut lanes, mut insts) = (0u64, 0u64, Vec::new(), 0usize);
    for factor in [4, 8, 16] {
        for (name, m) in tsvc_unrolled_by(factor) {
            for f in definitions(&m) {
                let rewrites = beam_rewrites(&m, f, &opts);
                let mut scratch = TvScratch::new();
                for rw in &rewrites {
                    assert!(rw.validate(&mut scratch), "{name}/{}: x{factor}", f.name);
                }
                for rw in &rewrites {
                    // Debug builds also check the supplied dependences
                    // against a fresh compute, whose allocations are its own.
                    let check = if cfg!(debug_assertions) {
                        allocations(|| BlockDeps::compute(&rw.module, &rw.orig, rw.hints.block)).1
                    } else {
                        0
                    };
                    let (ok, n) = allocations(|| rw.validate(&mut scratch));
                    assert!(ok);
                    let bound = WARM_VALIDATION + check;
                    assert!(
                        n <= bound,
                        "{name}/{} x{factor}: a warm validation of {} lanes over a block of \
                         {} instructions made {n} allocations (bound {bound})",
                        f.name,
                        rw.hints.lanes,
                        rw.deps.len()
                    );
                    let n = n.saturating_sub(check);
                    validations += 1;
                    allocs += n;
                    lanes.push(rw.hints.lanes);
                    insts = insts.max(rw.deps.len());
                }
            }
        }
    }
    lanes.sort_unstable();
    lanes.dedup();
    println!(
        "warm validations: {validations} made {allocs} allocations; lane counts {lanes:?}, \
         blocks of up to {insts} instructions"
    );
    assert!(validations > 1000, "{validations} validations");
    assert!(lanes.len() >= 3, "lane counts {lanes:?}");
}
