//! Unit-level checks of the code generator's lowering decisions (§IV-E,
//! Fig. 14): which mismatch representation is chosen, how sequences are
//! materialized, and how externally used values leave the loop.

use rolag::{roll_module, RolagOptions};
use rolag_ir::interp::{check_equivalence, IValue};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::{GlobalInit, Module, Opcode};

fn roll(text: &str, entry: &str, args: &[IValue]) -> (Module, Module) {
    let original = parse_module(text).unwrap();
    let mut rolled = original.clone();
    let stats = roll_module(&mut rolled, &RolagOptions::default());
    assert!(
        stats.rolled >= 1,
        "expected a roll:\n{}",
        print_module(&rolled)
    );
    check_equivalence(&original, &rolled, entry, args).expect("equivalent");
    (original, rolled)
}

/// Counts live instructions with the given opcode across the function.
fn count_ops(m: &Module, func: &str, op: Opcode) -> usize {
    let f = m.func(m.func_by_name(func).unwrap());
    f.live_insts().filter(|&i| f.inst(i).opcode == op).count()
}

#[test]
fn constant_mismatches_become_rodata_arrays() {
    // Stored values have no progression; with enough lanes the roll pays
    // for a constant global array and no alloca is needed.
    let vals = [5, 1, 0, 9, 2, 8, 4, 3, 7, 6, 11, 10];
    let mut text =
        String::from("module \"t\"\nglobal @a : [12 x i32] = zero\nfunc @f() -> void {\nentry:\n");
    for (i, v) in vals.iter().enumerate() {
        text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
        text.push_str(&format!("  store i32 {v}, %g{i}\n"));
    }
    text.push_str("  ret\n}\n");
    let (orig, rolled) = roll(&text, "f", &[]);

    let new_consts: Vec<_> = rolled
        .global_ids()
        .filter(|&g| rolled.global(g).is_const)
        .collect();
    assert_eq!(new_consts.len(), 1, "one rodata array");
    match &rolled.global(new_consts[0]).init {
        GlobalInit::Ints { values, .. } => {
            assert_eq!(values, &vals.to_vec());
        }
        other => panic!("expected int initializer, got {other:?}"),
    }
    assert_eq!(count_ops(&rolled, "f", Opcode::Alloca), 0);
    assert_eq!(orig.num_globals() + 1, rolled.num_globals());
}

#[test]
fn pointer_mismatches_become_stack_arrays() {
    // Each lane loads from a *different* global scalar: the pointer group
    // mismatches with non-integer constants (addresses), which cannot form
    // a rodata int array — the generator must fill a stack array in the
    // preheader. Pointer stack arrays are expensive, so the profitability
    // analysis usually rejects them (the paper's Fig. 16 shows very few
    // mismatching nodes in *profitable* graphs); we therefore drive the
    // generator directly and check the form plus behavioural equivalence.
    let n = 12;
    let mut text = String::from("module \"t\"\n");
    for i in 0..n {
        text.push_str(&format!("global @s{i} : i32 = ints i32 [{}]\n", i * 9 + 1));
    }
    text.push_str(&format!("global @a : [{n} x i32] = zero\n"));
    text.push_str("func @f() -> void {\nentry:\n");
    for i in 0..n {
        text.push_str(&format!("  %v{i} = load i32, @s{i}\n"));
        text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
        text.push_str(&format!("  store %v{i}, %g{i}\n"));
    }
    text.push_str("  ret\n}\n");

    let original = parse_module(&text).unwrap();
    let opts = RolagOptions::default();
    let mut rolled = original.clone();
    let fid = rolled.func_by_name("f").unwrap();
    let mut attempt = rolled.func(fid).clone();
    let block = attempt.entry_block();

    let cands = rolag::collect_candidates(&rolled, &attempt, &opts);
    let rolag::Candidate::Seeds { groups, .. } = &cands[0] else {
        panic!("expected a seed candidate");
    };
    let mut builder =
        rolag::GraphBuilder::new(&original, &mut attempt, block, &opts, groups[0].len());
    builder.build_seed_root(&groups[0]).expect("seeds align");
    let graph = builder.finish();
    assert_eq!(graph.count_kinds().mismatching, 1, "the pointer group");

    let sched = rolag::schedule::analyze(&original, &attempt, block, &graph).expect("schedules");
    let uses = attempt.compute_uses();
    rolag::codegen::generate(&mut rolled, &mut attempt, block, &graph, &sched, &uses)
        .expect("generates");
    rolled.replace_func(fid, attempt);
    rolag_ir::verify::verify_module(&rolled).expect("verifies");

    assert!(count_ops(&rolled, "f", Opcode::Alloca) >= 1, "stack array");
    // No rodata int array was created for the pointer mismatches.
    assert_eq!(
        rolled
            .global_ids()
            .filter(|&g| rolled.global(g).is_const)
            .count(),
        0
    );
    check_equivalence(&original, &rolled, "f", &[]).expect("equivalent");
}

#[test]
fn unit_sequences_use_the_induction_variable_directly() {
    // Indices 0..7 step 1 = the iv itself: no mul/extra add for the index
    // materialization beyond the latch increment.
    let mut text = String::from(
        "module \"t\"\nglobal @a : [8 x i64] = zero\nfunc @f(i64 %p0) -> void {\nentry:\n",
    );
    for i in 0..8 {
        text.push_str(&format!("  %g{i} = gep i64, @a, i64 {i}\n"));
        text.push_str(&format!("  store %p0, %g{i}\n"));
    }
    text.push_str("  ret\n}\n");
    let (_, rolled) = roll(&text, "f", &[IValue::Int(9)]);
    // One add (latch), no mul.
    assert_eq!(count_ops(&rolled, "f", Opcode::Add), 1);
    assert_eq!(count_ops(&rolled, "f", Opcode::Mul), 0);
}

#[test]
fn strided_sequences_materialize_one_multiply() {
    // Stored values 0,7,14,...: value = iv*7 (a single mul, no extra add).
    let mut text =
        String::from("module \"t\"\nglobal @a : [8 x i32] = zero\nfunc @f() -> void {\nentry:\n");
    for i in 0..8 {
        text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
        text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7));
    }
    text.push_str("  ret\n}\n");
    let (_, rolled) = roll(&text, "f", &[]);
    assert_eq!(count_ops(&rolled, "f", Opcode::Mul), 1);
    // adds: latch only (value needs no add since start == 0).
    assert_eq!(count_ops(&rolled, "f", Opcode::Add), 1);
}

#[test]
fn general_sequences_materialize_mul_plus_add() {
    // Values 5,12,19,...: value = iv*7 + 5.
    let mut text =
        String::from("module \"t\"\nglobal @a : [8 x i32] = zero\nfunc @f() -> void {\nentry:\n");
    for i in 0..8 {
        text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
        text.push_str(&format!("  store i32 {}, %g{i}\n", i * 7 + 5));
    }
    text.push_str("  ret\n}\n");
    let (_, rolled) = roll(&text, "f", &[]);
    assert_eq!(count_ops(&rolled, "f", Opcode::Mul), 1);
    assert_eq!(count_ops(&rolled, "f", Opcode::Add), 2, "value add + latch");
}

#[test]
fn final_lane_escape_uses_loop_value_directly() {
    // Only the last store's value escapes (returned): no out-array needed.
    let text = r#"
module "t"
declare @seed(i32 %p0) -> i32 readnone
global @a : [6 x i32] = zero
func @f() -> i32 {
entry:
  %c0 = call i32 @seed(i32 0)
  %g0 = gep i32, @a, i64 0
  store %c0, %g0
  %c1 = call i32 @seed(i32 1)
  %g1 = gep i32, @a, i64 1
  store %c1, %g1
  %c2 = call i32 @seed(i32 2)
  %g2 = gep i32, @a, i64 2
  store %c2, %g2
  %c3 = call i32 @seed(i32 3)
  %g3 = gep i32, @a, i64 3
  store %c3, %g3
  %c4 = call i32 @seed(i32 4)
  %g4 = gep i32, @a, i64 4
  store %c4, %g4
  %c5 = call i32 @seed(i32 5)
  %g5 = gep i32, @a, i64 5
  store %c5, %g5
  ret %c5
}
"#;
    let (_, rolled) = roll(text, "f", &[]);
    // No alloca: the escaping value is the final iteration's call result.
    assert_eq!(count_ops(&rolled, "f", Opcode::Alloca), 0);
}

#[test]
fn intermediate_lane_escape_goes_through_an_array() {
    // The *third* call's result escapes: it must be saved per iteration.
    let text = r#"
module "t"
declare @seed(i32 %p0) -> i32 readnone
global @a : [8 x i32] = zero
func @f() -> i32 {
entry:
  %c0 = call i32 @seed(i32 0)
  %g0 = gep i32, @a, i64 0
  store %c0, %g0
  %c1 = call i32 @seed(i32 1)
  %g1 = gep i32, @a, i64 1
  store %c1, %g1
  %c2 = call i32 @seed(i32 2)
  %g2 = gep i32, @a, i64 2
  store %c2, %g2
  %c3 = call i32 @seed(i32 3)
  %g3 = gep i32, @a, i64 3
  store %c3, %g3
  %c4 = call i32 @seed(i32 4)
  %g4 = gep i32, @a, i64 4
  store %c4, %g4
  %c5 = call i32 @seed(i32 5)
  %g5 = gep i32, @a, i64 5
  store %c5, %g5
  %c6 = call i32 @seed(i32 6)
  %g6 = gep i32, @a, i64 6
  store %c6, %g6
  %c7 = call i32 @seed(i32 7)
  %g7 = gep i32, @a, i64 7
  store %c7, %g7
  ret %c2
}
"#;
    let (_, rolled) = roll(text, "f", &[]);
    assert!(count_ops(&rolled, "f", Opcode::Alloca) >= 1, "out-array");
    // The exit block reloads the escaped lane.
    let f = rolled.func(rolled.func_by_name("f").unwrap());
    let exit = f
        .block_ids()
        .find(|&b| f.block(b).name.starts_with("rolag.exit"))
        .expect("exit block exists");
    assert!(f
        .block(exit)
        .insts
        .iter()
        .any(|&i| f.inst(i).opcode == Opcode::Load));
}

#[test]
fn preheader_loop_exit_structure() {
    let mut text =
        String::from("module \"t\"\nglobal @a : [8 x i32] = zero\nfunc @f() -> void {\nentry:\n");
    for i in 0..8 {
        text.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
        text.push_str(&format!("  store i32 {}, %g{i}\n", i));
    }
    text.push_str("  ret\n}\n");
    let (_, rolled) = roll(&text, "f", &[]);
    let f = rolled.func(rolled.func_by_name("f").unwrap());
    assert_eq!(f.num_blocks(), 3);
    // entry: br loop; loop: phi ... condbr; exit: ret.
    let entry = f.entry_block();
    assert_eq!(f.successors(entry).len(), 1);
    let lp = f.successors(entry)[0];
    let succs = f.successors(lp);
    assert_eq!(succs.len(), 2);
    assert!(succs.contains(&lp), "loop back edge");
    let exit = *succs.iter().find(|&&b| b != lp).unwrap();
    assert_eq!(f.successors(exit).len(), 0, "exit returns");
    // The loop begins with the iv phi.
    assert_eq!(f.inst(f.block(lp).insts[0]).opcode, Opcode::Phi);
}
