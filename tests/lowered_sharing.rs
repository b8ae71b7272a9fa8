//! The lowered program is a hash-consed DAG: every structurally
//! distinct subexpression of a Figure 9 row is one allocation, while
//! the trees the consumers walk are those of the unshared lowering.

use psketch_repro::core::Synthesis;
use psketch_repro::ir::{Lowered, Rv};
use psketch_repro::suite::figure9_runs;
use std::collections::HashMap;
use std::sync::Arc;

/// A node's structure with its children replaced by their numbers.
fn shape(rv: &Rv, child: impl Fn(&Arc<Rv>) -> usize) -> String {
    match rv {
        Rv::Const(_) | Rv::Global(_) | Rv::Local(_) | Rv::Hole(_) => format!("{rv:?}"),
        Rv::GlobalDyn { base, len, ix } => format!("gdyn {base} {len} {}", child(ix)),
        Rv::LocalDyn { base, len, ix } => format!("ldyn {base} {len} {}", child(ix)),
        Rv::Field { sid, fid, obj } => format!("field {sid} {fid} {}", child(obj)),
        Rv::Unary(op, a) => format!("{op:?} {}", child(a)),
        Rv::Binary(op, a, b) => format!("{op:?} {} {}", child(a), child(b)),
        Rv::Ite(c, a, b) => format!("ite {} {} {}", child(c), child(a), child(b)),
    }
}

/// Numbers every allocation reachable from a step, bottom-up and
/// structurally: two nodes get one number exactly when they are equal
/// trees. Returns each allocation's number, by address, after
/// asserting that no number belongs to two allocations. Also returns
/// how many nodes the program's expressions hold when expanded into
/// trees, roots included.
fn number_allocations(l: &Lowered, label: &str) -> (HashMap<*const Rv, usize>, u64) {
    let mut number: HashMap<*const Rv, usize> = HashMap::new();
    let mut size: HashMap<*const Rv, u64> = HashMap::new();
    let mut by_shape: HashMap<String, usize> = HashMap::new();
    let mut owner: HashMap<usize, *const Rv> = HashMap::new();
    let mut expanded = 0u64;
    for tid in 0..l.num_threads() {
        for step in &l.thread(tid).steps {
            step.for_each_expr(|root| {
                // Post-order over the allocations not numbered yet.
                let mut stack: Vec<(&Arc<Rv>, bool)> =
                    root.children().map(|c| (c, false)).collect();
                while let Some((node, expanded_children)) = stack.pop() {
                    let ptr = Arc::as_ptr(node);
                    if number.contains_key(&ptr) {
                        continue;
                    }
                    if !expanded_children {
                        stack.push((node, true));
                        stack.extend(node.children().map(|c| (c, false)));
                        continue;
                    }
                    let key = shape(node, |c| number[&Arc::as_ptr(c)]);
                    let next = by_shape.len();
                    let n = *by_shape.entry(key).or_insert(next);
                    let first = *owner.entry(n).or_insert(ptr);
                    assert_eq!(
                        first, ptr,
                        "{label}: two allocations hold the same expression {node}"
                    );
                    number.insert(ptr, n);
                    let tree = 1 + node.children().map(|c| size[&Arc::as_ptr(c)]).sum::<u64>();
                    size.insert(ptr, tree);
                }
                expanded += 1 + root.children().map(|c| size[&Arc::as_ptr(c)]).sum::<u64>();
            });
        }
    }
    (number, expanded)
}

#[test]
fn every_distinct_subexpression_is_one_allocation() {
    let mut fineset2 = None;
    for run in figure9_runs() {
        let label = format!("{} [{}]", run.benchmark, run.test);
        let s = Synthesis::new(&run.source, run.options.clone()).expect("row lowers");
        let l = s.lowered();
        let (number, expanded) = number_allocations(l, &label);
        // One number per allocation and one allocation per number.
        assert_eq!(number.len(), l.expr_nodes(), "{label}");
        assert!(l.heap_bytes() > 0, "{label}");
        if run.benchmark == "fineset2" && run.test == "ar(aaaa|rrrr)" {
            fineset2 = Some((number.len(), expanded));
        }
    }
    let (nodes, expanded) = fineset2.expect("fineset2 ar(aaaa|rrrr) is a Figure 9 row");
    assert!(nodes <= 9_000, "fineset2 ar(aaaa|rrrr) holds {nodes} nodes");
    assert_eq!(
        expanded, 647_379,
        "the expanded trees are the unshared lowering's"
    );
}
