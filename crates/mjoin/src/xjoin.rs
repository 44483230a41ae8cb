//! XJoin baseline: binary join trees with materialized subresults.
//!
//! §1 of the paper: *"an XJoin, which is a tree of two-way joins, maintains a
//! join subresult for each intermediate two-way join in the plan"* (Figure
//! 1(b)). The root's result is streamed out, not stored; every other internal
//! node keeps its subresult fully materialized and incrementally maintained.
//!
//! [`XJoin`] implements the executor; [`JoinTree`] the plan shape;
//! [`best_tree`] an exhaustive search over all binary trees ranked by an
//! estimated unit-time cost (the paper's `X` baseline is also *"chosen by
//! exhaustive search"*, §7.3).

use crate::clock::CostModel;
use crate::exec::JoinCore;
use crate::plan::CompiledOp;
use crate::stats::WorkloadStats;
use acq_sketch::FxHashMap;
use acq_stream::schema::EquivClassId;
use acq_stream::{AttrRef, Composite, Op, QuerySchema, RelId, Update, Value};
use std::fmt;

/// A binary join tree over the query's relations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinTree {
    /// A base relation.
    Leaf(RelId),
    /// A two-way join of two subtrees.
    Node(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// Convenience: left-deep tree over `rels` in the given order.
    pub fn left_deep(rels: &[RelId]) -> JoinTree {
        assert!(rels.len() >= 2);
        let mut t = JoinTree::Leaf(rels[0]);
        for &r in &rels[1..] {
            t = JoinTree::Node(Box::new(t), Box::new(JoinTree::Leaf(r)));
        }
        t
    }

    /// Relations covered by this subtree, sorted.
    pub fn rels(&self) -> Vec<RelId> {
        let mut v = Vec::new();
        self.collect_rels(&mut v);
        v.sort_unstable();
        v
    }

    fn collect_rels(&self, out: &mut Vec<RelId>) {
        match self {
            JoinTree::Leaf(r) => out.push(*r),
            JoinTree::Node(l, r) => {
                l.collect_rels(out);
                r.collect_rels(out);
            }
        }
    }

    /// Number of internal nodes.
    pub fn internal_nodes(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 0,
            JoinTree::Node(l, r) => 1 + l.internal_nodes() + r.internal_nodes(),
        }
    }
}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinTree::Leaf(r) => write!(f, "R{}", r.0),
            JoinTree::Node(l, r) => write!(f, "({l} ⋈ {r})"),
        }
    }
}

/// Reference to a child of an internal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildRef {
    Leaf(RelId),
    Node(usize),
}

/// Identity of a stored composite row (packed, `Copy`).
type RowKey = acq_stream::CompositeId;

/// Materialized subresult of one internal node: rows indexed by the
/// equivalence-class values crossing to the node's sibling.
#[derive(Debug, Default)]
struct SubStore {
    rows: FxHashMap<RowKey, Composite>,
    /// probe-key values → row keys.
    index: FxHashMap<Vec<Value>, Vec<RowKey>>,
    /// Attributes (one per crossing class at the parent boundary) used to
    /// compute a stored row's index key.
    key_attrs: Vec<AttrRef>,
    bytes: usize,
}

impl SubStore {
    fn key_of(&self, c: &Composite) -> Vec<Value> {
        self.key_attrs
            .iter()
            .map(|a| c.get(*a).expect("key attr bound in subresult").clone())
            .collect()
    }

    fn insert(&mut self, c: Composite) {
        let key = self.key_of(&c);
        let id = c.identity();
        self.bytes += c.ref_memory_bytes() + key.iter().map(Value::memory_bytes).sum::<usize>();
        self.index.entry(key).or_default().push(id);
        self.rows.insert(id, c);
    }

    fn delete(&mut self, c: &Composite) {
        let id = c.identity();
        if let Some(stored) = self.rows.remove(&id) {
            let key = self.key_of(&stored);
            self.bytes -=
                stored.ref_memory_bytes() + key.iter().map(Value::memory_bytes).sum::<usize>();
            if let Some(list) = self.index.get_mut(&key) {
                if let Some(pos) = list.iter().position(|k| *k == id) {
                    list.swap_remove(pos);
                }
                if list.is_empty() {
                    self.index.remove(&key);
                }
            }
        }
    }

    fn probe(&self, key: &[Value]) -> impl Iterator<Item = &Composite> {
        self.index
            .get(key)
            .into_iter()
            .flat_map(|list| list.iter())
            .map(|id| self.rows.get(id).expect("index/rows in sync"))
    }

    fn len(&self) -> usize {
        self.rows.len()
    }
}

/// One internal node of the flattened tree.
#[derive(Debug)]
struct NodeState {
    left: ChildRef,
    right: ChildRef,
    rels: Vec<RelId>,
    /// Crossing classes between left and right child (the node's own join).
    /// For each: (class, attr on left side, attr on right side).
    join_keys: Vec<(EquivClassId, AttrRef, AttrRef)>,
    /// Materialization; `None` for the root.
    store: Option<SubStore>,
    /// Parent node index (`usize::MAX` for root).
    parent: usize,
}

/// XJoin executor.
#[derive(Debug)]
pub struct XJoin {
    core: JoinCore,
    tree: JoinTree,
    nodes: Vec<NodeState>,
    /// For each relation: path of node indexes from its leaf's parent to the
    /// root, plus which side the relation enters on at each step.
    paths: Vec<Vec<(usize, bool)>>, // (node idx, entering_left)
    tuples_processed: u64,
    outputs_emitted: u64,
}

impl XJoin {
    /// Build an XJoin for `query` with plan `tree`.
    ///
    /// # Panics
    /// Panics if the tree's leaves are not exactly the query's relations.
    pub fn new(query: QuerySchema, tree: JoinTree) -> XJoin {
        XJoin::from_core(JoinCore::new(query), tree)
    }

    /// Build from a preconfigured core.
    pub fn from_core(core: JoinCore, tree: JoinTree) -> XJoin {
        let n = core.query().num_relations();
        let expected: Vec<RelId> = core.query().rel_ids().collect();
        assert_eq!(tree.rels(), expected, "tree must cover the query exactly");

        let mut nodes: Vec<NodeState> = Vec::new();
        build_nodes(core.query(), &tree, &mut nodes);
        let root = nodes.len() - 1;
        // Root is streamed, not stored.
        nodes[root].store = None;

        // Parent links.
        for i in 0..nodes.len() {
            for child in [nodes[i].left, nodes[i].right] {
                if let ChildRef::Node(c) = child {
                    nodes[c].parent = i;
                }
            }
        }
        // Index keys for materialized nodes: crossing classes at the parent
        // boundary, evaluated from the node's side.
        for i in 0..nodes.len() {
            let parent = nodes[i].parent;
            if parent == usize::MAX {
                continue;
            }
            let sibling_rels: Vec<RelId> = {
                let p = &nodes[parent];
                let sib = if p.left == ChildRef::Node(i) {
                    p.right
                } else {
                    p.left
                };
                child_rels(&nodes, sib)
            };
            let classes = core.query().crossing_classes(&sibling_rels, &nodes[i].rels);
            let key_attrs = core
                .query()
                .class_representatives(&classes, &nodes[i].rels)
                .expect("crossing classes have representatives on the node side");
            if let Some(store) = nodes[i].store.as_mut() {
                store.key_attrs = key_attrs;
            }
        }

        // Leaf → root paths.
        let mut paths = vec![Vec::new(); n];
        for (idx, node) in nodes.iter().enumerate() {
            for (child, is_left) in [(node.left, true), (node.right, false)] {
                if let ChildRef::Leaf(r) = child {
                    // Start of the path for r.
                    let mut path = vec![(idx, is_left)];
                    let mut cur = idx;
                    while nodes[cur].parent != usize::MAX {
                        let p = nodes[cur].parent;
                        let entering_left = nodes[p].left == ChildRef::Node(cur);
                        path.push((p, entering_left));
                        cur = p;
                    }
                    paths[r.0 as usize] = path;
                }
            }
        }

        XJoin {
            core,
            tree,
            nodes,
            paths,
            tuples_processed: 0,
            outputs_emitted: 0,
        }
    }

    /// The plan shape.
    pub fn tree(&self) -> &JoinTree {
        &self.tree
    }

    /// The execution core.
    pub fn core(&self) -> &JoinCore {
        &self.core
    }

    /// Total bytes of materialized subresults (the paper's Figure 13 memory
    /// axis).
    pub fn materialized_bytes(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.store.as_ref())
            .map(|s| s.bytes)
            .sum()
    }

    /// Total materialized rows across internal nodes.
    pub fn materialized_rows(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.store.as_ref())
            .map(SubStore::len)
            .sum()
    }

    /// Updates processed so far.
    pub fn tuples_processed(&self) -> u64 {
        self.tuples_processed
    }

    /// Result deltas emitted so far.
    pub fn outputs_emitted(&self) -> u64 {
        self.outputs_emitted
    }

    /// Human-readable description of each internal node: covered relations,
    /// join equivalence classes, and current materialized row count.
    pub fn describe_nodes(&self) -> Vec<String> {
        self.nodes
            .iter()
            .map(|n| {
                let rels: Vec<String> = n.rels.iter().map(|r| format!("R{}", r.0)).collect();
                let keys: Vec<String> = n
                    .join_keys
                    .iter()
                    .map(|(c, l, r)| format!("class{}:{}={}", c.0, l, r))
                    .collect();
                let rows = n.store.as_ref().map(SubStore::len);
                match rows {
                    Some(rows) => format!(
                        "[{}] on {} ({} rows materialized)",
                        rels.join(","),
                        keys.join(","),
                        rows
                    ),
                    None => format!(
                        "[{}] on {} (root, streamed)",
                        rels.join(","),
                        keys.join(",")
                    ),
                }
            })
            .collect()
    }

    /// Updates per virtual second.
    pub fn processing_rate(&self) -> f64 {
        let secs = self.core.now_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.tuples_processed as f64 / secs
        }
    }

    /// Process one update; returns the n-way result deltas.
    pub fn process(&mut self, u: &Update) -> Vec<(Op, Composite)> {
        self.tuples_processed += 1;
        let Some(tref) = self.core.apply_update(u) else {
            return Vec::new();
        };
        let mut deltas = vec![Composite::unit(tref)];
        let path = self.paths[u.rel.0 as usize].clone();
        for (node_idx, entering_left) in path {
            if deltas.is_empty() {
                break;
            }
            deltas = self.join_at_node(node_idx, entering_left, deltas, u.op);
        }
        self.core.charge_outputs(deltas.len());
        self.outputs_emitted += deltas.len() as u64;
        deltas.into_iter().map(|c| (u.op, c)).collect()
    }

    /// Join a batch of child deltas with the opposite child at `node_idx`,
    /// maintain the node's materialization, and return the node's deltas.
    fn join_at_node(
        &mut self,
        node_idx: usize,
        entering_left: bool,
        deltas: Vec<Composite>,
        op: Op,
    ) -> Vec<Composite> {
        let opposite = if entering_left {
            self.nodes[node_idx].right
        } else {
            self.nodes[node_idx].left
        };
        let mut out = Vec::new();
        match opposite {
            ChildRef::Leaf(r) => {
                // Compile an operator joining the leaf against the delta's
                // bound relations (all rels of the entering child).
                let entering = if entering_left {
                    self.nodes[node_idx].left
                } else {
                    self.nodes[node_idx].right
                };
                let prefix = child_rels(&self.nodes, entering);
                let op_c =
                    CompiledOp::compile(self.core.query(), self.core.relations(), &prefix, r);
                for d in &deltas {
                    self.core.probe_join(d, &op_c, &mut out);
                }
            }
            ChildRef::Node(sib) => {
                // Probe the sibling's materialization on the crossing-class
                // key evaluated from the delta side.
                let (key_attrs_delta, probe_cost, hit_cost) = {
                    assert!(
                        self.nodes[sib].store.is_some(),
                        "non-root internal nodes are materialized"
                    );
                    let entering_rels = if entering_left {
                        child_rels(&self.nodes, self.nodes[node_idx].left)
                    } else {
                        child_rels(&self.nodes, self.nodes[node_idx].right)
                    };
                    let classes: Vec<EquivClassId> = self
                        .core
                        .query()
                        .crossing_classes(&entering_rels, &self.nodes[sib].rels);
                    let key_attrs = self
                        .core
                        .query()
                        .class_representatives(&classes, &entering_rels)
                        .expect("representatives on delta side");
                    let m = self.core.cost_model();
                    (key_attrs, m.index_probe, m.per_match + m.concat)
                };
                let mut total_cost = 0u64;
                for d in &deltas {
                    let key: Vec<Value> = key_attrs_delta
                        .iter()
                        .map(|a| d.get(*a).expect("delta binds key attr").clone())
                        .collect();
                    total_cost += probe_cost;
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    let store = self.nodes[sib].store.as_ref().unwrap();
                    for partner in store.probe(&key) {
                        out.push(d.concat(partner));
                        total_cost += hit_cost;
                    }
                }
                self.core.charge(total_cost);
            }
        }
        // Maintain this node's materialization (root has none).
        let maint_cost = {
            let m = self.core.cost_model();
            match op {
                Op::Insert => m.store_insert,
                Op::Delete => m.store_delete,
            }
        };
        if self.nodes[node_idx].store.is_some() {
            let store = self.nodes[node_idx].store.as_mut().unwrap();
            match op {
                Op::Insert => {
                    for c in &out {
                        store.insert(c.clone());
                    }
                }
                Op::Delete => {
                    for c in &out {
                        store.delete(c);
                    }
                }
            }
            self.core.charge(out.len() as u64 * maint_cost);
        }
        out
    }
}

fn child_rels(nodes: &[NodeState], c: ChildRef) -> Vec<RelId> {
    match c {
        ChildRef::Leaf(r) => vec![r],
        ChildRef::Node(i) => nodes[i].rels.clone(),
    }
}

/// Flatten the tree into post-order `NodeState`s; returns the subtree's
/// child-ref.
fn build_nodes(query: &QuerySchema, tree: &JoinTree, nodes: &mut Vec<NodeState>) -> ChildRef {
    match tree {
        JoinTree::Leaf(r) => ChildRef::Leaf(*r),
        JoinTree::Node(l, r) => {
            let left = build_nodes(query, l, nodes);
            let right = build_nodes(query, r, nodes);
            let mut rels = match left {
                ChildRef::Leaf(x) => vec![x],
                ChildRef::Node(i) => nodes[i].rels.clone(),
            };
            rels.extend(match right {
                ChildRef::Leaf(x) => vec![x],
                ChildRef::Node(i) => nodes[i].rels.clone(),
            });
            rels.sort_unstable();
            let left_rels = match left {
                ChildRef::Leaf(x) => vec![x],
                ChildRef::Node(i) => nodes[i].rels.clone(),
            };
            let right_rels = match right {
                ChildRef::Leaf(x) => vec![x],
                ChildRef::Node(i) => nodes[i].rels.clone(),
            };
            let classes = query.crossing_classes(&left_rels, &right_rels);
            let join_keys = classes
                .iter()
                .map(|&cls| {
                    let la = query.class_representatives(&[cls], &left_rels).unwrap()[0];
                    let ra = query.class_representatives(&[cls], &right_rels).unwrap()[0];
                    (cls, la, ra)
                })
                .collect();
            nodes.push(NodeState {
                left,
                right,
                rels,
                join_keys,
                store: Some(SubStore::default()),
                parent: usize::MAX,
            });
            ChildRef::Node(nodes.len() - 1)
        }
    }
}

/// Estimated cardinality of the join of `rels` under independence
/// assumptions: product of sizes, discounted once per "extra" member of each
/// equivalence class present in the set.
pub fn estimated_size(query: &QuerySchema, stats: &WorkloadStats, rels: &[RelId]) -> f64 {
    let mut size: f64 = rels
        .iter()
        .map(|r| stats.sizes[r.0 as usize].max(0.0))
        .product();
    // For each equivalence class, count predicates spanning inside the set;
    // apply each spanning predicate's selectivity once per independent
    // constraint (class members − 1).
    let mut per_class: FxHashMap<EquivClassId, (usize, f64, usize)> = FxHashMap::default();
    for p in query.predicates() {
        if rels.contains(&p.left.rel) && rels.contains(&p.right.rel) {
            if let Some(c) = query.equiv_class(p.left) {
                let e = per_class.entry(c).or_insert((0, 0.0, 0));
                e.0 += 1;
                e.1 += stats.sel[p.left.rel.0 as usize][p.right.rel.0 as usize];
            }
        }
        // Count class membership inside the set (for transitive closure).
        for a in [p.left, p.right] {
            if rels.contains(&a.rel) {
                if let Some(c) = query.equiv_class(a) {
                    per_class.entry(c).or_insert((0, 0.0, 0));
                }
            }
        }
    }
    for (&class, &(npreds, sel_sum, _)) in per_class.iter() {
        if npreds == 0 {
            continue;
        }
        let avg_sel = (sel_sum / npreds as f64).clamp(0.0, 1.0);
        // Members of this class inside the set:
        let members = rels
            .iter()
            .filter(|&&r| {
                let schema = query.relation(r);
                (0..schema.arity() as u16).any(|c| {
                    query.equiv_class(AttrRef {
                        rel: r,
                        col: acq_stream::ColId(c),
                    }) == Some(class)
                })
            })
            .count();
        if members >= 2 {
            size *= avg_sel.powi(members as i32 - 1);
        }
    }
    size
}

/// Estimated unit-time maintenance cost of an XJoin tree: for each stream,
/// rate × (sum over ancestor nodes of expected delta cardinality there),
/// where the delta cardinality at node `N ∋ i` is `|N| / |R_i|`.
pub fn estimated_tree_cost(query: &QuerySchema, stats: &WorkloadStats, tree: &JoinTree) -> f64 {
    let mut cost = 0.0;
    let mut node_sets: Vec<Vec<RelId>> = Vec::new();
    collect_node_sets(tree, &mut node_sets);
    for r in query.rel_ids() {
        let rate = stats.rates[r.0 as usize];
        let size_r = stats.sizes[r.0 as usize].max(1.0);
        for set in &node_sets {
            if set.contains(&r) {
                let card = estimated_size(query, stats, set) / size_r;
                cost += rate * card.max(1.0);
            }
        }
    }
    cost
}

fn collect_node_sets(tree: &JoinTree, out: &mut Vec<Vec<RelId>>) {
    if let JoinTree::Node(l, r) = tree {
        collect_node_sets(l, out);
        collect_node_sets(r, out);
        out.push(tree.rels());
    }
}

/// Total expected memory (rows) of a tree's materialized non-root nodes.
pub fn estimated_tree_memory_rows(
    query: &QuerySchema,
    stats: &WorkloadStats,
    tree: &JoinTree,
) -> f64 {
    let mut sets = Vec::new();
    collect_node_sets(tree, &mut sets);
    sets.pop(); // root not materialized
    sets.iter().map(|s| estimated_size(query, stats, s)).sum()
}

/// Enumerate every binary join tree over the query's relations.
/// Exponential — intended for `n ≤ 7` (the paper's XJoin comparisons use
/// `n = 4`).
pub fn all_trees(query: &QuerySchema) -> Vec<JoinTree> {
    let rels: Vec<RelId> = query.rel_ids().collect();
    enumerate(&rels)
}

fn enumerate(rels: &[RelId]) -> Vec<JoinTree> {
    if rels.len() == 1 {
        return vec![JoinTree::Leaf(rels[0])];
    }
    let mut out = Vec::new();
    let n = rels.len();
    // Iterate proper subsets containing rels[0] (to halve symmetric
    // duplicates): mask bits select which of rels[1..] join the left side;
    // the all-ones mask (empty right side) is excluded by the range.
    for mask in 0u32..((1 << (n - 1)) - 1) {
        let mut left = vec![rels[0]];
        let mut right = Vec::new();
        for (i, &r) in rels.iter().enumerate().skip(1) {
            if mask & (1 << (i - 1)) != 0 {
                left.push(r);
            } else {
                right.push(r);
            }
        }
        if right.is_empty() {
            continue;
        }
        for l in enumerate(&left) {
            for r in enumerate(&right) {
                out.push(JoinTree::Node(Box::new(l.clone()), Box::new(r.clone())));
            }
        }
    }
    out
}

/// Exhaustive best-tree search by estimated cost; optionally constrained to
/// trees whose estimated materialized rows fit `memory_rows`.
pub fn best_tree(
    query: &QuerySchema,
    stats: &WorkloadStats,
    memory_rows: Option<f64>,
) -> Option<JoinTree> {
    all_trees(query)
        .into_iter()
        .filter(|t| match memory_rows {
            Some(cap) => estimated_tree_memory_rows(query, stats, t) <= cap,
            None => true,
        })
        .min_by(|a, b| {
            estimated_tree_cost(query, stats, a)
                .partial_cmp(&estimated_tree_cost(query, stats, b))
                .unwrap()
        })
}

/// Unused cost-model accessor kept for cost experiments.
pub fn subresult_maintenance_cost(model: &CostModel, rows: usize) -> u64 {
    rows as u64 * model.store_insert
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_stream::TupleData;

    fn upd(rel: u16, op: Op, vals: &[i64], ts: u64) -> Update {
        Update {
            op,
            rel: RelId(rel),
            data: TupleData::ints(vals),
            ts,
        }
    }

    #[test]
    fn tree_shapes() {
        let t = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]);
        assert_eq!(t.rels(), vec![RelId(0), RelId(1), RelId(2)]);
        assert_eq!(t.internal_nodes(), 2);
        assert_eq!(format!("{t}"), "((R0 ⋈ R1) ⋈ R2)");
    }

    #[test]
    fn enumeration_counts() {
        // Unordered binary trees over n labeled leaves: (2n-3)!! shapes.
        assert_eq!(all_trees(&QuerySchema::star(2)).len(), 1);
        assert_eq!(all_trees(&QuerySchema::star(3)).len(), 3);
        assert_eq!(all_trees(&QuerySchema::star(4)).len(), 15);
        assert_eq!(all_trees(&QuerySchema::star(5)).len(), 105);
    }

    #[test]
    fn xjoin_matches_oracle_semantics() {
        use crate::oracle::{canonical_rows, multiset_diff, Oracle};

        let q = QuerySchema::chain3();
        let tree = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]);
        let mut x = XJoin::new(q.clone(), tree);
        let mut o = Oracle::new(q.clone());

        let updates = vec![
            upd(0, Op::Insert, &[1], 0),
            upd(1, Op::Insert, &[1, 2], 1),
            upd(2, Op::Insert, &[2], 2),
            upd(0, Op::Insert, &[1], 3), // duplicate R tuple
            upd(2, Op::Insert, &[2], 4),
            upd(1, Op::Delete, &[1, 2], 5),
            upd(1, Op::Insert, &[1, 2], 6),
            upd(0, Op::Delete, &[1], 7),
        ];
        for u in &updates {
            let xo: Vec<_> = x
                .process(u)
                .into_iter()
                .map(|(op, c)| (op, canonical_rows(&c, 3)))
                .collect();
            let oo = o.apply_and_delta(u);
            assert!(
                multiset_diff(&xo, &oo).is_empty(),
                "xjoin diverged from oracle on {u}: {xo:?} vs {oo:?}"
            );
        }
    }

    #[test]
    fn materialization_tracks_subresult() {
        let q = QuerySchema::chain3();
        let tree = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]);
        let mut x = XJoin::new(q, tree);
        x.process(&upd(0, Op::Insert, &[1], 0));
        assert_eq!(x.materialized_rows(), 0);
        x.process(&upd(1, Op::Insert, &[1, 2], 1));
        assert_eq!(x.materialized_rows(), 1, "R⋈S has one row");
        assert!(x.materialized_bytes() > 0);
        x.process(&upd(1, Op::Insert, &[1, 3], 2));
        assert_eq!(x.materialized_rows(), 2);
        x.process(&upd(0, Op::Delete, &[1], 3));
        assert_eq!(x.materialized_rows(), 0, "deleting R empties the subresult");
        assert_eq!(x.materialized_bytes(), 0);
    }

    #[test]
    fn bushy_tree_works() {
        // ((R1 ⋈ R2) ⋈ (R3 ⋈ R4)) on star(4).
        let q = QuerySchema::star(4);
        let tree = JoinTree::Node(
            Box::new(JoinTree::Node(
                Box::new(JoinTree::Leaf(RelId(0))),
                Box::new(JoinTree::Leaf(RelId(1))),
            )),
            Box::new(JoinTree::Node(
                Box::new(JoinTree::Leaf(RelId(2))),
                Box::new(JoinTree::Leaf(RelId(3))),
            )),
        );
        let mut x = XJoin::new(q.clone(), tree);
        let mut o = crate::oracle::Oracle::new(q);
        let mut all_x = Vec::new();
        let mut all_o = Vec::new();
        let ups = vec![
            upd(0, Op::Insert, &[1, 0], 0),
            upd(1, Op::Insert, &[1, 0], 1),
            upd(2, Op::Insert, &[1, 0], 2),
            upd(3, Op::Insert, &[1, 0], 3),
            upd(2, Op::Insert, &[1, 1], 4),
            upd(0, Op::Delete, &[1, 0], 5),
            upd(0, Op::Insert, &[1, 2], 6),
        ];
        for u in &ups {
            all_x.extend(
                x.process(u)
                    .into_iter()
                    .map(|(op, c)| (op, crate::oracle::canonical_rows(&c, 4))),
            );
            all_o.extend(o.apply_and_delta(u));
        }
        assert!(
            crate::oracle::multiset_diff(&all_x, &all_o).is_empty(),
            "bushy xjoin diverged"
        );
    }

    #[test]
    fn size_estimation_sane() {
        let q = QuerySchema::star(3);
        let mut stats = WorkloadStats::uniform(3, 100.0);
        stats.set_sel(RelId(0), RelId(1), 0.01);
        stats.set_sel(RelId(0), RelId(2), 0.01);
        let two = estimated_size(&q, &stats, &[RelId(0), RelId(1)]);
        assert!((two - 100.0).abs() < 1e-6, "100*100*0.01 = 100, got {two}");
        let one = estimated_size(&q, &stats, &[RelId(0)]);
        assert!((one - 100.0).abs() < 1e-6);
    }

    #[test]
    fn best_tree_prefers_cheap_subresults() {
        // Star(4) where R1⋈R2 is tiny and R3,R4 churn fast: best tree should
        // avoid materializing anything containing R3 or R4 beneath the root
        // if possible — i.e. prefer (R1 ⋈ R2) low in the tree.
        let q = QuerySchema::star(4);
        let mut stats = WorkloadStats::uniform(4, 100.0);
        stats.set_sel(RelId(0), RelId(1), 0.0001);
        stats.rates = vec![1.0, 1.0, 50.0, 50.0];
        let t = best_tree(&q, &stats, None).unwrap();
        // The subtree {R1, R2} should appear as a node.
        let mut sets = Vec::new();
        collect_node_sets(&t, &mut sets);
        assert!(
            sets.iter().any(|s| s == &vec![RelId(0), RelId(1)]),
            "expected R1⋈R2 node in {t}"
        );
    }

    #[test]
    fn memory_cap_filters_trees() {
        let q = QuerySchema::star(4);
        let stats = WorkloadStats::uniform(4, 100.0);
        // Impossible cap: no tree fits.
        assert!(best_tree(&q, &stats, Some(0.0)).is_none());
        // Generous cap: some tree fits.
        assert!(best_tree(&q, &stats, Some(1e12)).is_some());
    }

    #[test]
    #[should_panic(expected = "tree must cover the query exactly")]
    fn wrong_tree_panics() {
        let q = QuerySchema::chain3();
        let tree = JoinTree::left_deep(&[RelId(0), RelId(1)]);
        let _ = XJoin::new(q, tree);
    }
}
