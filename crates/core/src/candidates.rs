//! Candidate-cache enumeration.
//!
//! A cache `C_ijk` corresponds to a contiguous segment `./_ij … ./_ik` of
//! `∆R_i`'s pipeline (§3.2). *Candidate* caches are those whose segment
//! satisfies the **prefix invariant** (Definition 3.2): every segment
//! relation's own pipeline joins the other segment relations first, so all
//! updates to the cached subresult are computed as a by-product of regular
//! join processing.
//!
//! §6 relaxes this with **globally-consistent caches** `X ⋉ Y`: the cached
//! segment `X` need not satisfy the prefix invariant as long as `X ∪ Y`
//! does; we generate the always-valid family `X ∪ Y = {R_1, …, R_n}`
//! (maintained from full pipeline outputs), quota-bounded per the paper's
//! `m`-candidate budget.
//!
//! Two candidates are **shared** (Definition 4.1) when they cache the same
//! relation set with the same cache key (same crossing equivalence classes) —
//! they can then be backed by one physical store whose maintenance cost is
//! paid once.

use acq_mjoin::plan::PlanOrders;
use acq_sketch::FxHashMap;
use acq_stream::schema::EquivClassId;
use acq_stream::{AttrRef, QuerySchema, RelId};

/// One candidate cache.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Pipeline hosting the CacheLookup (`∆R_i`).
    pub pipeline: RelId,
    /// First covered operator position in the pipeline order (the paper's
    /// `j`, 0-based).
    pub start: usize,
    /// Last covered operator position (the paper's `k`, inclusive).
    pub end: usize,
    /// Relations cached (`X = {R_ij, …, R_ik}`), sorted.
    pub segment: Vec<RelId>,
    /// Relations joined before the segment (`R_i, R_i1, …`), in pipeline
    /// order.
    pub prefix: Vec<RelId>,
    /// The cache key `K_ijk` as canonical crossing equivalence classes.
    pub key_classes: Vec<EquivClassId>,
    /// Key representatives on the prefix side (probing).
    pub probe_attrs: Vec<AttrRef>,
    /// Key representatives on the segment side (maintenance).
    pub maint_attrs: Vec<AttrRef>,
    /// Witness set `Y` for globally-consistent caches; empty for plain
    /// prefix-invariant caches.
    pub witness: Vec<RelId>,
    /// Shared-cache group (Definition 4.1); group ids are dense.
    pub group: usize,
}

impl Candidate {
    /// Pipeline position of a plain cache's maintenance taps. By the
    /// prefix invariant, each segment relation's pipeline joins the other
    /// `|segment| − 1` segment relations first, so segment deltas reach
    /// the cache just before that position.
    pub fn tap_pos(&self) -> usize {
        self.segment.len() - 1
    }

    /// Does this candidate cover pipeline operator position `pos`?
    pub fn covers(&self, pos: usize) -> bool {
        pos >= self.start && pos <= self.end
    }

    /// Do two candidates in the *same pipeline* overlap (share an operator)?
    pub fn overlaps(&self, other: &Candidate) -> bool {
        self.pipeline == other.pipeline && self.start <= other.end && other.start <= self.end
    }

    /// Is this a globally-consistent (semijoin) cache?
    pub fn is_global(&self) -> bool {
        !self.witness.is_empty()
    }

    /// Human-readable name, e.g. `C[∆R6: R1⋈R2 @0..1]`.
    pub fn name(&self) -> String {
        let seg: Vec<String> = self.segment.iter().map(|r| format!("R{}", r.0)).collect();
        let tag = if self.is_global() { "⋉" } else { "" };
        format!(
            "C[∆R{}: {}{} @{}..{}]",
            self.pipeline.0,
            seg.join("⋈"),
            tag,
            self.start,
            self.end
        )
    }
}

/// Minimum candidate segment length in operators: the paper's candidates
/// span at least one join, and a single-operator segment would merely
/// memoize an index probe.
pub const MIN_SEGMENT_OPS: usize = 2;

/// Enumeration options.
#[derive(Debug, Clone)]
pub struct EnumerationConfig {
    /// Generate globally-consistent candidates when fewer than
    /// `max_candidates` plain candidates exist (§6: the paper's `m`).
    pub enable_global: bool,
    /// The §6 quota `m`: total candidates considered when global caches are
    /// in play.
    pub max_candidates: usize,
}

impl Default for EnumerationConfig {
    fn default() -> EnumerationConfig {
        EnumerationConfig {
            enable_global: false,
            max_candidates: 6,
        }
    }
}

/// Does `set` satisfy the prefix invariant under `orders` (Definition 3.2)?
/// For every `R_l ∈ set`, the first `|set| − 1` operators of `∆R_l`'s
/// pipeline must join exactly the other members of `set`.
pub fn is_prefix_set(orders: &PlanOrders, set: &[RelId]) -> bool {
    let s = set.len();
    if s < 1 {
        return false;
    }
    set.iter().all(|&l| {
        let order = &orders.pipeline(l).order;
        if order.len() < s - 1 {
            return false;
        }
        let mut head: Vec<RelId> = order[..s - 1].to_vec();
        head.sort_unstable();
        let mut others: Vec<RelId> = set.iter().copied().filter(|&r| r != l).collect();
        others.sort_unstable();
        head == others
    })
}

/// Enumerate all candidate caches for the current pipeline orders.
///
/// Plain candidates come first; globally-consistent candidates (if enabled
/// and the plain count is below the quota) follow, ordered by decreasing
/// segment size (the paper starts with `X` = all but one relation). Group ids
/// are assigned per Definition 4.1.
pub fn enumerate_candidates(
    query: &QuerySchema,
    orders: &PlanOrders,
    config: &EnumerationConfig,
) -> Vec<Candidate> {
    let n = query.num_relations();
    let mut out: Vec<Candidate> = Vec::new();

    for p in &orders.pipelines {
        let order = &p.order;
        for start in 0..order.len() {
            for end in start..order.len() {
                if end - start + 1 < MIN_SEGMENT_OPS {
                    continue;
                }
                let mut segment: Vec<RelId> = order[start..=end].to_vec();
                segment.sort_unstable();
                if !is_prefix_set(orders, &segment) {
                    continue;
                }
                if let Some(c) = build_candidate(query, p.stream, order, start, end, Vec::new()) {
                    out.push(c);
                }
            }
        }
    }

    if config.enable_global && out.len() < config.max_candidates {
        let mut quota = config.max_candidates - out.len();
        // X = all-but-one first, then all-but-two, … (paper §6): iterate by
        // decreasing segment length.
        'outer: for seg_len in (MIN_SEGMENT_OPS..n).rev() {
            for p in &orders.pipelines {
                let order = &p.order;
                for start in 0..order.len() {
                    let end = start + seg_len - 1;
                    if end >= order.len() {
                        continue;
                    }
                    let mut segment: Vec<RelId> = order[start..=end].to_vec();
                    segment.sort_unstable();
                    if is_prefix_set(orders, &segment) {
                        continue; // already a plain candidate
                    }
                    let witness: Vec<RelId> =
                        query.rel_ids().filter(|r| !segment.contains(r)).collect();
                    if let Some(c) = build_candidate(query, p.stream, order, start, end, witness) {
                        out.push(c);
                        quota -= 1;
                        if quota == 0 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }

    assign_groups(&mut out);
    out
}

/// Construct one candidate, computing key classes and representatives.
/// Returns `None` when the key has no prefix-side representative (cannot
/// happen for crossing classes, kept defensive).
fn build_candidate(
    query: &QuerySchema,
    stream: RelId,
    order: &[RelId],
    start: usize,
    end: usize,
    witness: Vec<RelId>,
) -> Option<Candidate> {
    let mut prefix = Vec::with_capacity(start + 1);
    prefix.push(stream);
    prefix.extend_from_slice(&order[..start]);
    let mut segment: Vec<RelId> = order[start..=end].to_vec();
    segment.sort_unstable();
    let key_classes = query.crossing_classes(&prefix, &segment);
    let probe_attrs = query.class_representatives(&key_classes, &prefix)?;
    let maint_attrs = query.class_representatives(&key_classes, &segment)?;
    Some(Candidate {
        pipeline: stream,
        start,
        end,
        segment,
        prefix,
        key_classes,
        probe_attrs,
        maint_attrs,
        witness,
        group: usize::MAX,
    })
}

/// Assign shared-cache group ids (Definition 4.1): same segment relation
/// set + same key classes (+ same witness set for global caches).
fn assign_groups(candidates: &mut [Candidate]) {
    /// Sharing signature: (segment, key classes, witness set).
    type GroupSig = (Vec<RelId>, Vec<EquivClassId>, Vec<RelId>);
    let mut groups: FxHashMap<GroupSig, usize> = FxHashMap::default();
    for c in candidates.iter_mut() {
        let mut witness = c.witness.clone();
        witness.sort_unstable();
        let sig = (c.segment.clone(), c.key_classes.clone(), witness);
        let next = groups.len();
        c.group = *groups.entry(sig).or_insert(next);
    }
}

/// Number of distinct shared groups among candidates.
pub fn num_groups(candidates: &[Candidate]) -> usize {
    candidates.iter().map(|c| c.group + 1).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_mjoin::plan::PipelineOrder;

    /// The Figure 5(a) plan for the 6-way star equijoin.
    fn fig5a() -> (QuerySchema, PlanOrders) {
        let q = QuerySchema::star(6);
        let o = |s: u16, v: [u16; 5]| PipelineOrder {
            stream: RelId(s),
            order: v.into_iter().map(RelId).collect(),
        };
        let orders = PlanOrders::new(vec![
            o(0, [1, 2, 3, 4, 5]), // ∆R1: R2,R3,R4,R5,R6
            o(1, [0, 2, 4, 3, 5]), // ∆R2: R1,R3,R5,R4,R6
            o(2, [1, 0, 3, 4, 5]), // ∆R3: R2,R1,R4,R5,R6
            o(3, [4, 0, 1, 2, 5]), // ∆R4: R5,R1,R2,R3,R6
            o(4, [3, 1, 2, 0, 5]), // ∆R5: R4,R2,R3,R1,R6
            o(5, [1, 0, 3, 4, 2]), // ∆R6: R2,R1,R4,R5,R3
        ]);
        orders.validate(&q).unwrap();
        (q, orders)
    }

    fn rels(v: &[u16]) -> Vec<RelId> {
        v.iter().map(|&r| RelId(r)).collect()
    }

    #[test]
    fn paper_example_4_1_prefix_sets() {
        let (_, orders) = fig5a();
        assert!(is_prefix_set(&orders, &rels(&[0, 1]))); // {R1,R2}
        assert!(is_prefix_set(&orders, &rels(&[3, 4]))); // {R4,R5}
        assert!(is_prefix_set(&orders, &rels(&[0, 1, 2]))); // {R1,R2,R3}
        assert!(is_prefix_set(&orders, &rels(&[0, 1, 2, 3, 4]))); // {R1..R5}
                                                                  // Non-prefix sets.
        assert!(!is_prefix_set(&orders, &rels(&[1, 2]))); // {R2,R3}
        assert!(!is_prefix_set(&orders, &rels(&[0, 2])));
        assert!(!is_prefix_set(&orders, &rels(&[0, 1, 2, 3])));
    }

    #[test]
    fn paper_example_4_1_candidates_per_pipeline() {
        let (q, orders) = fig5a();
        let cands = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        let per_pipeline = |p: u16| -> Vec<&Candidate> {
            cands.iter().filter(|c| c.pipeline == RelId(p)).collect()
        };
        // "there are two candidate caches in ∆R4's pipeline — one for the
        // R1,R2 segment and one for the overlapping R1,R2,R3 segment"
        let r4 = per_pipeline(3);
        assert_eq!(r4.len(), 2);
        assert!(r4.iter().any(|c| c.segment == rels(&[0, 1])));
        assert!(r4.iter().any(|c| c.segment == rels(&[0, 1, 2])));
        // "there are three candidate caches in ∆R6's pipeline"
        let r6 = per_pipeline(5);
        assert_eq!(r6.len(), 3);
        assert!(r6.iter().any(|c| c.segment == rels(&[0, 1])));
        assert!(r6.iter().any(|c| c.segment == rels(&[3, 4])));
        assert!(r6.iter().any(|c| c.segment == rels(&[0, 1, 2, 3, 4])));
    }

    #[test]
    fn paper_example_4_2_shared_groups() {
        let (q, orders) = fig5a();
        let cands = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        // {R1,R2} cached in ∆R3, ∆R4, ∆R6 (plus nowhere else) share a group.
        let g_r1r2: Vec<&Candidate> = cands
            .iter()
            .filter(|c| c.segment == rels(&[0, 1]))
            .collect();
        let pipelines: Vec<u16> = g_r1r2.iter().map(|c| c.pipeline.0).collect();
        assert_eq!(pipelines.len(), 3);
        assert!(pipelines.contains(&2) && pipelines.contains(&3) && pipelines.contains(&5));
        let group = g_r1r2[0].group;
        assert!(g_r1r2.iter().all(|c| c.group == group), "one shared group");
        // {R1,R2,R3} shared in ∆R4 and ∆R5.
        let g3: Vec<&Candidate> = cands
            .iter()
            .filter(|c| c.segment == rels(&[0, 1, 2]))
            .collect();
        assert_eq!(g3.len(), 2);
        let ps: Vec<u16> = g3.iter().map(|c| c.pipeline.0).collect();
        assert!(ps.contains(&3) && ps.contains(&4));
        assert_eq!(g3[0].group, g3[1].group);
        // Distinct segments → distinct groups.
        assert_ne!(group, g3[0].group);
    }

    #[test]
    fn group_count_fig5a() {
        let (q, orders) = fig5a();
        let cands = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        // Segments: {R1,R2} ×3, {R4,R5} ×4 (∆R1,∆R2,∆R3,∆R6), {R1,R2,R3} ×2,
        // {R1..R5} ×1 → 10 candidates in 4 groups.
        assert_eq!(cands.len(), 10);
        assert_eq!(num_groups(&cands), 4);
    }

    #[test]
    fn prefix_and_key_computed() {
        let (q, orders) = fig5a();
        let cands = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        let c = cands
            .iter()
            .find(|c| c.pipeline == RelId(3) && c.segment == rels(&[0, 1]))
            .unwrap();
        // ∆R4 order is [R5, R1, R2, R3, R6] → segment at positions 1..2,
        // prefix = [R4, R5].
        assert_eq!(c.start, 1);
        assert_eq!(c.end, 2);
        assert_eq!(c.prefix, rels(&[3, 4]));
        assert_eq!(c.key_classes.len(), 1, "single equivalence class A");
        assert_eq!(c.probe_attrs.len(), 1);
        assert_eq!(c.maint_attrs.len(), 1);
        assert!(c.probe_attrs[0].rel == RelId(3) || c.probe_attrs[0].rel == RelId(4));
        assert!(c.segment.contains(&c.maint_attrs[0].rel));
        assert!(!c.is_global());
        assert_eq!(
            c.tap_pos(),
            1,
            "each segment pipeline joins the other member first"
        );
        assert!(c.covers(1) && c.covers(2) && !c.covers(0) && !c.covers(3));
    }

    #[test]
    fn chain3_candidate_is_figure3() {
        // R ⋈ S ⋈ T with orders matching Figure 3: ∆R1: [S, T]; ∆S: [T, R]?
        // Figure 3's pipelines: ∆R1 joins R2 then R3; ∆R2 joins R3 then R1;
        // ∆R3 joins R2 then R1. The R2⋈R3 segment in ∆R1's pipeline is a
        // candidate (Example 3.4); the R2,R1 segment in ∆R3's is not.
        let q = QuerySchema::chain3();
        let orders = PlanOrders::new(vec![
            PipelineOrder {
                stream: RelId(0),
                order: rels(&[1, 2]),
            },
            PipelineOrder {
                stream: RelId(1),
                order: rels(&[2, 0]),
            },
            PipelineOrder {
                stream: RelId(2),
                order: rels(&[1, 0]),
            },
        ]);
        let cands = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        assert_eq!(cands.len(), 1);
        let c = &cands[0];
        assert_eq!(c.pipeline, RelId(0));
        assert_eq!(c.segment, rels(&[1, 2]));
        // Key = the A class (R1.A = R2.A crossing the boundary).
        assert_eq!(c.key_classes.len(), 1);
        assert_eq!(c.probe_attrs[0], AttrRef::new(0, 0));
    }

    #[test]
    fn global_candidates_fill_quota() {
        let q = QuerySchema::chain3();
        // Orders under which NO plain candidate exists:
        // ∆R1: [T, S] (T⋈S? {T,S} needs ∆S first op = T: we set ∆S: [R, T]).
        let orders = PlanOrders::new(vec![
            PipelineOrder {
                stream: RelId(0),
                order: rels(&[2, 1]),
            },
            PipelineOrder {
                stream: RelId(1),
                order: rels(&[0, 2]),
            },
            PipelineOrder {
                stream: RelId(2),
                order: rels(&[1, 0]),
            },
        ]);
        let plain = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        assert!(
            plain.is_empty(),
            "no prefix sets by construction: {plain:?}"
        );
        let cfg = EnumerationConfig {
            enable_global: true,
            max_candidates: 6,
        };
        let with_gc = enumerate_candidates(&q, &orders, &cfg);
        assert!(!with_gc.is_empty());
        assert!(with_gc.len() <= 6);
        for c in &with_gc {
            assert!(c.is_global());
            // Witness = complement of segment.
            let mut all: Vec<RelId> = c
                .segment
                .iter()
                .copied()
                .chain(c.witness.iter().copied())
                .collect();
            all.sort_unstable();
            assert_eq!(all, rels(&[0, 1, 2]));
            assert!(c.name().contains('⋉'));
        }
    }

    #[test]
    fn global_quota_respected() {
        // §6: with p plain candidates and quota m, globally-consistent
        // candidates are added only when p < m, and only m − p of them.
        let q = QuerySchema::star(5);
        let orders = PlanOrders::identity(&q);
        let plain = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        let p = plain.len();
        let m = 4usize;
        let cfg = EnumerationConfig {
            enable_global: true,
            max_candidates: m,
        };
        let cands = enumerate_candidates(&q, &orders, &cfg);
        let gc = cands.iter().filter(|c| c.is_global()).count();
        assert_eq!(cands.len() - gc, p, "plain candidates unchanged");
        if p >= m {
            assert_eq!(gc, 0, "p ≥ m: ignore globally-consistent caches");
        } else {
            assert!(gc <= m - p, "gc quota exceeded: {gc} > {m} - {p}");
        }
        // And with a generous quota, GC candidates do appear.
        let cfg_big = EnumerationConfig {
            enable_global: true,
            max_candidates: p + 3,
        };
        let with_gc = enumerate_candidates(&q, &orders, &cfg_big);
        assert_eq!(with_gc.iter().filter(|c| c.is_global()).count(), 3);
    }

    #[test]
    fn identity_star_has_prefix_pairs() {
        // Identity orders on star(4): ∆R1: [R2,R3,R4], ∆R2: [R1,R3,R4], ….
        // {R1,R2} is a prefix set (each starts with the other).
        let q = QuerySchema::star(4);
        let orders = PlanOrders::identity(&q);
        assert!(is_prefix_set(&orders, &rels(&[0, 1])));
        assert!(
            !is_prefix_set(&orders, &rels(&[2, 3])),
            "∆R3 starts with R1"
        );
        let cands = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        assert!(cands.iter().any(|c| c.segment == rels(&[0, 1])));
    }

    #[test]
    fn overlap_detection() {
        let (q, orders) = fig5a();
        let cands = enumerate_candidates(&q, &orders, &EnumerationConfig::default());
        let r4: Vec<&Candidate> = cands.iter().filter(|c| c.pipeline == RelId(3)).collect();
        assert!(r4[0].overlaps(r4[1]), "R1R2 and R1R2R3 overlap in ∆R4");
        let r6_pair: Vec<&Candidate> = cands
            .iter()
            .filter(|c| {
                c.pipeline == RelId(5) && (c.segment == rels(&[0, 1]) || c.segment == rels(&[3, 4]))
            })
            .collect();
        assert!(!r6_pair[0].overlaps(r6_pair[1]), "disjoint segments in ∆R6");
        // Same segment, different pipelines: never "overlapping".
        let shared: Vec<&Candidate> = cands
            .iter()
            .filter(|c| c.segment == rels(&[0, 1]))
            .collect();
        assert!(!shared[0].overlaps(shared[1]));
    }
}
