//! The flat search engine's per-network memo: per-layer strategy terms,
//! greedy per-layer winners and second-level search results, keyed on the
//! exact content of the accelerator set they were computed for.
//!
//! A term and a greedy winner depend only on the layer shape, the designs of
//! the set's members and the links and DRAM of its ordered members.  A
//! second-level result depends on those, the layer range, the set's ids
//! (they seed its GA) and the second-level GA configuration.  Keying on that
//! content instead of on accelerator ids lets searches share them: F1's two
//! identical groups inside one search, and every inner search of one
//! workload through an [`InnerSearchCache`](crate::InnerSearchCache).

use crate::mapper::{SecondLevelKey, SecondOutcome};
use mars_accel::DesignId;
use mars_model::{ConvParams, Network};
use mars_parallel::{OnceCache, Strategy, MAX_ES_DIMS};
use mars_topology::{AccelId, Topology};
use std::collections::HashMap;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicU8};
use std::sync::{Arc, Mutex, OnceLock};

/// Appends the content of the ordered accelerator set `members` of `topo`:
/// the bandwidth of every ordered pair of members (row by row, diagonal
/// included), then each member's host-link bandwidth, then each member's
/// DRAM, all as bits.  That is everything a collective, a layer term or a
/// DRAM check reads about the set.
pub(crate) fn push_set_content(key: &mut Vec<u64>, topo: &Topology, members: &[AccelId]) {
    for &a in members {
        key.extend(members.iter().map(|&b| topo.bandwidth(a, b).to_bits()));
    }
    key.extend(members.iter().map(|&a| topo.host_bandwidth(a).to_bits()));
    key.extend(members.iter().map(|&a| topo.dram_bytes(a)));
}

/// The memo key of an ordered accelerator set: each member's design, then
/// the set's content ([`push_set_content`]).  Equal keys mean equal
/// performance models and equal content, so equal terms.
pub(crate) fn set_key(
    topo: &Topology,
    members: &[AccelId],
    design_of: impl Fn(AccelId) -> DesignId,
) -> Vec<u64> {
    let m = members.len();
    let mut key = Vec::with_capacity(m * (m + 3));
    key.extend(members.iter().map(|&a| design_of(a).0 as u64));
    push_set_content(&mut key, topo, members);
    key
}

/// Number of strategies [`Strategy::try_new`] admits: an ES set of at most
/// two of the six dimensions (1 + 6 + 15 sets), each with no SS dimension or
/// one outside the set (7 + 36 + 75).
const STRATEGY_SLOTS: usize = 118;

/// Nine-bit code of a strategy: its six-bit ES dimension mask above a
/// three-bit SS code (0 for none, else the dimension index + 1).
fn strategy_code(s: Strategy) -> usize {
    let es_bits: usize = s.es().iter().map(|d| 1usize << d.index()).sum();
    let ss = s.ss().map_or(0, |d| d.index() + 1);
    (es_bits << 3) | ss
}

/// Term-table slot of every strategy code, in code order; `u8::MAX` for the
/// 394 codes no strategy packs to.
const SLOT_OF_CODE: [u8; 512] = {
    let mut table = [u8::MAX; 512];
    let mut next = 0u8;
    let mut code = 0;
    while code < table.len() {
        let (es, ss) = (code >> 3, code & 7);
        if es.count_ones() as usize <= MAX_ES_DIMS
            && ss <= 6
            && (ss == 0 || (es >> (ss - 1)) & 1 == 0)
        {
            table[code] = next;
            next += 1;
        }
        code += 1;
    }
    assert!(next as usize == STRATEGY_SLOTS);
    table
};

/// Dense index of a strategy in a [`STRATEGY_SLOTS`]-entry term row.
fn strategy_slot(s: Strategy) -> usize {
    SLOT_OF_CODE[strategy_code(s)] as usize
}

/// One memoised per-layer term: the latency, per-accelerator weight bytes
/// and DRAM fit of one layer shape under one strategy on one set.
pub(crate) type Term = (f64, u64, bool);

/// One lock-free term slot.  `state` is `0` while empty and `1` (memory
/// fits) or `2` (memory exceeded) once filled; the release exchange on
/// `state` publishes the relaxed `seconds`/`weight` stores to any thread
/// whose acquire load observes it.  Concurrent fills store the same pure
/// value, so the race is benign, and exactly one of them wins the exchange.
#[derive(Default)]
pub(crate) struct TermSlot {
    state: AtomicU8,
    seconds: AtomicU64,
    weight: AtomicU64,
}

impl TermSlot {
    /// The filled term, or `None` while the slot is empty.
    pub(crate) fn get(&self) -> Option<Term> {
        match self.state.load(Acquire) {
            0 => None,
            state => Some((
                f64::from_bits(self.seconds.load(Relaxed)),
                self.weight.load(Relaxed),
                state == 1,
            )),
        }
    }

    /// Fills the slot with `term`; `true` when this call filled it, `false`
    /// when a racing fill of the same value won.
    pub(crate) fn fill(&self, term: Term) -> bool {
        self.seconds.store(term.0.to_bits(), Relaxed);
        self.weight.store(term.1, Relaxed);
        let state = if term.2 { 1 } else { 2 };
        self.state
            .compare_exchange(0, state, Release, Relaxed)
            .is_ok()
    }
}

/// The memo of one set content: a row of [`STRATEGY_SLOTS`] terms and one
/// greedy winner per shape class.
pub(crate) struct SetMemo {
    /// Index of the entry in its memo: equal ids mean equal keys.
    id: u32,
    terms: Box<[TermSlot]>,
    greedy: Box<[OnceLock<Strategy>]>,
}

impl SetMemo {
    /// The entry's index in its [`NetworkMemo`].
    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// The term slot of shape class `class` under `strategy`.
    pub(crate) fn term(&self, class: usize, strategy: Strategy) -> &TermSlot {
        &self.terms[class * STRATEGY_SLOTS + strategy_slot(strategy)]
    }

    /// The greedy-winner cell of shape class `class`: filled exactly once,
    /// so the candidate scan runs once per entry and class at any thread
    /// count.
    pub(crate) fn greedy(&self, class: usize) -> &OnceLock<Strategy> {
        &self.greedy[class]
    }
}

/// Per-network memo of the flat engine, shared by every search of one
/// network that is handed it.  A standalone [`Mars::search`] makes its own;
/// an [`InnerSearchCache`] keeps one per workload for all of that
/// workload's inner searches.  Every entry is a pure function of its key, so
/// sharing changes no result, only which search computes what.
///
/// [`Mars::search`]: crate::Mars::search
/// [`InnerSearchCache`]: crate::InnerSearchCache
pub(crate) struct NetworkMemo {
    /// Shape class of every layer: layers with identical [`ConvParams`]
    /// share a class (and a term row); non-compute layers get `u32::MAX`.
    shape_class: Vec<u32>,
    shape_classes: usize,
    /// Set entries by exact key ([`set_key`]).
    sets: Mutex<HashMap<Vec<u64>, Arc<SetMemo>>>,
    /// Second-level results by set entry and (set ids, design, layer range).
    pub(crate) second: OnceCache<(u32, SecondLevelKey), Arc<SecondOutcome>>,
}

impl NetworkMemo {
    /// An empty memo for `net`.
    pub(crate) fn new(net: &Network) -> Self {
        let mut shapes: Vec<ConvParams> = Vec::new();
        let shape_class = net
            .layers()
            .iter()
            .map(|layer| match layer.as_conv() {
                Some(conv) => match shapes.iter().position(|s| *s == conv) {
                    Some(i) => i as u32,
                    None => {
                        shapes.push(conv);
                        (shapes.len() - 1) as u32
                    }
                },
                None => u32::MAX,
            })
            .collect();
        Self {
            shape_class,
            shape_classes: shapes.len(),
            sets: Mutex::new(HashMap::new()),
            second: OnceCache::new(),
        }
    }

    /// Number of layers of the network the memo was made for.
    pub(crate) fn layers(&self) -> usize {
        self.shape_class.len()
    }

    /// Shape class of compute layer `layer`.
    pub(crate) fn shape_class(&self, layer: usize) -> usize {
        self.shape_class[layer] as usize
    }

    /// The entry of `key` (from [`set_key`]), created empty on first use.
    pub(crate) fn set(&self, key: Vec<u64>) -> Arc<SetMemo> {
        let mut sets = self.sets.lock().expect("set memo map poisoned");
        let id = sets.len() as u32;
        let classes = self.shape_classes;
        Arc::clone(sets.entry(key).or_insert_with(|| {
            Arc::new(SetMemo {
                id,
                terms: (0..classes * STRATEGY_SLOTS)
                    .map(|_| TermSlot::default())
                    .collect(),
                greedy: (0..classes).map(|_| OnceLock::new()).collect(),
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use mars_accel::Catalog;
    use mars_comm::CommSim;
    use mars_model::zoo;
    use mars_parallel::{all_strategies, evaluate_layer, EvalContext, StrategySpace};
    use mars_topology::presets::{self, GIB};
    use mars_topology::TopologyBuilder;

    fn ids(ids: &[usize]) -> Vec<AccelId> {
        ids.iter().copied().map(AccelId).collect()
    }

    /// Every ordered set of one to three distinct accelerators of `n`.
    fn ordered_sets(n: usize) -> Vec<Vec<AccelId>> {
        let mut sets = Vec::new();
        for a in 0..n {
            sets.push(ids(&[a]));
            for b in (0..n).filter(|&b| b != a) {
                sets.push(ids(&[a, b]));
                for c in (0..n).filter(|&c| c != a && c != b) {
                    sets.push(ids(&[a, b, c]));
                }
            }
        }
        sets
    }

    #[test]
    fn set_keys_are_equal_exactly_when_designs_links_host_links_and_dram_are() {
        // A platform where links, host links and DRAM all vary: two groups
        // of F1 plus a slower, smaller fifth accelerator linked to one
        // member of each.
        let (builder, odd) = TopologyBuilder::new("uneven")
            .accelerators(4, 2.0, GIB)
            .accelerator(1.0, GIB / 2, 1);
        let topo = builder
            .clique(&ids(&[0, 1]), 8.0)
            .and_then(|b| b.clique(&ids(&[2, 3]), 8.0))
            .and_then(|b| b.link(AccelId(1), odd, 4.0))
            .and_then(|b| b.link(AccelId(3), odd, 4.0))
            .and_then(TopologyBuilder::build)
            .expect("valid topology");
        let topo = &topo;
        let content = |set: &[AccelId], design: usize| {
            let mut links = Vec::new();
            for &a in set {
                links.extend(set.iter().map(|&b| topo.bandwidth(a, b)));
            }
            let host: Vec<f64> = set.iter().map(|&a| topo.host_bandwidth(a)).collect();
            let dram: Vec<u64> = set.iter().map(|&a| topo.dram_bytes(a)).collect();
            (vec![design; set.len()], links, host, dram)
        };
        let sets: Vec<(Vec<AccelId>, usize)> = ordered_sets(topo.len())
            .into_iter()
            .flat_map(|s| [(s.clone(), 0), (s, 1)])
            .collect();
        let keys: Vec<Vec<u64>> = sets
            .iter()
            .map(|(s, d)| set_key(topo, s, |_| DesignId(*d)))
            .collect();
        let contents: Vec<_> = sets.iter().map(|(s, d)| content(s, *d)).collect();
        let mut equal_pairs = 0;
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let same = contents[i] == contents[j];
                assert_eq!(keys[i] == keys[j], same, "{:?} vs {:?}", sets[i], sets[j]);
                equal_pairs += usize::from(same && i != j);
            }
        }
        assert!(equal_pairs > 0, "some distinct sets share content");
    }

    #[test]
    fn f1_groups_share_keys_and_a_cross_group_pair_does_not() {
        let f1 = presets::f1_16xlarge();
        let key = |s: &[usize]| set_key(&f1, &ids(s), |_| DesignId(0));
        assert_eq!(key(&[0, 1, 2, 3]), key(&[4, 5, 6, 7]));
        assert_eq!(key(&[0, 1]), key(&[6, 5]));
        assert_ne!(key(&[3, 4]), key(&[0, 1]));
        assert_ne!(
            set_key(&f1, &ids(&[0, 1]), |_| DesignId(0)),
            set_key(&f1, &ids(&[0, 1]), |_| DesignId(1))
        );
    }

    #[test]
    fn changing_one_link_host_link_or_dram_changes_the_key() {
        let four = |link: f64, host: f64, dram: u64| {
            let (builder, _) = TopologyBuilder::new("four")
                .accelerators(3, 2.0, GIB)
                .accelerator(host, dram, 0);
            builder
                .clique(&ids(&[0, 1, 2, 3]), 8.0)
                .and_then(|b| b.link(AccelId(0), AccelId(1), link))
                .and_then(TopologyBuilder::build)
                .expect("valid topology")
        };
        let key = |topo: &Topology, s: &[usize]| set_key(topo, &ids(s), |_| DesignId(0));
        let base = four(8.0, 2.0, GIB);
        for changed in [
            four(4.0, 2.0, GIB),
            four(8.0, 1.0, GIB),
            four(8.0, 2.0, GIB / 2),
        ] {
            assert_ne!(key(&changed, &[0, 1, 2, 3]), key(&base, &[0, 1, 2, 3]));
        }
        // A set that does not touch the changed value keeps its key.
        assert_eq!(key(&four(8.0, 1.0, GIB), &[0, 1]), key(&base, &[0, 1]));
    }

    #[test]
    fn a_term_filled_on_one_f1_group_is_the_slot_the_other_reads() {
        let net = zoo::alexnet(1000);
        let f1 = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let eval = Evaluator::new(&net, &f1, &catalog);
        let (low, high) = (f1.group_members(0), f1.group_members(1));
        let low_set = eval.set_memo(&(low.clone(), DesignId(0)));
        let high_set = eval.set_memo(&(high.clone(), DesignId(0)));
        assert_eq!(low_set.id(), high_set.id());
        assert_ne!(
            eval.set_memo(&(ids(&[3, 4]), DesignId(0))).id(),
            eval.set_memo(&(ids(&[0, 1]), DesignId(0))).id()
        );

        let model = catalog.model(DesignId(0));
        let sim = CommSim::new(&f1);
        let (low_ctx, high_ctx) = (
            EvalContext::new(model, &sim, &low),
            EvalContext::new(model, &sim, &high),
        );
        let (layer, _) = net.compute_layers().next().expect("a compute layer");
        let strategy = all_strategies(StrategySpace::Paper)[0];
        let filled = eval.fast_term(&low_set, layer.0, strategy, &low_ctx);
        let read = eval.fast_term(&high_set, layer.0, strategy, &high_ctx);
        eval.count_term_lookups(2);
        assert_eq!(eval.term_stats().misses, 1, "one evaluate_layer call");
        assert_eq!(eval.term_stats().hits, 1);
        // And the shared term is what the other group computes on its own.
        let conv = net.layers()[layer.0].as_conv().expect("compute layer");
        let own = evaluate_layer(&conv, &strategy, &high_ctx);
        assert_eq!(filled.0.to_bits(), read.0.to_bits());
        assert_eq!(read.0.to_bits(), own.total_seconds().to_bits());
        assert_eq!(read.1, own.plan.weight_shard_bytes);
        assert_eq!(read.2, own.memory_ok);
    }

    #[test]
    fn every_admitted_strategy_has_its_own_slot() {
        let all = all_strategies(StrategySpace::Full);
        assert_eq!(all.len(), STRATEGY_SLOTS);
        let mut slots: Vec<usize> = all.iter().map(|&s| strategy_slot(s)).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..STRATEGY_SLOTS).collect::<Vec<_>>());
    }
}
