//! Gene encodings and decoders for the two levels of the MARS search.
//!
//! Both levels work on real-valued genes in `[0, 1]`:
//!
//! * **First level** (accelerator sets, designs, workload allocation): one
//!   gene per AccSet candidate (the bandwidth-aware candidates from
//!   `mars_topology::partition`), one gene per `(set slot, design)` pair, and
//!   one gene per potential layer cut.  Decoding greedily picks the
//!   highest-scoring disjoint candidates ("the candidate of AccSet with the
//!   highest gene value will be chosen"), assigns each selected set the design
//!   with the highest gene value in its slot, and converts the cut genes into
//!   contiguous layer ranges.
//! * **Second level** (per-layer parallelism strategies): twelve genes per
//!   compute layer — six ES scores and six SS scores.  Decoding "prioritises
//!   parallelism at the dimensions with higher gene values": the top-two ES
//!   dimensions above a threshold become exclusive shards, the best SS
//!   dimension above a threshold (and not already exclusive) becomes the
//!   shared shard.

use crate::mapping::Assignment;
use mars_accel::DesignId;
use mars_model::{Dim, DimSet, LoopNest};
use mars_parallel::Strategy;
use mars_topology::{AccelId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Decision threshold above which an ES gene activates its dimension.
pub(crate) const ES_THRESHOLD: f64 = 0.55;
/// Decision threshold above which an SS gene activates its dimension.
pub(crate) const SS_THRESHOLD: f64 = 0.65;
/// Genes per layer at the second level (6 ES scores + 6 SS scores).
pub(crate) const GENES_PER_LAYER: usize = 12;

/// Layout and decoder of the first-level genome.
#[derive(Debug, Clone)]
pub struct FirstLevelGenome {
    n_candidates: usize,
    n_designs: usize,
    max_sets: usize,
    n_layers: usize,
}

impl FirstLevelGenome {
    /// Creates the genome layout.
    pub fn new(n_candidates: usize, n_designs: usize, max_sets: usize, n_layers: usize) -> Self {
        Self {
            n_candidates,
            n_designs,
            max_sets: max_sets.max(1),
            n_layers,
        }
    }

    /// Total number of genes.
    pub fn len(&self) -> usize {
        self.n_candidates + self.max_sets * self.n_designs + (self.max_sets - 1)
    }

    /// `true` if the genome encodes nothing (degenerate inputs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn candidate_genes<'g>(&self, genes: &'g [f64]) -> &'g [f64] {
        &genes[..self.n_candidates]
    }

    fn design_genes<'g>(&self, genes: &'g [f64], set_slot: usize) -> &'g [f64] {
        let start = self.n_candidates + set_slot * self.n_designs;
        &genes[start..start + self.n_designs]
    }

    fn cut_genes<'g>(&self, genes: &'g [f64]) -> &'g [f64] {
        &genes[self.n_candidates + self.max_sets * self.n_designs..]
    }

    /// Decodes a genome into accelerator-set assignments.
    ///
    /// # Panics
    ///
    /// Panics if `genes.len() != self.len()` or `candidates.len()` differs
    /// from the layout's candidate count.
    pub fn decode(&self, genes: &[f64], candidates: &[Vec<AccelId>]) -> Vec<Assignment> {
        assert_eq!(genes.len(), self.len(), "genome length mismatch");
        assert_eq!(
            candidates.len(),
            self.n_candidates,
            "candidate count mismatch"
        );

        // --- Accelerator sets: greedy disjoint cover by gene score -----------
        let mut order: Vec<usize> = (0..self.n_candidates).collect();
        let cand_genes = self.candidate_genes(genes);
        order.sort_by(|a, b| cand_genes[*b].partial_cmp(&cand_genes[*a]).expect("finite"));

        let all_accels: std::collections::BTreeSet<AccelId> =
            candidates.iter().flatten().copied().collect();
        let mut covered: std::collections::BTreeSet<AccelId> = Default::default();
        let mut sets: Vec<Vec<AccelId>> = Vec::new();
        for idx in order {
            if sets.len() >= self.max_sets {
                break;
            }
            let cand = &candidates[idx];
            if cand.iter().any(|a| covered.contains(a)) {
                continue;
            }
            covered.extend(cand.iter().copied());
            sets.push(cand.clone());
            if covered.len() == all_accels.len() {
                break;
            }
        }
        // Any accelerators still uncovered (possible when max_sets truncated
        // the greedy cover) join the last selected set.
        let leftovers: Vec<AccelId> = all_accels.difference(&covered).copied().collect();
        if !leftovers.is_empty() {
            if let Some(last) = sets.last_mut() {
                last.extend(leftovers);
                last.sort();
            } else {
                sets.push(leftovers);
            }
        }

        // --- Layer ranges: cut genes -> contiguous partition ------------------
        let k = sets.len();
        let mut cuts: Vec<usize> = self
            .cut_genes(genes)
            .iter()
            .take(k.saturating_sub(1))
            .map(|g| ((g * self.n_layers as f64).round() as usize).min(self.n_layers))
            .collect();
        cuts.sort_unstable();
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0);
        bounds.extend(cuts);
        bounds.push(self.n_layers);

        // --- Designs per selected set ------------------------------------------
        sets.into_iter()
            .enumerate()
            .map(|(slot, accels)| {
                let dg = self.design_genes(genes, slot.min(self.max_sets - 1));
                let design = dg
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| DesignId(i))
                    .unwrap_or(DesignId(0));
                Assignment::new(accels, design, bounds[slot]..bounds[slot + 1])
            })
            .collect()
    }

    /// Random initial genome; design genes are biased by the normalised
    /// profiling scores so that "the design with higher computation ability is
    /// most likely to be chosen at the beginning of the search".
    pub(crate) fn random_init(&self, rng: &mut StdRng, design_scores: &[f64]) -> Vec<f64> {
        let mut genes = Vec::with_capacity(self.len());
        for _ in 0..self.n_candidates {
            genes.push(rng.gen());
        }
        for _ in 0..self.max_sets {
            for d in 0..self.n_designs {
                let bias = design_scores.get(d).copied().unwrap_or(0.5);
                genes.push((bias * rng.gen_range(0.6..1.0)).clamp(0.0, 1.0));
            }
        }
        for _ in 0..self.max_sets - 1 {
            genes.push(rng.gen());
        }
        genes
    }

    /// Overrides the design genes of one set slot so that `preferred` wins the
    /// arg-max during decoding.  Used to refine heuristic seeds with per-range
    /// profiling information (e.g. "the second half of VGG prefers the
    /// systolic design even though the whole network prefers Winograd").
    pub(crate) fn set_preferred_design(&self, genes: &mut [f64], slot: usize, preferred: DesignId) {
        assert_eq!(genes.len(), self.len(), "genome length mismatch");
        if slot >= self.max_sets {
            return;
        }
        let start = self.n_candidates + slot * self.n_designs;
        for (d, gene) in genes[start..start + self.n_designs].iter_mut().enumerate() {
            *gene = if d == preferred.0 {
                1.0
            } else {
                (*gene * 0.5).min(0.5)
            };
        }
    }

    /// A second heuristic seed: the whole platform as a single accelerator set
    /// running every layer with the profiling-preferred design.  At very low
    /// interconnect bandwidths (Table IV's `Low-` setting) avoiding inter-set
    /// activation transfers entirely is often near-optimal, and seeding it
    /// keeps the search from having to rediscover that corner.
    pub(crate) fn full_platform_seed(
        &self,
        candidates: &[Vec<AccelId>],
        design_scores: &[f64],
    ) -> Vec<f64> {
        let largest = candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.len())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut genes = Vec::with_capacity(self.len());
        for i in 0..self.n_candidates {
            genes.push(if i == largest { 0.95 } else { 0.2 });
        }
        for _ in 0..self.max_sets {
            for d in 0..self.n_designs {
                genes.push(design_scores.get(d).copied().unwrap_or(0.5).clamp(0.0, 1.0));
            }
        }
        genes.extend(std::iter::repeat_n(1.0, self.max_sets - 1));
        genes
    }

    /// The heuristic seed individual: prefer the topology's natural groups as
    /// accelerator sets, the profiling-preferred design everywhere, and evenly
    /// spaced layer cuts — essentially the computation-prioritised baseline,
    /// which the genetic search then improves on.
    pub(crate) fn heuristic_seed(
        &self,
        topo: &Topology,
        candidates: &[Vec<AccelId>],
        design_scores: &[f64],
    ) -> Vec<f64> {
        let groups: Vec<Vec<AccelId>> = topo
            .groups()
            .into_iter()
            .map(|g| topo.group_members(g))
            .collect();
        let n_groups = groups.len().max(1);

        let mut genes = Vec::with_capacity(self.len());
        for cand in candidates {
            let is_group = groups.iter().any(|g| g == cand);
            genes.push(if is_group { 0.95 } else { 0.3 });
        }
        for _ in 0..self.max_sets {
            for d in 0..self.n_designs {
                genes.push(design_scores.get(d).copied().unwrap_or(0.5).clamp(0.0, 1.0));
            }
        }
        for j in 0..self.max_sets - 1 {
            genes.push(((j + 1) as f64 / n_groups as f64).min(1.0));
        }
        genes
    }
}

/// Layout and decoder of the second-level genome (one block of
/// `GENES_PER_LAYER` (= 12) genes per compute layer of a layer range).
#[derive(Debug, Clone)]
pub struct SecondLevelGenome {
    n_layers: usize,
}

impl SecondLevelGenome {
    /// Creates the layout for `n_layers` compute layers.
    pub fn new(n_layers: usize) -> Self {
        Self { n_layers }
    }

    /// Total number of genes.
    pub fn len(&self) -> usize {
        self.n_layers * GENES_PER_LAYER
    }

    /// `true` if the range holds no compute layers.
    pub fn is_empty(&self) -> bool {
        self.n_layers == 0
    }

    /// Decodes the strategy of the `i`-th compute layer.
    pub(crate) fn decode_layer(&self, genes: &[f64], i: usize) -> Strategy {
        let block = &genes[i * GENES_PER_LAYER..(i + 1) * GENES_PER_LAYER];
        decode_strategy(block)
    }

    /// Decodes all per-layer strategies.
    pub fn decode(&self, genes: &[f64]) -> Vec<Strategy> {
        assert_eq!(genes.len(), self.len(), "genome length mismatch");
        (0..self.n_layers)
            .map(|i| self.decode_layer(genes, i))
            .collect()
    }

    /// Random initial genome.
    pub(crate) fn random_init(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..self.len()).map(|_| rng.gen()).collect()
    }

    /// Encodes explicit per-layer strategies into a gene vector that decodes
    /// back to exactly those strategies.  Used to seed the second-level search
    /// with the greedy per-layer optimum.
    pub(crate) fn genes_for(&self, strategies: &[Strategy]) -> Vec<f64> {
        assert_eq!(
            strategies.len(),
            self.n_layers,
            "one strategy per compute layer"
        );
        let mut genes = Vec::with_capacity(self.len());
        for s in strategies {
            // ES scores: the first chosen dimension scores highest.
            let chosen: Vec<Dim> = s.es().iter().collect();
            for d in Dim::ALL {
                genes.push(match chosen.iter().position(|c| *c == d) {
                    Some(0) => 0.95,
                    Some(_) => 0.85,
                    None => 0.2,
                });
            }
            for d in Dim::ALL {
                genes.push(if s.ss() == Some(d) { 0.95 } else { 0.2 });
            }
        }
        genes
    }

    /// Heuristic genome: exclusive shards on the two longest dimensions of
    /// every layer (the baseline's rule), no shared shards.
    pub(crate) fn heuristic_seed(&self, nests: &[LoopNest]) -> Vec<f64> {
        assert_eq!(nests.len(), self.n_layers, "one nest per compute layer");
        let mut genes = Vec::with_capacity(self.len());
        for nest in nests {
            let longest: Vec<Dim> = nest.dims_by_extent().into_iter().take(2).collect();
            for d in Dim::ALL {
                genes.push(if longest.contains(&d) { 0.85 } else { 0.2 });
            }
            genes.extend(std::iter::repeat_n(0.2, Dim::ALL.len()));
        }
        genes
    }
}

/// Decodes one [`GENES_PER_LAYER`]-gene block into a [`Strategy`].
pub(crate) fn decode_strategy(block: &[f64]) -> Strategy {
    debug_assert_eq!(block.len(), GENES_PER_LAYER);
    let es_scores = &block[..6];
    let ss_scores = &block[6..12];

    // Top-two ES dimensions above the threshold.
    let mut es_ranked: Vec<(usize, f64)> = es_scores
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, s)| *s > ES_THRESHOLD)
        .collect();
    es_ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let es: DimSet = es_ranked
        .iter()
        .take(2)
        .map(|(i, _)| Dim::from_index(*i))
        .collect();

    // Best SS dimension above the threshold, excluding ES dimensions.
    let ss = ss_scores
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, s)| *s > SS_THRESHOLD && !es.contains(Dim::from_index(*i)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(i, _)| Dim::from_index(i));

    Strategy::try_new(es, ss).expect("decoder produces disjoint ES/SS with at most two ES dims")
}

/// Allocation- and branch-free equivalent of [`decode_strategy`], used by
/// the flat search engine's per-block fitness hot loop (which decodes
/// millions of blocks per search).  Bit-identical to [`decode_strategy`],
/// including its tie-breaks: equal ES scores resolve to the lower dimension
/// index (the stable descending sort) and equal SS scores to the higher
/// (`max_by` keeps the last maximum).
///
/// On random genes every threshold test and arg-max comparison is a coin
/// flip, so the decoder takes no data-dependent branch.  Each score becomes
/// an integer key (see [`key_above`]), and running arg-maxes over the keys
/// update through mask blends: an ES score displaces a running top-two
/// entry only when strictly greater (the lowest index keeps a tie), an SS
/// score displaces the running best on `>=` (the highest index takes it).
/// Tests pin the two decoders equal on random and tie-heavy blocks.
pub(crate) fn decode_strategy_fast(block: &[f64]) -> Strategy {
    debug_assert_eq!(block.len(), GENES_PER_LAYER);
    let es_scores: &[f64; 6] = block[..6].try_into().expect("six ES genes");
    let ss_scores: &[f64; 6] = block[6..12].try_into().expect("six SS genes");

    // Running top two ES keys with their dimension indices.
    let (mut k1, mut i1, mut k2, mut i2) = (0, NO_DIM, 0, NO_DIM);
    for (i, &s) in (0u64..).zip(es_scores) {
        let k = key_above(s, ES_THRESHOLD);
        let (beats1, beats2) = (k > k1, k > k2);
        // A new first pushes the old first down to second.
        (k2, i2) = (
            blend(beats1, k1, blend(beats2, k, k2)),
            blend(beats1, i1, blend(beats2, i, i2)),
        );
        (k1, i1) = (blend(beats1, k, k1), blend(beats1, i, i1));
    }
    let es = dim_singleton(i1).union(dim_singleton(i2));

    // Running best SS key outside the ES dimensions.  It starts at 1, above
    // the 0 of every non-candidate and below every candidate's key.
    let (mut ks, mut is) = (1, NO_DIM);
    for (i, (&s, d)) in (0u64..).zip(ss_scores.iter().zip(Dim::ALL)) {
        let k = blend(es.contains(d), 0, key_above(s, SS_THRESHOLD));
        let take = k >= ks;
        (ks, is) = (blend(take, k, ks), blend(take, i, is));
    }

    Strategy::try_new(es, DIM_OR_NONE[is as usize])
        .expect("decoder produces disjoint ES/SS with at most two ES dims")
}

/// Dimension index standing for "no dimension" in [`decode_strategy_fast`].
const NO_DIM: u64 = 6;

/// `Some(Dim::ALL[i])`, or `None` at [`NO_DIM`].
const DIM_OR_NONE: [Option<Dim>; 7] = [
    Some(Dim::Cout),
    Some(Dim::Cin),
    Some(Dim::H),
    Some(Dim::W),
    Some(Dim::Kh),
    Some(Dim::Kw),
    None,
];

/// `{Dim::ALL[i]}`, or the empty set at [`NO_DIM`]: a table lookup, not a
/// branch.
fn dim_singleton(i: u64) -> DimSet {
    DIM_OR_NONE.map(DimSet::from_dims)[i as usize]
}

/// The arg-max key of a gene score against a positive `threshold`: the
/// score's bit pattern when it lies above the threshold (positive floats
/// order like their bits), else 0, which never wins.  A NaN score is never
/// above, as in [`decode_strategy`]'s filters.
fn key_above(score: f64, threshold: f64) -> u64 {
    score.to_bits() & u64::from(score > threshold).wrapping_neg()
}

/// `if take { a } else { b }` as a mask blend, which compiles to a
/// conditional move rather than a branch the CPU would mispredict.
fn blend(take: bool, a: u64, b: u64) -> u64 {
    let mask = u64::from(take).wrapping_neg();
    (a & mask) | (b & !mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_topology::{partition, presets};
    use rand::SeedableRng;

    #[test]
    fn first_level_layout_and_length() {
        let g = FirstLevelGenome::new(11, 3, 8, 100);
        assert_eq!(g.len(), 11 + 24 + 7);
        assert!(!g.is_empty());
    }

    #[test]
    fn first_level_decode_covers_all_accelerators_exactly_once() {
        let topo = presets::f1_16xlarge();
        let candidates = partition::accset_candidates(&topo);
        let layout = FirstLevelGenome::new(candidates.len(), 3, topo.len(), 40);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let genes = layout.random_init(&mut rng, &[1.0, 0.8, 0.6]);
            let assignments = layout.decode(&genes, &candidates);
            let mut members: Vec<AccelId> =
                assignments.iter().flat_map(|a| a.accels.clone()).collect();
            members.sort();
            members.dedup();
            assert_eq!(members.len(), topo.len(), "every accelerator used once");
            // Layer ranges tile 0..40.
            let mut cursor = 0;
            for a in &assignments {
                assert_eq!(a.layers.start, cursor);
                cursor = a.layers.end;
            }
            assert_eq!(cursor, 40);
        }
    }

    #[test]
    fn heuristic_seed_selects_the_topology_groups() {
        let topo = presets::f1_16xlarge();
        let candidates = partition::accset_candidates(&topo);
        let layout = FirstLevelGenome::new(candidates.len(), 3, topo.len(), 20);
        let genes = layout.heuristic_seed(&topo, &candidates, &[1.0, 0.7, 0.5]);
        let assignments = layout.decode(&genes, &candidates);
        assert_eq!(assignments.len(), 2);
        assert!(assignments.iter().all(|a| a.set_size() == 4));
        // Evenly split layers.
        assert_eq!(assignments[0].layers, 0..10);
        assert_eq!(assignments[1].layers, 10..20);
        // Both sets pick the profiling-preferred design.
        assert!(assignments.iter().all(|a| a.design == DesignId(0)));
    }

    #[test]
    fn design_choice_follows_highest_gene() {
        let topo = presets::single_group(4, 8.0, 2.0);
        let candidates = partition::accset_candidates(&topo);
        let layout = FirstLevelGenome::new(candidates.len(), 3, 4, 10);
        let mut genes = vec![0.0; layout.len()];
        // Score the full set highest.
        let full_idx = candidates.iter().position(|c| c.len() == 4).unwrap();
        genes[full_idx] = 1.0;
        // Slot 0 design genes: prefer design 2.
        genes[candidates.len() + 2] = 0.9;
        let assignments = layout.decode(&genes, &candidates);
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0].design, DesignId(2));
        assert_eq!(assignments[0].layers, 0..10);
    }

    #[test]
    fn second_level_decode_roundtrip() {
        let layout = SecondLevelGenome::new(3);
        assert_eq!(layout.len(), 36);
        let mut rng = StdRng::seed_from_u64(3);
        let genes = layout.random_init(&mut rng);
        let strategies = layout.decode(&genes);
        assert_eq!(strategies.len(), 3);
        for s in strategies {
            assert!(s.es().len() <= 2);
            if let Some(d) = s.ss() {
                assert!(!s.es().contains(d));
            }
        }
    }

    #[test]
    fn decode_strategy_thresholds() {
        // All genes low: the default strategy.
        let block = vec![0.1; GENES_PER_LAYER];
        assert!(decode_strategy(&block).is_none());

        // Strong H and W ES genes, strong Cout SS gene.
        let mut block = vec![0.1; GENES_PER_LAYER];
        block[Dim::H.index()] = 0.9;
        block[Dim::W.index()] = 0.8;
        block[6 + Dim::Cout.index()] = 0.9;
        let s = decode_strategy(&block);
        assert_eq!(s.es(), DimSet::from_dims([Dim::H, Dim::W]));
        assert_eq!(s.ss(), Some(Dim::Cout));

        // SS gene on a dimension already exclusive is ignored.
        let mut block = vec![0.1; GENES_PER_LAYER];
        block[Dim::H.index()] = 0.9;
        block[6 + Dim::H.index()] = 0.99;
        let s = decode_strategy(&block);
        assert_eq!(s.es(), DimSet::from_dims([Dim::H]));
        assert_eq!(s.ss(), None);

        // Three strong ES genes: only the top two are kept.
        let mut block = vec![0.1; GENES_PER_LAYER];
        block[Dim::Cout.index()] = 0.9;
        block[Dim::Cin.index()] = 0.8;
        block[Dim::W.index()] = 0.7;
        let s = decode_strategy(&block);
        assert_eq!(s.es(), DimSet::from_dims([Dim::Cout, Dim::Cin]));
    }

    #[test]
    fn fast_decode_matches_reference_decode() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..2000 {
            let block: Vec<f64> = (0..GENES_PER_LAYER).map(|_| rng.gen()).collect();
            assert_eq!(
                decode_strategy_fast(&block),
                decode_strategy(&block),
                "block {block:?}"
            );
        }
        // Tied scores must resolve identically too.
        let mut block = vec![0.2; GENES_PER_LAYER];
        block[Dim::Cout.index()] = 0.9;
        block[Dim::Cin.index()] = 0.9;
        block[Dim::H.index()] = 0.9;
        block[6 + Dim::W.index()] = 0.8;
        block[6 + Dim::Kh.index()] = 0.8;
        assert_eq!(decode_strategy_fast(&block), decode_strategy(&block));
        assert_eq!(
            decode_strategy_fast(&[0.1; GENES_PER_LAYER]),
            decode_strategy(&[0.1; GENES_PER_LAYER])
        );

        // Uniform genes almost never tie.  Draw every gene from a handful of
        // values instead: each threshold, the next float above it, and a few
        // values that win — so most blocks hold ties among the candidates,
        // and scores sit exactly on and just above the thresholds.
        let above = |t: f64| f64::from_bits(t.to_bits() + 1);
        let values = [
            0.2,
            ES_THRESHOLD,
            above(ES_THRESHOLD),
            SS_THRESHOLD,
            above(SS_THRESHOLD),
            0.85,
            0.95,
        ];
        let mut tied = 0;
        for _ in 0..25_000 {
            let block: Vec<f64> = (0..GENES_PER_LAYER)
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect();
            assert_eq!(
                decode_strategy_fast(&block),
                decode_strategy(&block),
                "block {block:?}"
            );
            let ties = |scores: &[f64], t: f64| {
                let top = scores.iter().copied().fold(t, f64::max);
                top > t && scores.iter().filter(|s| **s == top).count() > 1
            };
            tied += usize::from(ties(&block[..6], ES_THRESHOLD) || ties(&block[6..], SS_THRESHOLD));
        }
        assert!(tied > 10_000, "only {tied} blocks tie on a top score");
    }

    #[test]
    fn second_level_heuristic_prefers_longest_dims() {
        let layout = SecondLevelGenome::new(1);
        let nest = LoopNest::new(512, 256, 7, 7, 3, 3);
        let genes = layout.heuristic_seed(&[nest]);
        let s = layout.decode_layer(&genes, 0);
        assert_eq!(s.es(), DimSet::from_dims([Dim::Cout, Dim::Cin]));
        assert_eq!(s.ss(), None);
    }
}
