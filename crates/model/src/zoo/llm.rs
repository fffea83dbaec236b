//! Autoregressive LLM serving workloads: distinct prefill and decode cost
//! phases plus a KV-cache memory model.
//!
//! A CNN workload is one latency number per inference; an autoregressive
//! transformer is not.  Serving one request runs a **prefill** over the whole
//! prompt (compute-bound: cost grows with the prompt length) and then one
//! **decode** iteration per generated token (bandwidth-bound: every iteration
//! streams the full weight set from accelerator DRAM, so its cost is
//! dominated by a fixed base that is *shared* by every sequence decoding in
//! the same iteration).  That cost shape is exactly why continuous batching
//! wins: the per-iteration weight streaming amortises across however many
//! sequences are in flight, so keeping the batch full every iteration beats
//! holding a static batch until its slowest member drains.
//!
//! Memory is the binding constraint: each in-flight sequence holds a KV-cache
//! entry per token it has accepted (prompt + generated so far), on top of the
//! resident weights.  [`LlmWorkload`] exposes the byte accounting the
//! serving engine's admission control and the co-scheduler's placement
//! constraint both consume.

use crate::workload::{PhasedTraffic, TrafficError, TrafficPhase, TrafficProfile};

/// One autoregressive serving workload: the prefill/decode cost model, the
/// memory footprint, and the request-shape ranges its traffic draws from.
///
/// ```
/// use mars_model::zoo::llm_mix;
///
/// let llm = &llm_mix().workloads[0];
/// // Prefill cost grows with the prompt; decode cost is dominated by the
/// // shared per-iteration base, so batching decodes is nearly free.
/// assert!(llm.prefill_seconds(512) > 4.0 * llm.prefill_seconds(64));
/// let solo = llm.decode_iteration_seconds(1);
/// let batched = llm.decode_iteration_seconds(8);
/// assert!(batched < 2.0 * solo, "8-way decode costs far less than 8 solos");
/// // KV bytes grow linearly with accepted tokens.
/// assert_eq!(llm.kv_bytes(100), 100 * llm.kv_bytes_per_token);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LlmWorkload {
    /// Display name.
    pub name: String,
    /// SLA weight (relative latency criticality, as for CNN workloads).
    pub(crate) weight: f64,
    /// Fixed prefill overhead per request, seconds (kernel launch, KV
    /// allocation).
    pub(crate) prefill_base_seconds: f64,
    /// Marginal prefill cost per prompt token, seconds (compute-bound: the
    /// whole prompt is processed in one full-sequence pass).
    pub(crate) prefill_per_token_seconds: f64,
    /// Fixed cost of one decode iteration, seconds — streaming the complete
    /// weight set from DRAM.  Shared by every sequence decoding in the
    /// iteration; the term continuous batching amortises.
    pub(crate) decode_base_seconds: f64,
    /// Marginal decode cost per running sequence per iteration, seconds
    /// (per-sequence attention over its KV cache).
    pub(crate) decode_per_seq_seconds: f64,
    /// Resident model weights, bytes.
    pub weights_bytes: u64,
    /// KV-cache bytes per accepted token (prompt and generated alike).
    pub kv_bytes_per_token: u64,
    /// Inclusive range of prompt lengths its requests draw from.
    pub prompt_tokens: (u32, u32),
    /// Inclusive range of generated-output lengths its requests draw from.
    pub output_tokens: (u32, u32),
}

impl LlmWorkload {
    /// A chat-tuned ~7B-class model quantised for a single accelerator card:
    /// short prompts, short answers, strict SLA weight.
    pub(crate) fn chat_7b() -> Self {
        Self {
            name: "chat-7b".into(),
            weight: 2.0,
            prefill_base_seconds: 2.0e-3,
            prefill_per_token_seconds: 0.08e-3,
            decode_base_seconds: 12.0e-3,
            decode_per_seq_seconds: 0.2e-3,
            weights_bytes: 1_600 << 20, // 1.6 GiB
            kv_bytes_per_token: 256 << 10,
            prompt_tokens: (32, 384),
            output_tokens: (16, 96),
        }
    }

    /// A code-completion ~13B-class model: longer prompts (file context),
    /// heavier weights, slower per-iteration streaming.
    pub(crate) fn code_13b() -> Self {
        Self {
            name: "code-13b".into(),
            weight: 1.5,
            prefill_base_seconds: 3.0e-3,
            prefill_per_token_seconds: 0.14e-3,
            decode_base_seconds: 22.0e-3,
            decode_per_seq_seconds: 0.35e-3,
            weights_bytes: 2_400 << 20, // 2.4 GiB
            kv_bytes_per_token: 384 << 10,
            prompt_tokens: (128, 768),
            output_tokens: (8, 64),
        }
    }

    /// A summarisation ~7B-class model: very long prompts, short outputs —
    /// prefill-heavy traffic that stresses the KV budget per request.
    pub(crate) fn summarize_7b() -> Self {
        Self {
            name: "summarize-7b".into(),
            weight: 1.0,
            prefill_base_seconds: 2.0e-3,
            prefill_per_token_seconds: 0.08e-3,
            decode_base_seconds: 12.0e-3,
            decode_per_seq_seconds: 0.2e-3,
            weights_bytes: 1_600 << 20,
            kv_bytes_per_token: 256 << 10,
            prompt_tokens: (512, 1024),
            output_tokens: (24, 72),
        }
    }

    /// Prefill latency for a `prompt_tokens`-token prompt, seconds.
    pub fn prefill_seconds(&self, prompt_tokens: u32) -> f64 {
        self.prefill_base_seconds + self.prefill_per_token_seconds * prompt_tokens as f64
    }

    /// Latency of one decode iteration with `running` sequences in flight,
    /// seconds.  The base term (weight streaming) is paid once for the whole
    /// iteration regardless of `running` — the economics behind continuous
    /// batching.
    pub fn decode_iteration_seconds(&self, running: usize) -> f64 {
        self.decode_base_seconds + self.decode_per_seq_seconds * running as f64
    }

    /// The contention-free latency of a `(prompt, output)` request: one
    /// prefill plus `output` solo decode iterations.  SLA deadlines are
    /// expressed relative to this (deadline = arrival + `sla_factor` × ideal),
    /// mirroring how CNN SLAs scale with the placement's latency.
    pub fn ideal_latency_seconds(&self, prompt_tokens: u32, output_tokens: u32) -> f64 {
        self.prefill_seconds(prompt_tokens)
            + output_tokens as f64 * self.decode_iteration_seconds(1)
    }

    /// KV-cache footprint of `tokens` accepted tokens, bytes.
    pub fn kv_bytes(&self, tokens: u64) -> u64 {
        self.kv_bytes_per_token * tokens
    }

    /// KV-cache footprint of one fully decoded request: its prompt plus its
    /// output, summed in `u64` so no token counts can overflow.
    pub fn request_kv_bytes(&self, prompt_tokens: u32, output_tokens: u32) -> u64 {
        self.kv_bytes(u64::from(prompt_tokens) + u64::from(output_tokens))
    }

    /// The largest KV reservation any single request of this workload can
    /// need: its maximal prompt plus maximal output, fully decoded.
    pub fn max_request_kv_bytes(&self) -> u64 {
        self.request_kv_bytes(self.prompt_tokens.1, self.output_tokens.1)
    }
}

/// The LLM serving scenario: workloads, phased traffic (per-phase rates *and*
/// SLA factors), the per-accelerator memory capacity, and the batch slot cap.
///
/// Like [`FleetSpec`](crate::zoo::FleetSpec) this is carried as plain serving
/// data — the serving engine synthesises one lane per workload without a
/// placement search — but unlike the fleet it is *memory-constrained*: each
/// lane's accelerator holds `accel_memory_bytes`, the workload's weights stay
/// resident, and the remainder is the KV budget that admission control
/// enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmSpec {
    /// The workloads, indexed as the traffic's profile vectors are.
    pub workloads: Vec<LlmWorkload>,
    /// Per-phase arrival rates and SLA factors over the horizon.
    pub traffic: PhasedTraffic,
    /// Memory capacity of each lane's accelerator, bytes.
    pub accel_memory_bytes: u64,
    /// Maximum sequences decoding in one iteration (scheduler slot cap).
    pub max_batch_slots: usize,
}

impl LlmSpec {
    /// The KV budget of workload `w`'s lane: capacity minus resident weights.
    pub fn kv_budget_bytes(&self, w: usize) -> u64 {
        self.accel_memory_bytes
            .saturating_sub(self.workloads[w].weights_bytes)
    }

    /// Validates the scenario: traffic shape, and that every lane can hold
    /// its weights plus at least one worst-case request in memory.
    ///
    /// # Errors
    ///
    /// Propagates [`PhasedTraffic::validate`], returns
    /// [`TrafficError::WorkloadMismatch`] when the workload count and the
    /// traffic's profile vectors disagree, and
    /// [`TrafficError::RequestExceedsKvBudget`] when a lane cannot hold one
    /// maximal request (such a request could never be admitted).
    pub fn validate(&self) -> Result<(), TrafficError> {
        self.traffic.validate()?;
        if self.traffic.workloads() != self.workloads.len() {
            return Err(TrafficError::WorkloadMismatch {
                phase: 0,
                expected: self.workloads.len(),
                got: self.traffic.workloads(),
            });
        }
        for (w, llm) in self.workloads.iter().enumerate() {
            let (request_bytes, budget_bytes) =
                (llm.max_request_kv_bytes(), self.kv_budget_bytes(w));
            if request_bytes > budget_bytes {
                return Err(TrafficError::RequestExceedsKvBudget {
                    workload: w,
                    request_bytes,
                    budget_bytes,
                });
            }
        }
        Ok(())
    }
}

/// The bundled LLM mix: chat, code-completion and summarisation models on
/// 4 GiB accelerator cards, with a three-phase horizon whose surge tightens
/// the SLA factors (phase-aware deadlines).
///
/// ```
/// use mars_model::zoo::llm_mix;
///
/// let spec = llm_mix();
/// assert_eq!(spec.workloads.len(), 3);
/// spec.validate().unwrap();
/// // The surge phase raises rates and tightens deadlines.
/// let base = &spec.traffic.phases[0].profiles[0];
/// let surge = &spec.traffic.phases[1].profiles[0];
/// assert!(surge.qps > base.qps && surge.sla_factor < base.sla_factor);
/// ```
pub fn llm_mix() -> LlmSpec {
    let workloads = vec![
        LlmWorkload::chat_7b(),
        LlmWorkload::code_13b(),
        LlmWorkload::summarize_7b(),
    ];
    // (base qps, base SLA factor) per workload; the surge multiplies rates
    // by 1.7 and tightens deadlines to 0.85x, the cool-down relaxes back.
    let shape: [(f64, f64); 3] = [(9.0, 3.0), (5.0, 4.0), (3.5, 3.5)];
    let base: Vec<TrafficProfile> = shape
        .iter()
        .map(|&(qps, sla)| TrafficProfile::new(qps, sla))
        .collect();
    let surge: Vec<TrafficProfile> = shape
        .iter()
        .map(|&(qps, sla)| TrafficProfile::new(qps * 1.7, sla * 0.85))
        .collect();
    let cool: Vec<TrafficProfile> = shape
        .iter()
        .map(|&(qps, sla)| TrafficProfile::new(qps * 0.6, sla))
        .collect();
    let traffic = PhasedTraffic::new(
        12.0,
        vec![
            TrafficPhase::new(0.0, base),
            TrafficPhase::new(4.0, surge),
            TrafficPhase::new(8.0, cool),
        ],
    );
    LlmSpec {
        workloads,
        traffic,
        accel_memory_bytes: 4 << 30,
        max_batch_slots: 12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_separates_prefill_and_decode_regimes() {
        for llm in [
            LlmWorkload::chat_7b(),
            LlmWorkload::code_13b(),
            LlmWorkload::summarize_7b(),
        ] {
            // Prefill is compute-bound: linear in the prompt.
            let short = llm.prefill_seconds(64);
            let long = llm.prefill_seconds(640);
            assert!(long > short, "{}", llm.name);
            // Decode is bandwidth-bound: the 12-way iteration costs far less
            // than 12 solo iterations (the amortisation continuous batching
            // exploits).
            let solo = llm.decode_iteration_seconds(1);
            let full = llm.decode_iteration_seconds(12);
            assert!(full < 3.0 * solo, "{}: batching must amortise", llm.name);
            // Ideal latency composes both phases.
            let ideal = llm.ideal_latency_seconds(128, 32);
            assert!((ideal - (llm.prefill_seconds(128) + 32.0 * solo)).abs() < 1e-12);
        }
    }

    #[test]
    fn memory_accounting_is_exact_and_monotone() {
        let llm = LlmWorkload::chat_7b();
        assert_eq!(llm.kv_bytes(0), 0);
        assert_eq!(
            llm.max_request_kv_bytes(),
            llm.kv_bytes((llm.prompt_tokens.1 + llm.output_tokens.1) as u64)
        );
        // A `u32::MAX`-token prompt range needs its true reservation, which
        // no lane can hold.
        let huge = LlmWorkload {
            prompt_tokens: (1, u32::MAX),
            ..LlmWorkload::chat_7b()
        };
        let tokens = u64::from(u32::MAX) + u64::from(huge.output_tokens.1);
        assert_eq!(huge.max_request_kv_bytes(), huge.kv_bytes(tokens));
        let mut spec = llm_mix();
        spec.workloads[0] = huge;
        assert!(matches!(
            spec.validate(),
            Err(TrafficError::RequestExceedsKvBudget { workload: 0, .. })
        ));
    }

    #[test]
    fn llm_mix_validates_and_fits_its_cards() {
        let spec = llm_mix();
        spec.validate().unwrap();
        for (w, llm) in spec.workloads.iter().enumerate() {
            // Weights resident, at least one maximal request admissible.
            assert!(llm.weights_bytes < spec.accel_memory_bytes);
            assert!(llm.max_request_kv_bytes() <= spec.kv_budget_bytes(w));
            // Token ranges are non-empty and ordered.
            assert!(llm.prompt_tokens.0 <= llm.prompt_tokens.1);
            assert!(llm.output_tokens.0 <= llm.output_tokens.1);
        }
        // Three phases, phase-aware SLA factors: surge is strictly tighter.
        assert_eq!(spec.traffic.phases.len(), 3);
        for w in 0..spec.workloads.len() {
            let base = spec.traffic.phases[0].profiles[w];
            let surge = spec.traffic.phases[1].profiles[w];
            assert!(surge.sla_factor < base.sla_factor);
            assert!(surge.qps > base.qps);
        }
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let mut spec = llm_mix();
        spec.workloads.pop();
        assert!(spec.validate().is_err());
    }
}
