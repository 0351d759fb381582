//! Max-min fair bandwidth allocation ("water-filling") with weighted
//! resource demands.
//!
//! Given a set of fluid flows, each with an intrinsic rate cap (e.g. one
//! rail's peak for a rail transfer) and a set of `(resource, weight)` pairs
//! it loads — a flow at rate `x` consumes `weight · x` of each resource —
//! the allocator assigns max-min fair rates by classical progressive
//! filling: all rates rise together until a resource saturates, flows
//! through it freeze, filling continues. Per-flow caps are modeled as
//! virtual single-flow resources.
//!
//! Weights express that some byte streams load memory harder than others:
//! a kernel-assisted CMA copy touches DRAM about twice as hard per payload
//! byte as a streaming shm memcpy (see [`crate::ClusterSpec::cma_mem_weight`]).
//!
//! Two allocators live here:
//!
//! * [`WaterFiller`] — the from-scratch progressive-filling reference.
//!   Its output (rates *and* per-resource saturation levels) is a pure
//!   function of the component it is handed: the flow caps, the weights,
//!   the resources in first-appearance order, and their capacities. That
//!   purity is what makes the second allocator possible.
//! * [`IncrementalFiller`] — the engine's allocator. It canonicalizes the
//!   component into a bit-exact descriptor and replays memoized solutions:
//!   schedules are overwhelmingly self-similar (a ring step re-creates the
//!   same contention pattern thousands of times), so steady state is a
//!   hash probe plus a copy instead of a fill. On a miss it defers to the
//!   reference filler and memoizes. It also tracks persistent per-resource
//!   saturation levels across events, so every recompute reports how many
//!   resources' bottleneck level actually moved ("touched") — the
//!   observable that distinguishes an incremental update from a full
//!   recompute.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::resources::ResourceId;

/// One flow's allocation inputs.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec<'a> {
    /// Intrinsic rate cap (bytes/s); must be positive and finite.
    pub cap: f64,
    /// `(resource, weight)` pairs the flow loads. May be empty (rate = cap).
    pub resources: &'a [(ResourceId, f64)],
}

/// Relative tolerance for saturation detection.
const EPS: f64 = 1e-9;

/// A flow spec that cannot be water-filled. Raised as a typed error on the
/// engine's flow-issue path (instead of the old debug-only assertions that
/// let a non-finite cap silently corrupt every rate in release builds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FillError {
    /// A flow's rate cap was zero, negative, or not finite.
    BadCap {
        /// Index of the offending flow within the filled component.
        flow: usize,
        /// The rejected cap value.
        cap: f64,
    },
    /// A flow's resource weight was zero, negative, or not finite.
    BadWeight {
        /// Index of the offending flow within the filled component.
        flow: usize,
        /// The rejected weight value.
        weight: f64,
    },
}

impl FillError {
    /// Index (within the filled component) of the flow that was rejected.
    pub fn flow(&self) -> usize {
        match *self {
            FillError::BadCap { flow, .. } | FillError::BadWeight { flow, .. } => flow,
        }
    }
}

impl std::fmt::Display for FillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FillError::BadCap { flow, cap } => {
                write!(f, "flow {flow}: cap must be positive and finite, got {cap}")
            }
            FillError::BadWeight { flow, weight } => {
                write!(
                    f,
                    "flow {flow}: weight must be positive and finite, got {weight}"
                )
            }
        }
    }
}

impl std::error::Error for FillError {}

/// Reusable scratch space for [`WaterFiller::fill`]; hoisted out so the
/// simulation engine does not allocate on every event.
#[derive(Debug, Default)]
pub struct WaterFiller {
    // Dense local re-indexing of the (sparse, global) ResourceIds.
    // `local_of` is indexed by `ResourceId` directly (u32::MAX = absent);
    // only the entries named by `local_ids` are live, so resetting between
    // calls costs O(component), not O(cluster resources).
    local_ids: Vec<ResourceId>,
    local_of: Vec<u32>,
    rem: Vec<f64>,
    wsum: Vec<f64>,
    flows_of: Vec<Vec<u32>>,
    fixed: Vec<bool>,
    levels: Vec<f64>,
}

impl WaterFiller {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes max-min fair rates for `flows`, writing into `rates`
    /// (which is resized to `flows.len()`).
    ///
    /// `capacity(r)` must return the total capacity of resource `r`.
    pub fn fill(
        &mut self,
        flows: &[FlowSpec<'_>],
        capacity: impl FnMut(ResourceId) -> f64,
        rates: &mut Vec<f64>,
    ) -> Result<(), FillError> {
        self.fill_with(flows.len(), |fi| flows[fi], capacity, rates)
    }

    /// The component's real resources, in first-appearance order, after a
    /// fill. Aligned with [`WaterFiller::levels`].
    pub fn local_resources(&self) -> &[ResourceId] {
        &self.local_ids
    }

    /// The saturation level of each component resource after a fill
    /// (aligned with [`WaterFiller::local_resources`]): the common rate at
    /// which the resource ran out of headroom and froze its flows, or
    /// `f64::INFINITY` for a resource that never saturated.
    pub fn levels(&self) -> &[f64] {
        &self.levels[..self.local_ids.len()]
    }

    /// [`WaterFiller::fill`] over a *view*: `flow(i)` yields the `i`-th
    /// flow's spec on demand (it may be called several times per flow and
    /// must be pure). This lets the engine water-fill straight out of its
    /// flow table without assembling a spec vector, so steady-state calls
    /// allocate nothing: every scratch structure here — including the
    /// per-resource member lists — keeps its buffers across calls.
    pub fn fill_with<'a>(
        &mut self,
        n: usize,
        mut flow: impl FnMut(usize) -> FlowSpec<'a>,
        mut capacity: impl FnMut(ResourceId) -> f64,
        rates: &mut Vec<f64>,
    ) -> Result<(), FillError> {
        rates.clear();
        rates.resize(n, 0.0);
        if n == 0 {
            self.local_ids.clear();
            self.levels.clear();
            return Ok(());
        }

        // Un-map the previous component's resources (cheap: O(previous
        // component size)), then rebuild for this call. `flows_of` entries
        // are recycled slot-wise below instead of dropped.
        for &r in &self.local_ids {
            self.local_of[r.index()] = u32::MAX;
        }
        self.local_ids.clear();
        self.rem.clear();
        self.wsum.clear();
        self.fixed.clear();
        self.fixed.resize(n, false);

        // Build the local resource table: real resources first…
        for fi in 0..n {
            let f = flow(fi);
            if !(f.cap.is_finite() && f.cap > 0.0) {
                return Err(FillError::BadCap {
                    flow: fi,
                    cap: f.cap,
                });
            }
            for &(r, w) in f.resources {
                if !(w.is_finite() && w > 0.0) {
                    return Err(FillError::BadWeight {
                        flow: fi,
                        weight: w,
                    });
                }
                if r.index() >= self.local_of.len() {
                    self.local_of.resize(r.index() + 1, u32::MAX);
                }
                let li = match self.local_of[r.index()] {
                    u32::MAX => {
                        let li = self.local_ids.len();
                        self.local_of[r.index()] = li as u32;
                        self.local_ids.push(r);
                        self.rem.push(capacity(r));
                        self.wsum.push(0.0);
                        if self.flows_of.len() <= li {
                            self.flows_of.push(Vec::new());
                        } else {
                            self.flows_of[li].clear();
                        }
                        li
                    }
                    li => li as usize,
                };
                self.wsum[li] += w;
                self.flows_of[li].push(fi as u32);
            }
        }
        // …then one virtual resource per flow for its rate cap.
        let virt_base = self.local_ids.len();
        for fi in 0..n {
            self.rem.push(flow(fi).cap);
            self.wsum.push(1.0);
            let li = virt_base + fi;
            if self.flows_of.len() <= li {
                self.flows_of.push(Vec::new());
            } else {
                self.flows_of[li].clear();
            }
            self.flows_of[li].push(fi as u32);
        }

        let nres = self.rem.len();
        self.levels.clear();
        self.levels.resize(nres, f64::INFINITY);
        let mut unfixed = n;
        let mut level = 0.0f64;

        while unfixed > 0 {
            // The smallest additional level any active resource can absorb.
            let mut delta = f64::INFINITY;
            let mut argmin = usize::MAX;
            for li in 0..nres {
                if self.wsum[li] > 0.0 {
                    let share = self.rem[li].max(0.0) / self.wsum[li];
                    if share < delta {
                        delta = share;
                        argmin = li;
                    }
                }
            }
            if !delta.is_finite() {
                // Defensively unreachable: every unfixed flow keeps its
                // virtual cap resource active, so the scan above always
                // sees one. Freeze the remainder rather than spin.
                debug_assert!(false, "no active resource while {unfixed} flows unfixed");
                for (fi, rate) in rates.iter_mut().enumerate().take(n) {
                    if !self.fixed[fi] {
                        self.fixed[fi] = true;
                        *rate = level;
                    }
                }
                break;
            }
            if delta > 0.0 {
                level += delta;
                // Drain headroom. A `delta == 0` round — some resource's
                // headroom is already gone, e.g. a rail whose fault
                // scaling hit exactly 0 at issue time — skips this
                // (bitwise no-op) drain and goes straight to the freeze
                // pass, which starves the exhausted resource's flows and
                // retires it in one pass.
                for li in 0..nres {
                    if self.wsum[li] > 0.0 {
                        self.rem[li] -= delta * self.wsum[li];
                    }
                }
            }
            // Freeze flows on saturated resources and retire those
            // resources from the min scan.
            let mut progress = false;
            for li in 0..nres {
                if self.wsum[li] <= 0.0 || self.rem[li] > EPS * level.max(1e-30) {
                    continue;
                }
                progress = true;
                unfixed -= self.freeze_resource(li, level, virt_base, &mut flow, rates);
            }
            if !progress {
                // Forward-progress guarantee for release builds: the
                // argmin resource is drained to within rounding of zero,
                // so if the tolerance test somehow missed it (enormous
                // weight sums), retire it outright. Each round now fixes
                // a flow or retires a resource, bounding the loop.
                debug_assert!(false, "water-filling round made no progress");
                unfixed -= self.freeze_resource(argmin, level, virt_base, &mut flow, rates);
            }
        }
        Ok(())
    }

    /// Freezes every unfixed flow crossing local resource `li` at `level`,
    /// retires their weights elsewhere, and retires `li` itself. Returns
    /// how many flows were fixed.
    fn freeze_resource<'a>(
        &mut self,
        li: usize,
        level: f64,
        virt_base: usize,
        flow: &mut impl FnMut(usize) -> FlowSpec<'a>,
        rates: &mut [f64],
    ) -> usize {
        let flow_list = std::mem::take(&mut self.flows_of[li]);
        let mut fixed_now = 0;
        for &fi in &flow_list {
            let fi = fi as usize;
            if self.fixed[fi] {
                continue;
            }
            self.fixed[fi] = true;
            rates[fi] = level;
            fixed_now += 1;
            // Retire the flow from all its other resources.
            for &(r, w) in flow(fi).resources {
                let other = self.local_of[r.index()] as usize;
                self.wsum[other] -= w;
            }
            self.wsum[virt_base + fi] = 0.0;
        }
        self.flows_of[li] = flow_list;
        self.wsum[li] = 0.0;
        self.levels[li] = level;
        fixed_now
    }
}

/// One-shot convenience wrapper around [`WaterFiller::fill`].
///
/// # Panics
/// On an invalid flow spec (non-finite/non-positive cap or weight); use
/// [`WaterFiller::fill`] for the typed error.
pub fn max_min_rates(flows: &[FlowSpec<'_>], capacity: impl FnMut(ResourceId) -> f64) -> Vec<f64> {
    let mut filler = WaterFiller::new();
    let mut rates = Vec::new();
    filler
        .fill(flows, capacity, &mut rates)
        .expect("invalid flow spec");
    rates
}

// ---------------------------------------------------------------------------
// Incremental allocator: canonical descriptors + memoized replay
// ---------------------------------------------------------------------------

/// FNV-1a over the descriptor words — cheap and deterministic (the memo
/// must behave identically across processes; the default SipHash keys
/// would not change results, but FNV keeps the probe cost trivial).
#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    // The descriptor keys are `[u64]` slices, which std's `Hash`
    // specialization feeds to `write` as one raw byte slice. A byte-wise
    // FNV loop would serialize 8 multiplies per word; even word-wise, one
    // 70-word key is a ~70-multiply dependency chain. Four independent
    // lanes over strided words keep the multipliers pipelined, cutting the
    // probe's critical path ~4x; lanes fold together at the end.
    fn write(&mut self, bytes: &[u8]) {
        const M: u64 = 0x0000_0100_0000_01b3;
        let mut lanes = [
            self.0,
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x1656_67b1_9e37_79f9,
        ];
        let mut chunks = bytes.chunks_exact(32);
        for c in &mut chunks {
            for (l, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
                *l = (*l ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(M);
            }
        }
        let rest = chunks.remainder();
        let mut words = rest.chunks_exact(8);
        for (i, w) in (&mut words).enumerate() {
            lanes[i] = (lanes[i] ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(M);
        }
        let mut h = lanes[0];
        for &l in &lanes[1..] {
            h = (h ^ l).wrapping_mul(M);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(M);
        }
        self.0 = h;
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// One memoized solution: rates per flow and saturation level per real
/// resource, both in component order, plus each level's caller-local
/// resource index (used by [`IncrementalFiller::fill_keyed`] to map the
/// levels back onto the *current* occurrence's global resources —
/// distinct components share cache entries whenever their shapes match).
#[derive(Debug)]
struct CacheEntry {
    rates: Box<[f64]>,
    levels: Box<[f64]>,
    lidx: Box<[u32]>,
}

/// Components bigger than this are solved directly (a memo entry would be
/// large and such components are rare transients).
const MEMO_MAX_FLOWS: usize = 128;
/// Deterministic bound on the memo; on overflow it is flushed whole, so
/// behavior never depends on insertion order.
const MEMO_CAP: usize = 1 << 15;

/// Memo-cache counters (diagnostics for benches and tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct FillStats {
    /// Components answered by replaying a memoized solution.
    pub hits: u64,
    /// Components solved by the reference filler (then memoized).
    pub misses: u64,
    /// Times the memo hit its size cap (`MEMO_CAP` entries) and was flushed.
    pub flushes: u64,
}

/// The engine's incremental max-min allocator.
///
/// Wraps the reference [`WaterFiller`] with two structures that live
/// *across* events:
///
/// * a **memo cache** keyed by the component's canonical descriptor — for
///   each flow in component order its cap bits and `(first-appearance
///   resource index, weight bits)` pairs, then each distinct resource's
///   effective-capacity bits. The reference filler's output is a pure
///   function of exactly this data (it queries capacities once, at first
///   appearance, and orders its internal tables the same way), so
///   replaying a memoized solution is bit-identical to re-solving.
/// * a **persistent per-resource saturation level** array, compared
///   bit-wise after every fill to count how many resources' bottleneck
///   level actually moved — the `touched` count surfaced through
///   [`mha_sched::Probe::waterfill`].
///
/// Both caches are behavior-invisible by construction: a replay returns the
/// reference filler's bits. The `waterfill_eq` differential tests check
/// every memo path (miss, hit, and a hit relabelled onto other global
/// resources) against [`WaterFiller::fill_with`], component by component.
#[derive(Debug, Default)]
pub struct IncrementalFiller {
    scratch: WaterFiller,
    /// Persistent saturation level per global resource (`INFINITY` =
    /// unsaturated), compared bit-wise to produce `touched` counts.
    levels: Vec<f64>,
    // Epoch-stamped global→component-local resource numbering, rebuilt
    // per fill in O(component).
    lstamp: Vec<u64>,
    lidx: Vec<u32>,
    lres: Vec<ResourceId>,
    epoch: u64,
    key: Vec<u64>,
    cache: HashMap<Box<[u64]>, CacheEntry, BuildHasherDefault<Fnv>>,
    stats: FillStats,
}

impl IncrementalFiller {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memo-cache counters since construction.
    pub fn stats(&self) -> FillStats {
        self.stats
    }

    /// Rewinds the per-run state (persistent levels) for a cluster of
    /// `n_res` resources. The memo cache deliberately survives: its
    /// entries are pure functions of their descriptors, so a warm cache
    /// across runs (the campaign arena pattern) is bit-safe and fast.
    pub fn reset(&mut self, n_res: usize) {
        self.levels.clear();
        self.levels.resize(n_res, f64::INFINITY);
        if self.lstamp.len() < n_res {
            self.lstamp.resize(n_res, 0);
            self.lidx.resize(n_res, 0);
        }
    }

    /// Computes max-min rates for a component presented as a view (same
    /// contract as [`WaterFiller::fill_with`]) through the memo. Returns
    /// the number of component resources whose persistent saturation level
    /// changed.
    ///
    /// Builds the canonical descriptor — flows in order (cap bits, degree,
    /// then (local resource index, weight bits) pairs), then each distinct
    /// resource's effective capacity bits in first-appearance order — and
    /// hands it to [`IncrementalFiller::fill_keyed`].
    pub fn fill_view<'a>(
        &mut self,
        n: usize,
        mut flow: impl FnMut(usize) -> FlowSpec<'a>,
        mut capacity: impl FnMut(ResourceId) -> f64,
        rates: &mut Vec<f64>,
    ) -> Result<usize, FillError> {
        self.epoch += 1;
        let mut key = std::mem::take(&mut self.key);
        let mut lres = std::mem::take(&mut self.lres);
        key.clear();
        lres.clear();
        key.push(n as u64);
        for fi in 0..n {
            let f = flow(fi);
            key.push(f.cap.to_bits());
            key.push(f.resources.len() as u64);
            for &(r, w) in f.resources {
                let gi = r.index();
                if gi >= self.lstamp.len() {
                    self.lstamp.resize(gi + 1, 0);
                    self.lidx.resize(gi + 1, 0);
                }
                if self.lstamp[gi] != self.epoch {
                    self.lstamp[gi] = self.epoch;
                    self.lidx[gi] = lres.len() as u32;
                    lres.push(r);
                }
                key.push(u64::from(self.lidx[gi]));
                key.push(w.to_bits());
            }
        }
        for &r in &lres {
            key.push(capacity(r).to_bits());
        }
        let lidx = std::mem::take(&mut self.lidx);
        let filled = self.fill_keyed(
            &key,
            n,
            flow,
            capacity,
            |r| lidx[r.index()],
            |li| lres[li as usize],
            rates,
        );
        self.key = key;
        self.lres = lres;
        self.lidx = lidx;
        filled
    }

    /// Memoized fill over a *caller-prebuilt* canonical descriptor — the
    /// engine's hot path. The simulation engine assembles `key` during its
    /// component DFS (it is touching every flow and resource anyway), so a
    /// memo hit costs one hash probe plus a replay, with no second
    /// traversal to canonicalize the component.
    ///
    /// `key` must uniquely encode `(n, per-flow cap bits / degree /
    /// (local-resource index, weight bits) pairs, per-local-resource
    /// effective capacity bits)` under a caller-chosen local numbering;
    /// `lidx_of(r)` maps a global resource to that numbering and
    /// `ids_of(li)` back to the *current* occurrence's global resource.
    /// [`IncrementalFiller::fill_view`] is this call with the descriptor
    /// built for the caller.
    ///
    /// Memo entries store levels against local indices, so keys built
    /// under different numberings can share one memo: equal keys describe
    /// the same component up to relabelling, and `ids_of` places a replay
    /// on the current occurrence's resources.
    #[allow(clippy::too_many_arguments)] // mirrors the key layout, item by item
    pub fn fill_keyed<'a>(
        &mut self,
        key: &[u64],
        n: usize,
        mut flow: impl FnMut(usize) -> FlowSpec<'a>,
        mut capacity: impl FnMut(ResourceId) -> f64,
        mut lidx_of: impl FnMut(ResourceId) -> u32,
        mut ids_of: impl FnMut(u32) -> ResourceId,
        rates: &mut Vec<f64>,
    ) -> Result<usize, FillError> {
        if n == 0 {
            rates.clear();
            return Ok(0);
        }
        if n > MEMO_MAX_FLOWS {
            self.scratch.fill_with(n, &mut flow, &mut capacity, rates)?;
            return Ok(self.absorb_scratch_levels());
        }
        if let Some(entry) = self.cache.get(key) {
            self.stats.hits += 1;
            rates.clear();
            rates.extend_from_slice(&entry.rates);
            let mut touched = 0;
            for (k, &li) in entry.lidx.iter().enumerate() {
                let gi = ids_of(li).index();
                if gi >= self.levels.len() {
                    self.levels.resize(gi + 1, f64::INFINITY);
                }
                let new = entry.levels[k];
                let slot = &mut self.levels[gi];
                if slot.to_bits() != new.to_bits() {
                    *slot = new;
                    touched += 1;
                }
            }
            return Ok(touched);
        }
        self.scratch.fill_with(n, &mut flow, &mut capacity, rates)?;
        self.stats.misses += 1;
        if self.cache.len() >= MEMO_CAP {
            self.cache.clear();
            self.stats.flushes += 1;
        }
        let lidx: Box<[u32]> = self
            .scratch
            .local_resources()
            .iter()
            .map(|&r| lidx_of(r))
            .collect();
        self.cache.insert(
            key.to_vec().into_boxed_slice(),
            CacheEntry {
                rates: rates.as_slice().into(),
                levels: self.scratch.levels().into(),
                lidx,
            },
        );
        Ok(self.absorb_scratch_levels())
    }

    /// Folds the reference filler's per-component levels into the
    /// persistent array, returning how many entries changed bit-wise.
    fn absorb_scratch_levels(&mut self) -> usize {
        let mut touched = 0;
        for (r, &new) in self
            .scratch
            .local_resources()
            .iter()
            .zip(self.scratch.levels())
        {
            let gi = r.index();
            if gi >= self.levels.len() {
                self.levels.resize(gi + 1, f64::INFINITY);
            }
            if self.levels[gi].to_bits() != new.to_bits() {
                self.levels[gi] = new;
                touched += 1;
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: ResourceId = ResourceId(0);
    const R1: ResourceId = ResourceId(1);
    const R2: ResourceId = ResourceId(2);

    fn cap_table(caps: &[f64]) -> impl FnMut(ResourceId) -> f64 + '_ {
        move |r| caps[r.index()]
    }

    fn unit(rs: &[ResourceId]) -> Vec<(ResourceId, f64)> {
        rs.iter().map(|&r| (r, 1.0)).collect()
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_resource() {
        let rs = unit(&[R0]);
        let flows = [FlowSpec {
            cap: 5.0,
            resources: &rs,
        }];
        assert_eq!(max_min_rates(&flows, cap_table(&[10.0])), vec![5.0]);
        let flows = [FlowSpec {
            cap: 20.0,
            resources: &rs,
        }];
        assert_eq!(max_min_rates(&flows, cap_table(&[10.0])), vec![10.0]);
    }

    #[test]
    fn equal_flows_share_a_resource_equally() {
        let rs = unit(&[R0]);
        let flows = vec![
            FlowSpec {
                cap: 100.0,
                resources: &rs,
            };
            3
        ];
        let rates = max_min_rates(&flows, cap_table(&[9.0]));
        for r in rates {
            assert!((r - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_flow_releases_bandwidth_to_others() {
        let rs = unit(&[R0]);
        let flows = [
            FlowSpec {
                cap: 2.0,
                resources: &rs,
            },
            FlowSpec {
                cap: 100.0,
                resources: &rs,
            },
        ];
        let rates = max_min_rates(&flows, cap_table(&[10.0]));
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: flows A:{R0,R1}, B:{R1}, C:{R0,R2};
        // caps R0=10, R1=4, R2=6 → A=B=2, C=6.
        let ra = unit(&[R0, R1]);
        let rb = unit(&[R1]);
        let rc = unit(&[R0, R2]);
        let flows = [
            FlowSpec {
                cap: 100.0,
                resources: &ra,
            },
            FlowSpec {
                cap: 100.0,
                resources: &rb,
            },
            FlowSpec {
                cap: 100.0,
                resources: &rc,
            },
        ];
        let rates = max_min_rates(&flows, cap_table(&[10.0, 4.0, 6.0]));
        assert!((rates[0] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[2] - 6.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn weighted_flow_consumes_proportionally_more() {
        // A weight-2 flow and a weight-1 flow on a 9-unit resource: rates
        // equalize at 3 (2·3 + 1·3 = 9).
        let heavy = [(R0, 2.0)];
        let light = [(R0, 1.0)];
        let flows = [
            FlowSpec {
                cap: 100.0,
                resources: &heavy,
            },
            FlowSpec {
                cap: 100.0,
                resources: &light,
            },
        ];
        let rates = max_min_rates(&flows, cap_table(&[9.0]));
        assert!((rates[0] - 3.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 3.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn weighted_solo_flow_rate_is_capacity_over_weight() {
        let heavy = [(R0, 2.0)];
        let flows = [FlowSpec {
            cap: 100.0,
            resources: &heavy,
        }];
        let rates = max_min_rates(&flows, cap_table(&[10.0]));
        assert!((rates[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn flow_with_no_resources_runs_at_cap() {
        let flows = [FlowSpec {
            cap: 7.5,
            resources: &[],
        }];
        assert_eq!(max_min_rates(&flows, |_| unreachable!()), vec![7.5]);
    }

    #[test]
    fn zero_capacity_resource_starves_its_flows() {
        // A faulted (down) rail presents capacity 0: flows crossing it get
        // rate 0 cleanly, while flows elsewhere fill as usual.
        let dead = unit(&[R0]);
        let live = unit(&[R1]);
        let flows = [
            FlowSpec {
                cap: 100.0,
                resources: &dead,
            },
            FlowSpec {
                cap: 100.0,
                resources: &live,
            },
        ];
        let rates = max_min_rates(&flows, cap_table(&[0.0, 10.0]));
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn all_flows_starved_terminates_in_one_round() {
        // Every resource at exactly 0 capacity: the freeze pass must fix
        // every flow at level 0 in a single pass — no spin, even though
        // delta is 0 in the only round.
        let rs0 = unit(&[R0]);
        let rs1 = unit(&[R0, R1]);
        let flows = [
            FlowSpec {
                cap: 10.0,
                resources: &rs0,
            },
            FlowSpec {
                cap: 10.0,
                resources: &rs1,
            },
        ];
        let rates = max_min_rates(&flows, cap_table(&[0.0, 0.0]));
        assert_eq!(rates, vec![0.0, 0.0]);
    }

    #[test]
    fn invalid_caps_and_weights_are_typed_errors_in_release_too() {
        // These were debug_assert!s: release builds silently produced
        // garbage rates. Now they are typed errors on every build.
        let rs = unit(&[R0]);
        let mut filler = WaterFiller::new();
        let mut rates = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let flows = [FlowSpec {
                cap: bad,
                resources: &rs,
            }];
            let err = filler.fill(&flows, |_| 10.0, &mut rates).unwrap_err();
            assert_eq!(err.flow(), 0);
            assert!(matches!(err, FillError::BadCap { cap, .. } if cap.to_bits() == bad.to_bits()));
        }
        for bad in [f64::NAN, f64::NEG_INFINITY, 0.0, -2.0] {
            let weighted = [(R0, bad)];
            let flows = [
                FlowSpec {
                    cap: 1.0,
                    resources: &rs,
                },
                FlowSpec {
                    cap: 1.0,
                    resources: &weighted,
                },
            ];
            let err = filler.fill(&flows, |_| 10.0, &mut rates).unwrap_err();
            assert_eq!(err.flow(), 1);
            assert!(matches!(err, FillError::BadWeight { .. }));
        }
        // The filler remains usable after a rejection.
        let flows = [FlowSpec {
            cap: 4.0,
            resources: &rs,
        }];
        filler.fill(&flows, |_| 10.0, &mut rates).unwrap();
        assert_eq!(rates, vec![4.0]);
    }

    #[test]
    fn levels_report_saturation_points() {
        // Three flows on R0 (cap 9): R0 saturates at level 3. R1 carries
        // one of them too but never saturates.
        let r01 = unit(&[R0, R1]);
        let r0 = unit(&[R0]);
        let flows = [
            FlowSpec {
                cap: 100.0,
                resources: &r01,
            },
            FlowSpec {
                cap: 100.0,
                resources: &r0,
            },
            FlowSpec {
                cap: 100.0,
                resources: &r0,
            },
        ];
        let mut filler = WaterFiller::new();
        let mut rates = Vec::new();
        filler
            .fill(&flows, cap_table(&[9.0, 100.0]), &mut rates)
            .unwrap();
        assert_eq!(filler.local_resources(), &[R0, R1]);
        let lv = filler.levels();
        assert!((lv[0] - 3.0).abs() < 1e-9, "{lv:?}");
        assert_eq!(lv[1], f64::INFINITY, "{lv:?}");
    }

    fn check_feasible_and_maxmin(flows: &[FlowSpec<'_>], caps: &[f64], rates: &[f64]) {
        let mut used = vec![0.0; caps.len()];
        for (f, &r) in flows.iter().zip(rates) {
            assert!(r <= f.cap * (1.0 + 1e-6), "flow exceeds cap");
            for &(res, w) in f.resources {
                used[res.index()] += r * w;
            }
        }
        for (u, c) in used.iter().zip(caps) {
            assert!(*u <= c * (1.0 + 1e-6), "resource oversubscribed: {u} > {c}");
        }
        for (f, &r) in flows.iter().zip(rates) {
            let at_cap = (r - f.cap).abs() < 1e-6 * f.cap.max(1.0);
            let bottlenecked = f.resources.iter().any(|&(res, _)| {
                let c = caps[res.index()];
                (used[res.index()] - c).abs() < 1e-6 * c.max(1.0)
            });
            assert!(
                at_cap || bottlenecked,
                "flow with rate {r} is neither capped nor bottlenecked"
            );
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let rates = max_min_rates(&[], |_| 1.0);
        assert!(rates.is_empty());
    }

    #[test]
    fn randomized_allocations_are_feasible_and_bottlenecked() {
        // Deterministic pseudo-random exercise (xorshift).
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let nres = 1 + (next() % 6) as usize;
            let caps: Vec<f64> = (0..nres).map(|_| 1.0 + (next() % 100) as f64).collect();
            let nflows = 1 + (next() % 8) as usize;
            let resource_sets: Vec<Vec<(ResourceId, f64)>> = (0..nflows)
                .map(|_| {
                    let k = 1 + (next() % 3) as usize;
                    let mut v: Vec<ResourceId> = (0..k)
                        .map(|_| ResourceId((next() % nres as u64) as u32))
                        .collect();
                    v.sort();
                    v.dedup();
                    v.into_iter()
                        .map(|r| (r, 1.0 + (next() % 3) as f64))
                        .collect()
                })
                .collect();
            let flow_caps: Vec<f64> = (0..nflows).map(|_| 1.0 + (next() % 50) as f64).collect();
            let flows: Vec<FlowSpec> = resource_sets
                .iter()
                .zip(&flow_caps)
                .map(|(rs, &cap)| FlowSpec { cap, resources: rs })
                .collect();
            let rates = max_min_rates(&flows, |r| caps[r.index()]);
            check_feasible_and_maxmin(&flows, &caps, &rates);
        }
    }

    #[test]
    fn filler_is_reusable() {
        let mut filler = WaterFiller::new();
        let mut rates = Vec::new();
        let rs = unit(&[R0]);
        let flows = [FlowSpec {
            cap: 4.0,
            resources: &rs,
        }];
        filler.fill(&flows, |_| 10.0, &mut rates).unwrap();
        assert_eq!(rates, vec![4.0]);
        let flows2 = vec![
            FlowSpec {
                cap: 100.0,
                resources: &rs,
            };
            2
        ];
        filler.fill(&flows2, |_| 10.0, &mut rates).unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_replay_is_bit_identical_to_scratch() {
        // Same component filled twice through the memo (miss, then hit)
        // must match a fresh reference fill bit-for-bit, and the hit must
        // actually come from the cache.
        let ra = unit(&[R0, R1]);
        let rb = unit(&[R1]);
        let rc = unit(&[R0, R2]);
        let flows = [
            FlowSpec {
                cap: 100.0,
                resources: &ra,
            },
            FlowSpec {
                cap: 3.5,
                resources: &rb,
            },
            FlowSpec {
                cap: 100.0,
                resources: &rc,
            },
        ];
        let caps = [10.0, 4.0, 6.0];
        let mut inc = IncrementalFiller::new();
        inc.reset(3);
        let mut miss_rates = Vec::new();
        inc.fill_view(
            flows.len(),
            |i| flows[i],
            |r| caps[r.index()],
            &mut miss_rates,
        )
        .unwrap();
        assert_eq!(inc.stats().misses, 1);
        let mut hit_rates = Vec::new();
        inc.fill_view(
            flows.len(),
            |i| flows[i],
            |r| caps[r.index()],
            &mut hit_rates,
        )
        .unwrap();
        assert_eq!(inc.stats().hits, 1);
        let reference = max_min_rates(&flows, cap_table(&caps));
        for (got, want) in miss_rates.iter().zip(&reference) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        for (got, want) in hit_rates.iter().zip(&reference) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn touched_counts_settle_to_zero_on_repeat_fills() {
        // First fill moves every saturating resource's level; an identical
        // repeat moves none.
        let rs = unit(&[R0]);
        let flows = [FlowSpec {
            cap: 100.0,
            resources: &rs,
        }; 2];
        let mut inc = IncrementalFiller::new();
        inc.reset(1);
        let mut rates = Vec::new();
        let t1 = inc
            .fill_view(2, |i| flows[i], |_| 10.0, &mut rates)
            .unwrap();
        assert_eq!(t1, 1, "R0 saturates, its level moves");
        let t2 = inc
            .fill_view(2, |i| flows[i], |_| 10.0, &mut rates)
            .unwrap();
        assert_eq!(t2, 0, "identical refill touches nothing");
        // A capacity change (fault rescale) moves it again — and misses
        // the memo, because capacity bits are part of the descriptor.
        let t3 = inc.fill_view(2, |i| flows[i], |_| 5.0, &mut rates).unwrap();
        assert_eq!(t3, 1);
        assert_eq!(inc.stats().misses, 2);
    }

    #[test]
    fn memo_distinguishes_resource_identity_patterns() {
        // Two flows on one shared resource vs two flows on two distinct
        // resources: same caps and weights, different sharing structure —
        // the local-index canonicalization must keep them apart.
        let shared = [unit(&[R0]), unit(&[R0])];
        let distinct = [unit(&[R0]), unit(&[R1])];
        let mut inc = IncrementalFiller::new();
        inc.reset(2);
        let mut rates = Vec::new();
        inc.fill_view(
            2,
            |i| FlowSpec {
                cap: 100.0,
                resources: &shared[i],
            },
            |_| 10.0,
            &mut rates,
        )
        .unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9, "{rates:?}");
        inc.fill_view(
            2,
            |i| FlowSpec {
                cap: 100.0,
                resources: &distinct[i],
            },
            |_| 10.0,
            &mut rates,
        )
        .unwrap();
        assert!((rates[0] - 10.0).abs() < 1e-9, "{rates:?}");
        assert_eq!(inc.stats().hits, 0);
        assert_eq!(inc.stats().misses, 2);
    }
}
