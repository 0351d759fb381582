//! # mha-tune — the offline autotuner service
//!
//! The paper reports *tuned numbers* (Section 5.3): at every
//! `(grid, message size)` point the best of its algorithm variants. This
//! crate industrializes that procedure into the three-stage pipeline of an
//! MPI tuned-collectives module:
//!
//! 1. **Search** ([`search::run_search`]): enumerate the
//!    [`mha_collectives::AlgoConfig`] design space ([`space::candidates`] —
//!    families × phase-2 algorithm × overlap × offload × exchange chunk ×
//!    stripe threshold, plus degraded-rail variants), price candidates on
//!    the simulator through the campaign runner (deterministic across
//!    worker counts), and prune with **successive halving**: a cheap full sweep
//!    on a quarter-size proxy grid, then only the survivors — joined by
//!    every untuned baseline family — priced on the true grid. The winner
//!    is the rung-1 argmin, so the tuned pick is ≤ every untuned family at
//!    that point *by construction*.
//! 2. **Table** ([`mha_collectives::TunedTable`], re-exported here): the
//!    winners keyed by `(nodes, ppn, msg_bucket, rails_up)`, serialized to
//!    `results/tuned_thor.mtab` — a versioned, digest-sealed text format.
//! 3. **Serving** ([`mha_collectives::TunedTable::lookup`]): load once,
//!    then every query is a pure hash probe (nearest-neighbor fallback
//!    off-grid) returning an `AlgoConfig` for the one
//!    [`mha_collectives::build`] dispatch call. The `fig*` binaries serve
//!    it behind `--tuned`; `ablate_tune` measures tuned vs untuned.
//!
//! Binaries: `mha_tune` (run the search, write the table), `ablate_tune`
//! (serve the shipped table, assert tuned ≤ untuned everywhere).

#![warn(missing_docs)]

pub mod search;
pub mod space;

pub use mha_collectives::{
    build, msg_bucket, AlgoConfig, Family, TableError, TableKey, TunedTable, TABLE_FORMAT_VERSION,
};
pub use search::{fig_grids, full_points, reduced_points, run_search, PointSummary, TunePoint};
pub use space::{candidates, untuned_families};
