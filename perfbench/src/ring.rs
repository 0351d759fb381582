//! `ring_1024`: the flat Ring allgather on 1024 nodes × 1 ppn at 64 KiB
//! per rank. Each rep is cold: build → freeze → validate → simulate.
//!
//! It is the ROADMAP's 1024-node row, and the one workload where the
//! compiler rivals the engine: ~1M ops and ~3.1M events in mostly
//! two-flow components. `build` already freezes its schedule; the rep
//! unfreezes and freezes it again, as the traffic builder does after a
//! relocation, so the freeze is a layer of its own in the traced split.

use mha_collectives::{AlgoConfig, Family};
use mha_sched::{NullProbe, ProcGrid};
use mha_simnet::{ClusterSpec, EngineArena, SimResult, Simulator};

use crate::{pins, trace, Digest, Output, Tracer, Workload};

/// The flat-ring workload.
pub struct Ring {
    spec: ClusterSpec,
    sim: Simulator,
    cfg: AlgoConfig,
    grid: ProcGrid,
    msg: usize,
    pin: Option<Output>,
    last: Option<SimResult>,
}

impl Ring {
    /// The benchmark configuration, checked against its pinned output.
    pub fn bench() -> Result<Self, String> {
        let mut r = Self::new(1024, 64 * 1024)?;
        r.pin = Some(pins::RING_1024);
        Ok(r)
    }

    /// A flat ring on `nodes` × 1 at `msg` bytes per rank, unpinned.
    pub fn new(nodes: u32, msg: usize) -> Result<Self, String> {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).map_err(|e| e.to_string())?;
        Ok(Ring {
            spec,
            sim,
            cfg: AlgoConfig::flat(Family::Ring),
            grid: ProcGrid::new(nodes, 1),
            msg,
            pin: None,
            last: None,
        })
    }
}

impl Workload for Ring {
    fn rep(&mut self, _i: u64) -> Result<(), String> {
        let built = mha_collectives::build(&self.cfg, self.grid, self.msg, &self.spec)
            .map_err(|e| e.to_string())?;
        let fs = built.sched.into_schedule().freeze();
        fs.validate_for(Some(self.spec.rails))
            .map_err(|e| e.to_string())?;
        let r = self
            .sim
            .run_in(&fs, &mut EngineArena::new())
            .map_err(|e| e.to_string())?;
        self.last = Some(r);
        Ok(())
    }

    fn output(&mut self) -> Result<Output, String> {
        let r = self.last.take().ok_or_else(|| "no rep ran".to_string())?;
        Ok(Output {
            makespan_bits: r.makespan.to_bits(),
            digest: Digest::new().f64s(&r.op_end).finish(),
            events: r.events,
        })
    }

    fn traced_rep(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let built = trace::build(tr, &self.cfg, self.grid, self.msg, &self.spec)?;
        let fs = trace::freeze(tr, built.sched.into_schedule());
        trace::validate(tr, &fs, self.spec.rails)?;
        let r = trace::simulate(tr, &self.sim, &fs, &mut NullProbe, &mut EngineArena::new())?;
        self.last = Some(r);
        Ok(())
    }

    fn pinned(&self, _i: u64) -> Option<Output> {
        self.pin
    }

    fn describe(&self) -> String {
        format!(
            "\"grid\":\"{}x{}\",\"msg\":{}",
            self.grid.nodes(),
            self.grid.ppn(),
            self.msg
        )
    }
}
