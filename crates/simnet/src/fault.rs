//! Fault injection: timed rail/node capacity events and retry policy.
//!
//! Real multi-rail fabrics flap. A [`FaultSpec`] describes a deterministic
//! timeline of per-rail events — bandwidth derates, link-down/link-up
//! transitions — that the engine applies by rescaling the affected tx/rx
//! resource capacities and re-water-filling the touched connected component
//! at each fault boundary. A flow caught on a dead rail *stalls* (rate 0);
//! after [`FaultSpec::retry_timeout`] it re-issues on a surviving rail, with
//! exponential backoff while no rail is up. Schedules built against the full
//! rail set therefore still complete (degraded), and schedules built
//! failure-aware (see `mha-collectives`) avoid the dead rails entirely.
//!
//! Beyond single rails, [`FaultKind::NodeDown`] / [`FaultKind::NodeUp`]
//! model a whole-node crash: every CPU and every rail of that node drops to
//! capacity 0 until the node restarts, so [`FaultSpec::node_crash`] is the
//! timing-side mirror of the executed kill/resume scenario in `mha-exec`
//! (same crash, modeled for latency there, executed for correctness here).
//!
//! Faults are strictly additive: a `Simulator` without a `FaultSpec` pushes
//! no fault events and scales every capacity by exactly `1.0`, so fault-free
//! runs remain bit-identical to the pre-fault engine.

/// What happens to a rail at a fault boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The rail keeps running at `factor` of its nominal bandwidth
    /// (`0.0 < factor <= 1.0`; `1.0` restores nominal).
    Derate(f64),
    /// The link goes down: capacity 0, flows on it stall.
    Down,
    /// The link comes back up at nominal bandwidth.
    Up,
    /// The whole node crashes: its CPUs and *every* rail of its HCAs drop
    /// to capacity 0 — compute stalls along with traffic. Requires
    /// `node: Some(_)` (a node crash is never fabric-wide); the event's
    /// `rail` field is ignored.
    NodeDown,
    /// The node restarts at nominal capacity (CPUs and all rails). The gap
    /// between a `NodeDown` and its `NodeUp` is the recovery penalty.
    NodeUp,
}

/// One timed fault event on one rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time (seconds) at which the event takes effect.
    pub time: f64,
    /// Rail index the event applies to.
    pub rail: u8,
    /// Restrict the event to one node's HCA (`None` = the rail fails
    /// fabric-wide, on every node).
    pub node: Option<u32>,
    /// The capacity transition.
    pub kind: FaultKind,
}

/// A deterministic fault timeline plus the retry policy for stalled flows.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Timed events, in any order (the engine sorts by time).
    pub events: Vec<FaultEvent>,
    /// Seconds a flow waits on a dead rail before re-issuing on a surviving
    /// rail. Doubles on every consecutive failed retry (exponential
    /// backoff, capped at 2¹⁰×).
    pub retry_timeout: f64,
}

impl FaultSpec {
    /// An empty timeline with the given retry timeout.
    pub fn new(retry_timeout: f64) -> Self {
        FaultSpec {
            events: Vec::new(),
            retry_timeout,
        }
    }

    /// Convenience: `rail` goes down fabric-wide at `time`.
    pub fn rail_down_at(rail: u8, time: f64) -> Self {
        let mut s = FaultSpec::new(DEFAULT_RETRY_TIMEOUT);
        s.events.push(FaultEvent {
            time,
            rail,
            node: None,
            kind: FaultKind::Down,
        });
        s
    }

    /// Convenience: `rail` runs at `factor` of nominal from `time` on.
    pub fn derate(rail: u8, time: f64, factor: f64) -> Self {
        let mut s = FaultSpec::new(DEFAULT_RETRY_TIMEOUT);
        s.events.push(FaultEvent {
            time,
            rail,
            node: None,
            kind: FaultKind::Derate(factor),
        });
        s
    }

    /// Convenience: `rail` flaps — down at `t_down`, back up at `t_up`.
    pub fn flap(rail: u8, t_down: f64, t_up: f64) -> Self {
        let mut s = FaultSpec::rail_down_at(rail, t_down);
        s.events.push(FaultEvent {
            time: t_up,
            rail,
            node: None,
            kind: FaultKind::Up,
        });
        s
    }

    /// Convenience: `node` crashes at `time` and never comes back.
    fn node_down_at(node: u32, time: f64) -> Self {
        let mut s = FaultSpec::new(DEFAULT_RETRY_TIMEOUT);
        s.events.push(FaultEvent {
            time,
            rail: 0,
            node: Some(node),
            kind: FaultKind::NodeDown,
        });
        s
    }

    /// Convenience: `node` crashes at `time` and restarts after a
    /// `recovery` penalty — the timing-side mirror of a journaled
    /// kill/resume in `mha-exec`.
    pub fn node_crash(node: u32, time: f64, recovery: f64) -> Self {
        let mut s = FaultSpec::node_down_at(node, time);
        s.events.push(FaultEvent {
            time: time + recovery,
            rail: 0,
            node: Some(node),
            kind: FaultKind::NodeUp,
        });
        s
    }

    /// Appends an event (builder style).
    pub fn with_event(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Checks the timeline against a cluster with `rails` rails and
    /// `nodes` nodes.
    pub fn validate(&self, rails: u8, nodes: u32) -> Result<(), String> {
        if !(self.retry_timeout.is_finite() && self.retry_timeout > 0.0) {
            return Err(format!(
                "retry_timeout must be positive and finite, got {}",
                self.retry_timeout
            ));
        }
        for (i, ev) in self.events.iter().enumerate() {
            if !(ev.time.is_finite() && ev.time >= 0.0) {
                return Err(format!(
                    "event {i}: time {} is not a valid instant",
                    ev.time
                ));
            }
            if ev.rail >= rails {
                return Err(format!(
                    "event {i}: rail {} out of range (cluster has {rails})",
                    ev.rail
                ));
            }
            if let Some(n) = ev.node {
                if n >= nodes {
                    return Err(format!(
                        "event {i}: node {n} out of range (grid has {nodes})"
                    ));
                }
            }
            if let FaultKind::Derate(f) = ev.kind {
                if !(f.is_finite() && f > 0.0 && f <= 1.0) {
                    return Err(format!("event {i}: derate factor {f} outside (0, 1]"));
                }
            }
            if matches!(ev.kind, FaultKind::NodeDown | FaultKind::NodeUp) && ev.node.is_none() {
                return Err(format!(
                    "event {i}: node-level fault requires an explicit node"
                ));
            }
        }
        Ok(())
    }

    /// A stable structural digest of the timeline (see
    /// [`mha_sched::Fingerprinter`]) — folded into campaign cache keys so
    /// runs under different fault timelines never share a cached result.
    pub fn digest(&self) -> u64 {
        let mut fp = mha_sched::Fingerprinter::new();
        fp.push_f64(self.retry_timeout);
        fp.push_usize(self.events.len());
        for ev in &self.events {
            fp.push_f64(ev.time).push_u8(ev.rail);
            match ev.node {
                None => fp.push_bool(false),
                Some(n) => fp.push_bool(true).push_u32(n),
            };
            match ev.kind {
                FaultKind::Derate(f) => fp.push_u8(0).push_f64(f),
                FaultKind::Down => fp.push_u8(1),
                FaultKind::Up => fp.push_u8(2),
                // Appended discriminants: timelines without node events
                // digest exactly as before.
                FaultKind::NodeDown => fp.push_u8(3),
                FaultKind::NodeUp => fp.push_u8(4),
            };
        }
        fp.finish().0
    }
}

/// Default retry timeout for the convenience constructors: 100 µs, a few
/// orders of magnitude above the rail startup latency.
pub const DEFAULT_RETRY_TIMEOUT: f64 = 100e-6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_sane_timelines() {
        let s = FaultSpec::flap(1, 1e-3, 2e-3);
        assert!(s.validate(2, 4).is_ok());
    }

    #[test]
    fn validate_rejects_bad_rail_node_factor_and_timeout() {
        assert!(FaultSpec::rail_down_at(2, 0.0).validate(2, 4).is_err());
        let s = FaultSpec::new(0.0);
        assert!(s.validate(2, 4).is_err());
        let s = FaultSpec::derate(0, 0.0, 0.0);
        assert!(s.validate(2, 4).is_err());
        let s = FaultSpec::derate(0, 0.0, 1.5);
        assert!(s.validate(2, 4).is_err());
        let s = FaultSpec::new(1e-3).with_event(FaultEvent {
            time: 0.0,
            rail: 0,
            node: Some(9),
            kind: FaultKind::Down,
        });
        assert!(s.validate(2, 4).is_err());
        let s = FaultSpec::new(1e-3).with_event(FaultEvent {
            time: f64::NAN,
            rail: 0,
            node: None,
            kind: FaultKind::Down,
        });
        assert!(s.validate(2, 4).is_err());
    }

    #[test]
    fn node_crash_constructors_validate() {
        let s = FaultSpec::node_crash(1, 1e-3, 5e-4);
        assert!(s.validate(2, 4).is_ok());
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[1].time, 1.5e-3);
        assert!(FaultSpec::node_down_at(9, 0.0).validate(2, 4).is_err());
        let s = FaultSpec::new(1e-3).with_event(FaultEvent {
            time: 0.0,
            rail: 0,
            node: None,
            kind: FaultKind::NodeDown,
        });
        assert!(s.validate(2, 4).is_err(), "node event without a node");
    }

    #[test]
    fn digest_distinguishes_node_events() {
        let a = FaultSpec::node_down_at(0, 1.0);
        let b = FaultSpec::node_crash(0, 1.0, 1.0);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), FaultSpec::rail_down_at(0, 1.0).digest());
    }
}
