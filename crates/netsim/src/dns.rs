//! Simulated DNS.
//!
//! A DNS failure is the paper's strongest death signal: "symptomatic of an
//! entire site or sub-domain within a site being no longer available" (§3),
//! and the largest single category in Figure 4. The simulator models zones
//! whose registrations lapse, get re-registered by domain parkers, or flap
//! with transient server failures.

use crate::time::SimTime;
use std::collections::HashMap;
use std::fmt;

/// Why resolution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsError {
    /// The name does not exist (registration lapsed, subdomain removed).
    NxDomain,
    /// The zone's servers did not answer (transient operational failure).
    ServFail,
    /// The resolver gave up waiting.
    Timeout,
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::NxDomain => f.write_str("NXDOMAIN"),
            DnsError::ServFail => f.write_str("SERVFAIL"),
            DnsError::Timeout => f.write_str("DNS timeout"),
        }
    }
}

/// Outcome of resolving a hostname at an instant.
pub type DnsOutcome = Result<HostRecord, DnsError>;

/// What a successful resolution tells the client. We don't simulate real IP
/// addressing — the record identifies which origin will answer the TCP
/// connection, which is all HTTP needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostRecord {
    /// Identifier of the origin (site) serving this host at this time.
    pub origin_id: u64,
}

/// The lifecycle of a hostname's registration, as a time-ordered list of
/// states. Lookup takes the last state whose start precedes the query time.
#[derive(Debug, Clone, Default)]
pub struct HostTimeline {
    /// `(effective_from, state)` — must be sorted by time; enforced by
    /// [`HostTimeline::push`].
    states: Vec<(SimTime, HostState)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Resolves to the given origin.
    Active { origin_id: u64 },
    /// Registration lapsed: NXDOMAIN.
    Lapsed,
    /// Zone is broken: SERVFAIL.
    Broken,
}

impl HostTimeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a state transition. Transitions must be pushed in time order.
    pub fn push(&mut self, from: SimTime, state: HostState) {
        if let Err(rule) = self.try_push(from, state) {
            panic!("{rule}");
        }
    }

    /// [`HostTimeline::push`], returning the broken rule instead of
    /// panicking (for decoding untrusted bytes).
    pub fn try_push(&mut self, from: SimTime, state: HostState) -> Result<(), &'static str> {
        if self.states.last().is_some_and(|&(last, _)| from < last) {
            return Err("timeline must be pushed in time order");
        }
        self.states.push((from, state));
        Ok(())
    }

    /// The raw transition list, time-ordered (for world serialization: a
    /// timeline round-trips by replaying these through [`HostTimeline::push`]).
    pub fn states(&self) -> &[(SimTime, HostState)] {
        &self.states
    }

    /// The state in effect at `t`, or `None` if `t` precedes registration.
    pub fn state_at(&self, t: SimTime) -> Option<HostState> {
        self.states
            .iter()
            .rev()
            .find(|&&(from, _)| from <= t)
            .map(|&(_, s)| s)
    }
}

/// A zone-table resolver: hostname → timeline.
///
/// `StaticDns` is "static" in the sense that the table is fixed after world
/// generation; answers still vary with query time via the timelines.
#[derive(Debug, Clone, Default)]
pub struct StaticDns {
    zones: HashMap<String, HostTimeline>,
}

impl StaticDns {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, host: &str, timeline: HostTimeline) {
        self.zones.insert(host.to_ascii_lowercase(), timeline);
    }

    /// Register a host that is active for the whole simulation.
    pub fn insert_active(&mut self, host: &str, origin_id: u64) {
        let mut tl = HostTimeline::new();
        tl.push(SimTime(i64::MIN / 2), HostState::Active { origin_id });
        self.insert(host, tl);
    }

    pub fn resolve(&self, host: &str, t: SimTime) -> DnsOutcome {
        let host = host.to_ascii_lowercase();
        match self.zones.get(&host).and_then(|tl| tl.state_at(t)) {
            Some(HostState::Active { origin_id }) => Ok(HostRecord { origin_id }),
            Some(HostState::Lapsed) => Err(DnsError::NxDomain),
            Some(HostState::Broken) => Err(DnsError::ServFail),
            // never registered (typo'd hostnames land here)
            None => Err(DnsError::NxDomain),
        }
    }

    pub fn len(&self) -> usize {
        self.zones.len()
    }

    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Every `(host, timeline)` pair, in arbitrary order (serializers sort).
    pub fn zones(&self) -> impl Iterator<Item = (&String, &HostTimeline)> {
        self.zones.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 6, 1)
    }

    #[test]
    fn unknown_host_is_nxdomain() {
        let dns = StaticDns::new();
        assert_eq!(dns.resolve("nosuch.example", t(2020)), Err(DnsError::NxDomain));
    }

    #[test]
    fn active_host_resolves() {
        let mut dns = StaticDns::new();
        dns.insert_active("e.org", 7);
        assert_eq!(
            dns.resolve("e.org", t(2020)),
            Ok(HostRecord { origin_id: 7 })
        );
        // case-insensitive
        assert_eq!(
            dns.resolve("E.ORG", t(2020)),
            Ok(HostRecord { origin_id: 7 })
        );
    }

    #[test]
    fn lifecycle_transitions() {
        let mut tl = HostTimeline::new();
        tl.push(t(2005), HostState::Active { origin_id: 1 });
        tl.push(t(2015), HostState::Lapsed);
        tl.push(t(2018), HostState::Active { origin_id: 99 }); // re-registered (parker)
        let mut dns = StaticDns::new();
        dns.insert("e.org", tl);

        // before registration
        assert_eq!(dns.resolve("e.org", t(2000)), Err(DnsError::NxDomain));
        // original owner
        assert_eq!(dns.resolve("e.org", t(2010)), Ok(HostRecord { origin_id: 1 }));
        // lapsed
        assert_eq!(dns.resolve("e.org", t(2016)), Err(DnsError::NxDomain));
        // re-registered to a different origin
        assert_eq!(
            dns.resolve("e.org", t(2020)),
            Ok(HostRecord { origin_id: 99 })
        );
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut tl = HostTimeline::new();
        let switch = t(2015);
        tl.push(t(2005), HostState::Active { origin_id: 1 });
        tl.push(switch, HostState::Broken);
        assert_eq!(tl.state_at(switch), Some(HostState::Broken));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut tl = HostTimeline::new();
        tl.push(t(2015), HostState::Lapsed);
        tl.push(t(2005), HostState::Lapsed);
    }

    #[test]
    fn broken_zone_servfail() {
        let mut tl = HostTimeline::new();
        tl.push(t(2005), HostState::Broken);
        let mut dns = StaticDns::new();
        dns.insert("e.org", tl);
        assert_eq!(dns.resolve("e.org", t(2010)), Err(DnsError::ServFail));
    }
}
