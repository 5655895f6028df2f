//! Spans around the benchmark's calls into each layer of the program.
//!
//! Spans live in memory on the thread that records them (every traced call
//! runs on the benchmark's main thread) and are written out when the run
//! ends. A span's self time is its duration minus its children's.

use permadead_core::{LinkAnalysis, Stage, StudyEnv};
use permadead_net::{Network, Request, ServeResult};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since tracing was enabled.
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Number of spans recorded so far, to mark where a phase starts.
pub fn mark() -> usize {
    TRACER.with(|t| t.borrow().as_ref().map_or(0, |t| t.spans.len()))
}

/// Every span recorded since `from` (a [`mark`]), parents re-based so the
/// slice stands alone.
pub fn since(from: usize) -> Vec<Span> {
    TRACER.with(|t| {
        let t = t.borrow();
        let Some(t) = t.as_ref() else {
            return Vec::new();
        };
        t.spans[from..]
            .iter()
            .map(|s| Span {
                parent: s
                    .parent
                    .and_then(|p| (p as usize).checked_sub(from).map(|p| p as u32)),
                ..s.clone()
            })
            .collect()
    })
}

/// Run `f` inside a span named `name`; a plain call when tracing is off.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let id = t.spans.len() as u32;
        let start = t.epoch.elapsed().as_nanos() as u64;
        let parent = t.open.last().copied();
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        t.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let t = t.as_mut().expect("tracer vanished inside a span");
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans[id as usize].end = end;
            t.open.pop();
        });
    }
    out
}

/// Total and self nanoseconds and span count, per span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end - s.start;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// Write spans as tab-separated `name start_ns end_ns parent` lines.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(out, "{}\t{}\t{}\t{}", s.name, s.start, s.end, parent)?;
    }
    out.flush()
}

/// The timing `Network` wrapper: one `netsim.request` span per request
/// the pipeline sends to the simulated web.
pub struct TimedNetwork<'a, N: Network> {
    pub inner: &'a N,
}

impl<N: Network> Network for TimedNetwork<'_, N> {
    fn request(&self, req: &Request) -> ServeResult {
        span("netsim.request", || self.inner.request(req))
    }
}

/// A pipeline stage wrapped in a span named after the stage.
pub struct TracedStage(pub Box<dyn Stage>);

impl Stage for TracedStage {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run(&self, env: &StudyEnv<'_>, acc: &mut LinkAnalysis) -> bool {
        span(self.0.name(), || self.0.run(env, acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "a",
                start: 0,
                end: 100,
                parent: None,
            },
            Span {
                name: "b",
                start: 10,
                end: 30,
                parent: Some(0),
            },
            Span {
                name: "b",
                start: 40,
                end: 70,
                parent: Some(0),
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["a"].self_ns, 50);
        assert_eq!(t["a"].total_ns, 100);
        assert_eq!(t["b"].count, 2);
        assert_eq!(t["b"].self_ns, 50);
    }

    #[test]
    fn spans_nest_only_when_enabled() {
        assert_eq!(span("off", || 1), 1);
        assert_eq!(mark(), 0);
        enable();
        span("outer", || span("inner", || ()));
        let spans = since(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
