//! Benchmark-side tracing: wall-clock spans opened around each call into a
//! layer of the system, nested by a span stack, plus the self-time
//! attribution that turns the recorded trace into per-layer figures.
//!
//! The benchmark drives the system from one thread, so a single stack of
//! open spans gives every span its parent: a span opened while another is
//! open is its child. A layer's *self time* is its span's duration minus the
//! part covered by its children; summed over a phase, the self times of
//! every span under it plus the phase span's own self time (the
//! unattributed residual) add up to the phase's wall time exactly, because
//! they are all computed from the same microsecond stamps.

use orchestra_obs::{EventKind, Span, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A wall-clock tracer plus the stack of currently open spans.
#[derive(Debug)]
pub struct Probe {
    tracer: Tracer,
    stack: Mutex<Vec<Span>>,
}

/// Shared handle to an optional probe: `None` on untraced runs, where every
/// [`enter`] is a single branch.
pub type ProbeHandle = Option<Arc<Probe>>;

impl Probe {
    /// A fresh enabled probe, stamping spans in wall-clock microseconds.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe { tracer: Tracer::new(), stack: Mutex::new(Vec::new()) })
    }

    /// The recorded events.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        self.tracer.events()
    }

    /// The trace in the v1 text format `trace_dump` renders.
    pub(crate) fn export(&self) -> String {
        self.tracer.export()
    }

    fn open(&self, name: &'static str) {
        let mut stack = self.stack.lock().expect("probe stack");
        let span = match stack.last() {
            Some(parent) => parent.child(name, &[]),
            None => self.tracer.span(name, &[]),
        };
        stack.push(span);
    }

    /// Closes the innermost span. Runs inside `Drop`, so a poisoned stack
    /// is skipped rather than panicking.
    fn close(&self) {
        if let Ok(mut stack) = self.stack.lock() {
            stack.pop();
        }
    }
}

/// Guard of one open span; closes it on drop.
#[must_use = "the span closes when the scope drops"]
pub struct Scope<'a>(Option<&'a Probe>);

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        if let Some(probe) = self.0 {
            probe.close();
        }
    }
}

/// Opens a span named `name` under the innermost open span (no-op without a
/// probe).
pub fn enter<'a>(probe: &'a ProbeHandle, name: &'static str) -> Scope<'a> {
    match probe {
        Some(probe) => {
            probe.open(name);
            Scope(Some(probe))
        }
        None => Scope(None),
    }
}

/// Self-time attribution of a trace.
#[derive(Debug, Default, Clone)]
pub(crate) struct Attribution {
    /// Span name → summed inclusive duration, in microseconds.
    pub(crate) inclusive_us: BTreeMap<String, u64>,
    /// Span name → summed self time, in microseconds.
    pub(crate) self_us: BTreeMap<String, u64>,
    /// Span name → number of spans.
    pub(crate) count: BTreeMap<String, u64>,
    /// Root (phase) span name → (wall µs, self µs of every descendant by
    /// span name). The phase's own self time is its unattributed residual.
    pub(crate) phases: BTreeMap<String, (u64, BTreeMap<String, u64>)>,
    /// Spans whose interval escaped their parent's (must be zero).
    pub(crate) misnested: u64,
}

/// Computes per-span-name inclusive and self times from a trace, and the
/// per-phase breakdown rooted at each top-level span.
pub(crate) fn attribute(events: &[TraceEvent]) -> Attribution {
    struct Open {
        name: &'static str,
        start: u64,
        children_us: u64,
        root: u64,
    }
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    let mut out = Attribution::default();
    for event in events {
        match event.kind {
            EventKind::Open => {
                let root = if event.parent == 0 {
                    event.span
                } else {
                    open.get(&event.parent).map_or(event.span, |parent| parent.root)
                };
                open.insert(
                    event.span,
                    Open { name: event.name, start: event.at_us, children_us: 0, root },
                );
            }
            EventKind::Close => {
                let Some(span) = open.remove(&event.span) else { continue };
                let duration = event.at_us.saturating_sub(span.start);
                if span.children_us > duration {
                    out.misnested += 1;
                }
                let self_us = duration.saturating_sub(span.children_us);
                *out.inclusive_us.entry(span.name.to_string()).or_default() += duration;
                *out.self_us.entry(span.name.to_string()).or_default() += self_us;
                *out.count.entry(span.name.to_string()).or_default() += 1;
                if event.parent == 0 {
                    let phase = out.phases.entry(span.name.to_string()).or_default();
                    phase.0 += duration;
                    *phase.1.entry(span.name.to_string()).or_default() += self_us;
                } else {
                    if let Some(parent) = open.get_mut(&event.parent) {
                        parent.children_us += duration;
                    }
                    let root_name =
                        open.get(&span.root).map(|root| root.name.to_string()).unwrap_or_default();
                    let phase = out.phases.entry(root_name).or_default();
                    *phase.1.entry(span.name.to_string()).or_default() += self_us;
                }
            }
            EventKind::Instant => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_phase_wall() {
        let probe = Some(Probe::new());
        {
            let _phase = enter(&probe, "phase.run");
            for _ in 0..3 {
                let _call = enter(&probe, "orchestra.reconcile");
                let _store = enter(&probe, "store.next_batch");
                std::hint::black_box((0..10_000u64).sum::<u64>());
            }
        }
        let attribution = attribute(&probe.as_ref().unwrap().events());
        assert_eq!(attribution.misnested, 0);
        assert_eq!(attribution.count["orchestra.reconcile"], 3);
        let (wall, parts) = &attribution.phases["phase.run"];
        assert_eq!(parts.values().sum::<u64>(), *wall);
        assert_eq!(
            attribution.inclusive_us["orchestra.reconcile"],
            attribution.self_us["orchestra.reconcile"]
                + attribution.inclusive_us["store.next_batch"]
        );
    }
}
