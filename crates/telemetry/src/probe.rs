//! The [`Probe`] handle and [`Span`] phase guard.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::event::Event;
use crate::metrics::MetricsHub;
use crate::sink::Sink;

/// A cheaply cloneable telemetry handle.
///
/// A probe is either disabled (the default — every operation reduces to
/// a branch on `None`) or carries a shared [`Sink`]. Independently of the
/// sink it may carry a [`MetricsHub`]; instrumented layers that receive
/// the probe record whole-run metrics into the hub even when no event
/// sink is attached. Instrumented code takes a `&Probe` or stores a
/// clone; there is no global state.
#[derive(Clone, Default)]
pub struct Probe {
    sink: Option<Arc<dyn Sink>>,
    metrics: Option<Arc<MetricsHub>>,
}

impl Probe {
    /// A probe that drops everything. Equivalent to `Probe::default()`.
    #[must_use]
    pub fn disabled() -> Self {
        Probe::default()
    }

    /// A probe forwarding every event to `sink`.
    #[must_use]
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Probe {
            sink: Some(sink),
            metrics: None,
        }
    }

    /// Attaches a shared metrics hub; instrumented layers reached by this
    /// probe (or its clones) record counters, watermarks, histograms, and
    /// worker utilization into it.
    #[must_use]
    pub fn with_metrics(mut self, hub: Arc<MetricsHub>) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// The attached metrics hub, if any.
    #[inline]
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsHub>> {
        self.metrics.as_ref()
    }

    /// Flushes the attached sink (see [`Sink::flush`]). A no-op when
    /// disabled or when the sink buffers nothing.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }

    /// Convenience wrapper around [`Probe::new`] for owned sinks.
    #[must_use]
    pub fn from_sink<S: Sink + 'static>(sink: S) -> Self {
        Probe::new(Arc::new(sink))
    }

    /// Whether any sink is attached.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records an already-constructed event.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Records an event constructed lazily — the closure only runs when a
    /// sink is attached, so the disabled path allocates nothing.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.record(&make());
        }
    }

    /// Opens a phase span. Emits [`Event::SpanEnter`] now and
    /// [`Event::SpanExit`] when the returned guard is [`Span::finish`]ed
    /// (or dropped, with 0 rounds). Pipeline code does not call this
    /// directly: the round ledger opens a span around a phase and closes
    /// it with the rounds charged meanwhile.
    #[must_use]
    pub fn span(&self, path: impl Into<String>) -> Span {
        if self.enabled() {
            let path = path.into();
            self.emit(Event::SpanEnter { path: path.clone() });
            Span {
                probe: self.clone(),
                path,
                start: Some(Instant::now()),
            }
        } else {
            Span {
                probe: Probe::disabled(),
                path: String::new(),
                start: None,
            }
        }
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// A drop guard measuring one phase: wall-clock from construction to
/// close, plus the rounds it is closed with.
pub struct Span {
    probe: Probe,
    path: String,
    start: Option<Instant>,
}

impl Span {
    /// The span path (empty on a disabled span).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Closes the span now, emitting [`Event::SpanExit`] with `rounds`
    /// charged.
    pub fn finish(mut self, rounds: u64) {
        self.emit_exit(rounds);
    }

    fn emit_exit(&mut self, rounds: u64) {
        let Some(start) = self.start.take() else {
            return;
        };
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.probe.emit(Event::SpanExit {
            path: std::mem::take(&mut self.path),
            rounds,
            wall_ns,
            counters: Vec::new(),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit_exit(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RecordingSink;

    #[test]
    fn span_emits_enter_and_exit() {
        let sink = Arc::new(RecordingSink::new());
        let probe = Probe::new(sink.clone());
        probe.span("pipeline/acd").finish(5);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::SpanEnter {
                path: "pipeline/acd".into()
            }
        );
        match &events[1] {
            Event::SpanExit {
                path,
                rounds,
                counters,
                ..
            } => {
                assert_eq!(path, "pipeline/acd");
                assert_eq!(*rounds, 5);
                assert!(counters.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dropped_span_exits_with_zero_rounds() {
        let sink = Arc::new(RecordingSink::new());
        let probe = Probe::new(sink.clone());
        {
            let _span = probe.span("p");
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        match &events[1] {
            Event::SpanExit {
                path,
                rounds,
                counters,
                ..
            } => {
                assert_eq!(path, "p");
                assert_eq!(*rounds, 0);
                assert!(counters.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn finish_prevents_double_emit() {
        let sink = Arc::new(RecordingSink::new());
        let probe = Probe::new(sink.clone());
        let span = probe.span("p");
        span.finish(3);
        assert_eq!(sink.events().len(), 2);
    }

    #[test]
    fn disabled_probe_emits_nothing() {
        let probe = Probe::disabled();
        assert!(!probe.enabled());
        probe.span("p").finish(10);
        drop(probe.span("q"));
        probe.emit_with(|| panic!("must not construct events when disabled"));
    }
}
