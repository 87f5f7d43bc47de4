//! The harness's own wall-clock spans.
//!
//! The program's recorder (`sw-obs`) runs on the simulated clock and is
//! thread-local, so the harness keeps a separate [`obs::Trace`] stamped
//! with wall seconds since the run started, and opens a span around each
//! public call it makes into a layer. The timeline is exported with the
//! `sw-obs` Chrome exporter when the run ends. A disabled tracer records
//! nothing, so the untraced and traced runs execute the same code.

use obs::{SpanId, Trace};
use std::time::Instant;

pub struct Tracer {
    base: Instant,
    trace: Option<Trace>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            base: Instant::now(),
            trace: enabled.then(Trace::default),
        }
    }

    pub fn enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn now(&self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }

    /// Open a span; its parent is the innermost open span.
    pub fn begin(&mut self, name: &str, layer: &str) -> SpanId {
        let now = self.now();
        match &mut self.trace {
            Some(t) => t.begin(name, layer, now, 0),
            None => SpanId::NONE,
        }
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        if let Some(t) = &mut self.trace {
            t.end(id, now, &[]);
        }
    }

    /// Run `f` inside a span named `name` in category `layer`; returns
    /// its result and its wall seconds.
    pub fn timed<R>(&mut self, name: &str, layer: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, layer);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id);
        (r, secs)
    }

    /// [`Tracer::timed`] without the duration.
    pub fn time<R>(&mut self, name: &str, layer: &str, f: impl FnOnce() -> R) -> R {
        self.timed(name, layer, f).0
    }

    /// Write the Chrome trace to `path` and return the span count.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let Some(t) = &self.trace else { return Ok(0) };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, obs::chrome::to_chrome_json(t, self.now()))?;
        Ok(t.spans.len())
    }
}
