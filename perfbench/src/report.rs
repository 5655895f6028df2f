//! What one run hands back: metrics, per-phase operation counts, and the
//! output checks that failed.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub phases: Vec<(String, u64, u64)>,
    pub failures: Vec<String>,
    /// Human-readable context lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn phase(&mut self, name: impl Into<String>, attempted: u64, failed: u64) {
        self.phases.push((name.into(), attempted, failed));
    }

    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self) -> String {
        let attempted: u64 = self.phases.iter().map(|p| p.1).sum();
        let failed: u64 = self.phases.iter().map(|p| p.2).sum();
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.phase("a", 3, 0);
        r.phase("b", 2, 1);
        r.metric("x_ms", 1.25, "ms");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "broken".into());
        assert!(r.result_json().starts_with("{\"correct\": false"));
    }
}
